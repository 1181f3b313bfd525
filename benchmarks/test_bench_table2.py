"""Table 2: performance with node density (300 and 400 nodes, 4 Kbit/s).

Paper shape: at 300 nodes both DSR-ODPM-PC and TITAN-PC hold up; at 400
nodes DSR-ODPM-PC collapses (delivery 0.405, goodput 91 bit/J) because its
route-discovery floods explode with density, while TITAN-PC sustains high
delivery and goodput (0.923, 930 bit/J) because active nodes dominate
discovery and sleeping nodes opt out.
"""

from repro.experiments.runner import sweep
from repro.experiments.scenarios import density_network

from conftest import BENCH_JOBS, print_table, run_once

PROTOCOLS = ("DSR-ODPM-PC", "TITAN-PC")


def test_bench_table2_density(benchmark):
    def run():
        results = {}
        for node_count in (300, 400):
            scenario = density_network(node_count, scale="bench")
            grid = sweep(
                scenario,
                protocols=PROTOCOLS,
                rates_kbps=(4.0,),
                jobs=BENCH_JOBS,
            )
            for protocol in PROTOCOLS:
                results[(node_count, protocol)] = grid[(protocol, 4.0)]
        return results

    results = run_once(benchmark, run)
    rows = []
    for node_count in (300, 400):
        for protocol in PROTOCOLS:
            agg = results[(node_count, protocol)]
            rows.append(
                (
                    node_count,
                    protocol,
                    "%.3f ± %.3f" % (
                        agg.delivery_ratio.mean, agg.delivery_ratio.half_width
                    ),
                    "%.1f ± %.1f" % (
                        agg.energy_goodput.mean, agg.energy_goodput.half_width
                    ),
                    "%.0f" % agg.control_packets.mean,
                )
            )
    print_table(
        "Table 2: performance with node density (bench scale)",
        ["# nodes", "Protocol", "Delivery ratio", "Goodput (bit/J)", "Ctrl pkts"],
        rows,
    )

    # TITAN's flood suppression keeps its control overhead below plain
    # DSR's at both densities, and the gap widens with density.
    gap_300 = (
        results[(300, "DSR-ODPM-PC")].control_packets.mean
        / max(results[(300, "TITAN-PC")].control_packets.mean, 1.0)
    )
    gap_400 = (
        results[(400, "DSR-ODPM-PC")].control_packets.mean
        / max(results[(400, "TITAN-PC")].control_packets.mean, 1.0)
    )
    assert gap_300 > 1.0
    assert gap_400 > 1.0
    # TITAN-PC sustains delivery at 400 nodes.
    assert results[(400, "TITAN-PC")].delivery_ratio.mean > 0.85
    # TITAN-PC's goodput at 400 nodes is at least as good as DSR-ODPM-PC's.
    assert (
        results[(400, "TITAN-PC")].energy_goodput.mean
        >= results[(400, "DSR-ODPM-PC")].energy_goodput.mean
    )
