"""Fig. 10: transmit energy of TITAN-PC vs DSR-ODPM in both fields.

Paper shape: TITAN-PC (with transmission power control) uses 54–59% less
transmit energy than DSR-ODPM in the small field and 66–86% less in the
large field — yet this barely shows in total energy, because idling
dominates communication.
"""

import pytest

from repro.experiments.runner import sweep
from repro.experiments.scenarios import large_network, small_network

from conftest import BENCH_JOBS, print_table, run_once

PROTOCOLS = ("TITAN-PC", "DSR-ODPM")
RATES = (2.0, 4.0, 6.0)


def test_bench_fig10_transmit_energy(benchmark):
    def run():
        small = small_network(scale="bench")
        large = large_network(scale="bench")
        results = {}
        for label, scenario in (("500x500", small), ("1300x1300", large)):
            grid = sweep(
                scenario,
                protocols=PROTOCOLS,
                rates_kbps=RATES,
                jobs=BENCH_JOBS,
            )
            for (protocol, rate), aggregate in grid.items():
                results[(label, protocol, rate)] = aggregate
        return results

    results = run_once(benchmark, run)
    rows = []
    for label in ("500x500", "1300x1300"):
        for protocol in PROTOCOLS:
            rows.append(
                [f"{protocol} ({label})"]
                + [
                    "%.2f" % results[(label, protocol, rate)].transmit_energy.mean
                    for rate in RATES
                ]
            )
    print_table(
        "Fig. 10: transmit energy (J) (bench scale)",
        ["Protocol (field)"] + ["%g Kb/s" % r for r in RATES],
        rows,
    )

    for label in ("500x500", "1300x1300"):
        for rate in RATES:
            titan = results[(label, "TITAN-PC", rate)].transmit_energy.mean
            dsr = results[(label, "DSR-ODPM", rate)].transmit_energy.mean
            # Power control must reduce transmit energy.
            assert titan < dsr, (label, rate)
        # Paper reports 54-86% savings; our Cabletron transmit power is
        # dominated by the fixed P_base = 1118 mW (the tunable quartic term
        # is at most ~20% of P_tx_max), so the reproducible claim is a
        # consistent, material reduction — we require >= 5% at the top rate
        # and record the magnitude difference in EXPERIMENTS.md.
        titan = results[(label, "TITAN-PC", RATES[-1])].transmit_energy.mean
        dsr = results[(label, "DSR-ODPM", RATES[-1])].transmit_energy.mean
        assert titan < 0.95 * dsr, label

    # Transmit energy rises with offered load for both protocols.
    for protocol in PROTOCOLS:
        series = [
            results[("500x500", protocol, rate)].transmit_energy.mean
            for rate in RATES
        ]
        assert series[-1] > series[0]
