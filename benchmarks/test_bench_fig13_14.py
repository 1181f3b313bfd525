"""Figs. 13–14: energy goodput at low rates on the 7x7 grid
(Hypothetical Cabletron card), under perfect and ODPM sleep scheduling.

Methodology follows §5.2.3: routes stabilize at 2 Kbit/s in simulation,
then E_network is computed analytically over the frozen routes for each
rate.  Paper shape:

* Fig. 13 (perfect scheduling): all protocols similar except DSR-Active,
  which pays always-on idling.
* Fig. 14 (ODPM scheduling): everything degrades; TITAN outperforms the
  others because at low load savings come from using fewer relays.
"""

import pytest

from repro.experiments.parallel import discover_routes
from repro.experiments.runner import frozen_route_goodput
from repro.experiments.scenarios import grid_network

from conftest import BENCH_JOBS, print_table, run_once

PROTOCOLS = (
    "TITAN-PC",
    "DSRH-ODPM(norate)",
    "MTPR-ODPM",
    "MTPR+-ODPM",
    "DSR-ODPM",
    "DSR-Active",
)
LOW_RATES = (2.0, 3.0, 4.0, 5.0)


@pytest.fixture(scope="module")
def grid_points():
    scenario = grid_network(scale="bench")
    # One probe per protocol, shared by both schedulings.
    routes = discover_routes(scenario, PROTOCOLS, jobs=BENCH_JOBS)
    points = {}
    for scheduling in ("perfect", "odpm"):
        for protocol in PROTOCOLS:
            points[(scheduling, protocol)] = frozen_route_goodput(
                scenario,
                protocol,
                LOW_RATES,
                scheduling,
                duration=100.0,
                routes=routes[protocol],
            )
    return points


def _table(points, scheduling, title):
    rows = [
        [protocol]
        + ["%.2f" % (p.energy_goodput / 1e3)
           for p in points[(scheduling, protocol)]]
        for protocol in PROTOCOLS
    ]
    print_table(title, ["Protocol"] + ["%g Kb/s" % r for r in LOW_RATES], rows)


def test_bench_fig13_perfect_scheduling(benchmark, grid_points):
    points = run_once(benchmark, lambda: grid_points)
    _table(points, "perfect",
           "Fig. 13: energy goodput (Kbit/J), low rates, perfect scheduling")
    rate_index = 2  # 4 Kbit/s
    goodputs = {
        protocol: points[("perfect", protocol)][rate_index].energy_goodput
        for protocol in PROTOCOLS
    }
    # Paper: with perfect scheduling all protocols perform similarly,
    # except DSR-Active.
    sleeping = [g for p, g in goodputs.items() if p != "DSR-Active"]
    assert max(sleeping) < 3.0 * min(sleeping)
    assert goodputs["DSR-Active"] < 0.5 * min(sleeping)


def test_bench_fig14_odpm_scheduling(benchmark, grid_points):
    points = run_once(benchmark, lambda: grid_points)
    _table(points, "odpm",
           "Fig. 14: energy goodput (Kbit/J), low rates, ODPM scheduling")
    rate_index = 2
    goodputs = {
        protocol: points[("odpm", protocol)][rate_index].energy_goodput
        for protocol in PROTOCOLS
    }
    # Paper: with ODPM scheduling TITAN outperforms the other protocols
    # (energy savings come from fewer relays at low load).
    for protocol in ("MTPR-ODPM", "MTPR+-ODPM", "DSRH-ODPM(norate)"):
        assert goodputs["TITAN-PC"] >= goodputs[protocol], protocol
    # Every protocol is worse under ODPM than under perfect scheduling.
    for protocol in PROTOCOLS:
        if protocol == "DSR-Active":
            continue  # identical by definition (never sleeps)
        perfect = points[("perfect", protocol)][rate_index].energy_goodput
        odpm = points[("odpm", protocol)][rate_index].energy_goodput
        assert odpm < perfect, protocol
