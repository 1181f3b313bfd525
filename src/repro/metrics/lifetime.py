"""Network lifetime analysis — the paper's stated future work (§6).

The paper minimizes instantaneous network energy and notes that this "does
not necessarily translate into longer network lifetime"; incorporating
lifetime constraints is left as future work.  This module provides that
extension: given per-node battery capacities and a network design (or a
finished simulation), it computes when nodes die and standard lifetime
metrics:

* **time-to-first-death** (the classic lifetime definition, after
  Chang & Tassiulas [7]);
* **time-to-partition** — when some demand can no longer be routed;
* **fraction-alive curves** for plotting.

Two entry points: :func:`lifetime_from_design` extrapolates a centralized
:class:`~repro.core.heuristics.NetworkDesign` under steady-state traffic,
and :func:`lifetime_from_run` extrapolates the measured per-node power draw
of a finished :class:`~repro.sim.network.WirelessNetwork`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.energy_model import NetworkEnergy

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.core.heuristics import DesignHeuristic, NetworkDesign
    from repro.sim.network import WirelessNetwork

#: Energy of a pair of AA batteries, roughly (J); the usual sensor budget.
DEFAULT_BATTERY_JOULES = 20_000.0


@dataclass(frozen=True)
class LifetimeReport:
    """Death schedule and the derived lifetime metrics (seconds)."""

    death_times: dict[int, float]
    time_to_first_death: float
    time_to_partition: float | None
    horizon: float

    def alive_fraction(self, t: float) -> float:
        """Fraction of nodes still alive at time ``t``."""
        if not self.death_times:
            return 1.0
        alive = sum(1 for death in self.death_times.values() if death > t)
        return alive / len(self.death_times)

    def survival_curve(self, points: int = 20) -> list[tuple[float, float]]:
        """(time, fraction alive) samples up to the horizon."""
        if points < 2:
            raise ValueError("need at least two sample points")
        step = self.horizon / (points - 1)
        return [
            (i * step, self.alive_fraction(i * step)) for i in range(points)
        ]


def _death_schedule(
    power_draw: Mapping[int, float],
    batteries: Mapping[int, float],
    horizon: float,
) -> dict[int, float]:
    deaths = {}
    for node_id, watts in power_draw.items():
        budget = batteries[node_id]
        if watts <= 0:
            deaths[node_id] = math.inf
        else:
            deaths[node_id] = min(budget / watts, math.inf)
    return deaths


def _partition_time(
    deaths: Mapping[int, float],
    graph: nx.Graph,
    demands: Sequence[tuple[int, int]],
) -> float | None:
    """Earliest death time after which some demand becomes unroutable."""
    import networkx as nx

    order = sorted(
        (t for t in deaths.values() if math.isfinite(t))
    )
    dead: set[int] = set()
    for death_time in order:
        dead = {n for n, t in deaths.items() if t <= death_time}
        alive_graph = graph.subgraph(set(graph.nodes) - dead)
        for source, destination in demands:
            if source in dead or destination in dead:
                return death_time
            if not nx.has_path(alive_graph, source, destination):
                return death_time
    return None


def steady_state_power(
    energy: NetworkEnergy, duration: float
) -> dict[int, float]:
    """Average per-node power draw (W) over a measured interval."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    return {
        node_id: ledger.total / duration for node_id, ledger in energy
    }


def lifetime_from_energy(
    energy: NetworkEnergy,
    duration: float,
    graph: nx.Graph,
    demands: Sequence[tuple[int, int]],
    battery_joules: float | Mapping[int, float] = DEFAULT_BATTERY_JOULES,
) -> LifetimeReport:
    """Extrapolate lifetime from a measured energy ledger.

    Assumes the measured interval is representative steady state (constant
    traffic, stable routes) and batteries drain linearly at each node's
    average power.
    """
    draw = steady_state_power(energy, duration)
    if isinstance(battery_joules, Mapping):
        batteries = dict(battery_joules)
    else:
        batteries = {node_id: float(battery_joules) for node_id in draw}
    deaths = _death_schedule(draw, batteries, horizon=math.inf)
    finite = [t for t in deaths.values() if math.isfinite(t)]
    first = min(finite) if finite else math.inf
    partition = _partition_time(deaths, graph, demands)
    horizon = max(finite) if finite else first
    return LifetimeReport(
        death_times=deaths,
        time_to_first_death=first,
        time_to_partition=partition,
        horizon=horizon if math.isfinite(horizon) else first,
    )


def lifetime_from_run(
    network: "WirelessNetwork",
    battery_joules: float | Mapping[int, float] = DEFAULT_BATTERY_JOULES,
) -> LifetimeReport:
    """Lifetime extrapolation for a finished simulation run."""
    from repro.net.topology import Placement, connectivity_graph

    config = network.config
    placement = config.placement
    graph = connectivity_graph(placement, config.card.max_range)
    demands = [
        (spec.source, spec.destination)
        for spec in (stats.spec for stats in network.flow_stats)
    ]
    return lifetime_from_energy(
        network.energy, config.duration, graph, demands, battery_joules
    )


def lifetime_from_design(
    heuristic: "DesignHeuristic",
    design: "NetworkDesign",
    graph: nx.Graph,
    duration: float = 60.0,
    scheduling: str = "odpm",
    battery_joules: float | Mapping[int, float] = DEFAULT_BATTERY_JOULES,
) -> LifetimeReport:
    """Lifetime extrapolation for a centralized design under steady traffic."""
    energy = heuristic.evaluate(design, duration=duration,
                                scheduling=scheduling)
    demands = [(d.source, d.destination) for d in heuristic.demands]
    return lifetime_from_energy(energy, duration, graph, demands,
                                battery_joules)
