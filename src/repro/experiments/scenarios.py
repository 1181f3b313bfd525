"""Scenario presets: the §5.2 experiments plus dynamic-topology variants.

Each static preset mirrors one evaluation setup of the paper:

* :func:`small_network` — Figs. 8–10: 50 nodes, 500x500 m^2, 10 CBR flows,
  2–6 Kbit/s, 900 s, 5 runs, Cabletron card.
* :func:`large_network` — Figs. 10–12: 200 nodes, 1300x1300 m^2, 20 flows,
  600 s, 10 runs.
* :func:`density_network` — Table 2: 300/400 nodes, same field, 4 Kbit/s.
* :func:`grid_network` — Figs. 13–16: 49 nodes on a 7x7 grid in
  300x300 m^2, 7 left-to-right flows, Hypothetical Cabletron card.

Dynamic presets (no paper figure; this repo's extension of the evaluation
to the changing topologies the protocols were designed for — see
``docs/scenarios.md``):

* :func:`mobile_small` — the small-network setup under random-waypoint
  mobility (:mod:`repro.sim.mobility`).
* :func:`churn_grid` — the grid setup with scripted relay failures
  mid-run (flow endpoints never fail).
* :func:`bursty_small` — the small-network setup driven by exponential
  on/off sources (:mod:`repro.traffic.models`) instead of CBR.
* :func:`lossy_small` — the small-network setup over a shadowed lossy
  channel (:mod:`repro.sim.channel_models`) instead of the perfect disc.
* :func:`convergecast_grid` — the 7x7 grid as a sensor field: Poisson
  sources, many-to-one convergecast toward a single sink.

Full paper scale is expensive in a pure-Python simulator, so every scenario
carries a ``scale`` knob: ``paper`` uses the paper's durations and run
counts; ``bench`` (the default for the benchmark suite) shortens runs while
preserving every structural parameter — node count, field size, flow count,
card, rates.  ``docs/experiments.md`` records which scale produced which
committed numbers; ``docs/scenarios.md`` catalogs every preset and walks
through adding a new one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.radio import CABLETRON, HYPOTHETICAL_CABLETRON, MICA2, RadioModel
from repro.net.topology import (
    Placement,
    grid_placement,
    uniform_random_placement,
)
from repro.sim.channel_models import ChannelSpec
from repro.sim.mobility import ChurnSpec, MobilitySpec
from repro.sim.network import NetworkConfig
from repro.traffic.flows import FLOW_PATTERNS, FlowSpec, grid_flows
from repro.traffic.models import (
    FlowDynamicsSpec,
    TrafficSpec,
    apply_flow_dynamics,
)

#: Protocols plotted in Figs. 8, 9, 11, 12.
FIELD_PROTOCOLS = (
    "TITAN-PC",
    "DSR-ODPM-PC",
    "DSDVH-ODPM",
    "DSRH-ODPM(norate)",
    "DSRH-ODPM(rate)",
    "DSR-ODPM",
    "DSR-Active",
)

#: Protocols plotted in Figs. 13–16 (ODPM variants; the perfect-scheduling
#: curves reuse the same presets with the analytic evaluator).
GRID_PROTOCOLS = (
    "TITAN-PC",
    "DSRH-ODPM(norate)",
    "MTPR-ODPM",
    "MTPR+-ODPM",
    "DSR-ODPM",
    "DSR-Active",
)


@dataclass(frozen=True)
class Scenario:
    """A §5.2 experiment setup, reusable across protocols / rates / seeds."""

    name: str
    node_count: int
    field_size: float
    flow_count: int
    rates_kbps: tuple[float, ...]
    duration: float
    runs: int
    card: RadioModel = CABLETRON
    grid: bool = False
    start_window: tuple[float, float] = (20.0, 25.0)
    protocols: tuple[str, ...] = FIELD_PROTOCOLS
    #: Random-waypoint mobility; None keeps the topology static (§5.2).
    mobility: MobilitySpec | None = None
    #: Scripted relay failures; None injects nothing.
    churn: ChurnSpec | None = None
    #: Per-flow traffic model; the CBR default is the paper's workload and
    #: keeps runs byte-identical to pre-subsystem builds.
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    #: Endpoint pattern (:data:`repro.traffic.flows.FLOW_PATTERNS` name);
    #: ``random`` is the paper's selection, grid scenarios keep their row
    #: flows unless a non-default pattern overrides them.
    pattern: str = "random"
    #: Flow arrival/departure schedule; None keeps the paper's
    #: "all flows start in [20 s, 25 s] and run forever" shape.
    flow_dynamics: FlowDynamicsSpec | None = None
    #: Channel model + radio tech mix
    #: (:mod:`repro.sim.channel_models`); the disc default is the paper's
    #: perfect-link channel and keeps runs byte-identical to pre-registry
    #: builds.
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    #: When set, every run seed draws the *same* placement — the one this
    #: fixed seed produces — so seeds vary only traffic/protocol randomness
    #: (a fixed-topology study, like the paper's grid).  Such scenarios
    #: share one channel-geometry pass across a sweep's seeds (see
    #: :func:`repro.experiments.runner.shared_setup`).  None keeps the §5.2
    #: behaviour: a fresh placement per seed.
    placement_seed: int | None = None

    def __post_init__(self) -> None:
        if self.pattern not in FLOW_PATTERNS:
            raise ValueError(
                "unknown flow pattern %r; available: %s"
                % (self.pattern, ", ".join(sorted(FLOW_PATTERNS)))
            )

    @property
    def shares_placement(self) -> bool:
        """True when every run seed sees the identical placement.

        Grid scenarios ignore the seed by construction; ``placement_seed``
        pins random placements explicitly.  Either way, the seeds of a
        sweep can share the placement object and its frozen channel
        geometry (:func:`repro.experiments.runner.shared_setup`).
        """
        return self.grid or self.placement_seed is not None

    def placement(self, seed: int) -> Placement:
        """Placement for a given seed (grid scenarios ignore the seed)."""
        if self.grid:
            side = int(round(self.node_count**0.5))
            if side * side != self.node_count:
                raise ValueError("grid scenario needs a square node count")
            return grid_placement(side, self.field_size, self.field_size)
        if self.placement_seed is not None:
            seed = self.placement_seed
        rng = random.Random("placement/%s/%d" % (self.name, seed))
        return uniform_random_placement(
            self.node_count,
            self.field_size,
            self.field_size,
            rng,
            require_connected_range=self.card.max_range,
        )

    def flows(
        self,
        seed: int,
        rate_kbps: float,
        placement: Placement | None = None,
    ) -> list[FlowSpec]:
        """Flow list for one run: pattern-selected endpoints, traffic model
        attached, flow dynamics applied.

        The default configuration (random pattern / grid rows, CBR, no
        dynamics) reproduces the paper's workload draw-for-draw, which is
        what keeps pre-subsystem pinned digests valid.  ``placement`` may
        pass this seed's placement in to skip re-deriving it (the endpoint
        pool is all that is read from it).
        """
        rng = random.Random("flows/%s/%d" % (self.name, seed))
        if self.pattern == "random" and self.grid:
            side = int(round(self.node_count**0.5))
            flows = grid_flows(
                side, rate_kbps * 1000, rng, start_window=self.start_window
            )
        else:
            if placement is None:
                placement = self.placement(seed)
            flows = FLOW_PATTERNS[self.pattern](
                placement.node_ids,
                self.flow_count,
                rate_kbps * 1000,
                rng,
                start_window=self.start_window,
            )
        if not self.traffic.is_cbr:
            flows = [replace(flow, traffic=self.traffic) for flow in flows]
        if self.flow_dynamics is not None:
            flows = apply_flow_dynamics(
                flows,
                self.flow_dynamics,
                self.duration,
                random.Random("flow-dynamics/%s/%d" % (self.name, seed)),
            )
        return flows

    def config(
        self,
        protocol: str,
        rate_kbps: float,
        seed: int,
        placement: Placement | None = None,
    ) -> NetworkConfig:
        """Assemble the full NetworkConfig for one (protocol, rate, seed).

        ``placement`` may inject a pre-derived placement (it must be the
        one :meth:`placement` returns for this seed) so batched runs of a
        shared-placement scenario derive it once, not once per seed.
        """
        if placement is None:
            placement = self.placement(seed)
        return NetworkConfig(
            placement=placement,
            card=self.card,
            protocol=protocol,
            flows=self.flows(seed, rate_kbps, placement=placement),
            duration=self.duration,
            seed=seed,
            mobility=self.mobility,
            churn=self.churn,
            traffic=self.traffic,
            channel=self.channel,
        )

    def scaled(self, duration: float, runs: int) -> "Scenario":
        return replace(self, duration=duration, runs=runs)

    def with_mobility(self, spec: MobilitySpec) -> "Scenario":
        """Random-waypoint variant of this scenario (same geometry/flows)."""
        return replace(self, mobility=spec)

    def with_churn(self, failures: int, window: tuple[float, float] | None = None) -> "Scenario":
        """Churn variant: ``failures`` relays crash inside ``window``.

        ``window`` defaults to the middle of the run — [20%, 70%] of the
        scenario duration — so routes exist before the first crash and
        repair has time to show in the delivery numbers.
        """
        if window is None:
            window = (0.2 * self.duration, 0.7 * self.duration)
        return replace(self, churn=ChurnSpec(failures=failures, window=window))

    def with_traffic(self, spec: TrafficSpec) -> "Scenario":
        """Variant driving every flow with ``spec``'s traffic model."""
        return replace(self, traffic=spec)

    def with_pattern(self, pattern: str) -> "Scenario":
        """Variant selecting endpoints with another pattern (e.g. pairs)."""
        return replace(self, pattern=pattern)

    def with_channel(self, spec: ChannelSpec) -> "Scenario":
        """Variant propagating frames under ``spec``'s channel model."""
        return replace(self, channel=spec)

    def with_flow_dynamics(
        self, spec: FlowDynamicsSpec | None = None
    ) -> "Scenario":
        """Variant with staggered flow arrivals/departures over the run."""
        return replace(
            self, flow_dynamics=spec if spec is not None else FlowDynamicsSpec()
        )

    def with_fixed_placement(self, placement_seed: int = 1) -> "Scenario":
        """Fixed-topology variant: every seed runs on one placement.

        The placement is the one ``placement_seed`` draws; run seeds keep
        varying flow endpoints and per-flow randomness.  Because the
        topology is now seed-invariant, batched execution shares one
        channel-geometry pass across all seeds of a group — the dense
        scenarios' dominant setup cost.  Enters the result-store
        fingerprint (a fixed-placement cell is a different experiment).
        """
        return replace(self, placement_seed=placement_seed)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------


def small_network(scale: str = "bench") -> Scenario:
    """Figs. 8–9 setup (and the 500x500 lines of Fig. 10)."""
    scenario = Scenario(
        name="small-network",
        node_count=50,
        field_size=500.0,
        flow_count=10,
        rates_kbps=(2.0, 3.0, 4.0, 5.0, 6.0),
        duration=900.0,
        runs=5,
    )
    return _apply_scale(scenario, scale, bench_duration=90.0, bench_runs=2)


def large_network(scale: str = "bench") -> Scenario:
    """Figs. 11–12 setup (and the 1300x1300 lines of Fig. 10)."""
    scenario = Scenario(
        name="large-network",
        node_count=200,
        field_size=1300.0,
        flow_count=20,
        rates_kbps=(2.0, 3.0, 4.0, 5.0, 6.0),
        duration=600.0,
        runs=10,
    )
    return _apply_scale(scenario, scale, bench_duration=60.0, bench_runs=1)


def density_network(node_count: int, scale: str = "bench") -> Scenario:
    """Table 2 setup: 300 or 400 nodes at 4 Kbit/s per flow."""
    if node_count not in (300, 400):
        raise ValueError("the paper evaluates 300 and 400 nodes")
    scenario = Scenario(
        name="density-%d" % node_count,
        node_count=node_count,
        field_size=1300.0,
        flow_count=20,
        rates_kbps=(4.0,),
        duration=600.0,
        runs=10,
        protocols=("DSR-ODPM-PC", "TITAN-PC"),
    )
    return _apply_scale(scenario, scale, bench_duration=45.0, bench_runs=1)


def grid_network(scale: str = "bench") -> Scenario:
    """Figs. 13–16 setup: 7x7 grid, Hypothetical Cabletron card.

    Only low rates are simulated directly; high-rate points are produced by
    freezing routes discovered at 2 Kbit/s (the paper's procedure), see
    :func:`repro.experiments.runner.frozen_route_goodput`.
    """
    scenario = Scenario(
        name="grid-network",
        node_count=49,
        field_size=300.0,
        flow_count=7,
        rates_kbps=(2.0, 3.0, 4.0, 5.0),
        duration=900.0,
        runs=5,
        card=HYPOTHETICAL_CABLETRON,
        grid=True,
        protocols=GRID_PROTOCOLS,
    )
    return _apply_scale(scenario, scale, bench_duration=80.0, bench_runs=2)


def mobile_small(scale: str = "bench") -> Scenario:
    """Small-network setup under random-waypoint mobility (no paper figure).

    Same field, card and workload as :func:`small_network`, but every node
    moves: waypoints uniform over the field, speeds 1–5 m/s, 10 s pauses,
    1 s position ticks — a moderate-mobility MANET baseline.  The distinct
    ``name`` reseeds placement/flows, so this is a new scenario, not a
    perturbation of the static one.
    """
    scenario = Scenario(
        name="mobile-small",
        node_count=50,
        field_size=500.0,
        flow_count=10,
        rates_kbps=(2.0, 4.0, 6.0),
        duration=900.0,
        runs=5,
        mobility=MobilitySpec(v_min=1.0, v_max=5.0, pause=10.0, step=1.0),
    )
    return _apply_scale(scenario, scale, bench_duration=90.0, bench_runs=2)


def churn_grid(scale: str = "bench") -> Scenario:
    """Grid setup with scripted relay failures mid-run (no paper figure).

    The 7x7 grid of Figs. 13–16 with 5 interior relays crashing between
    20% and 70% of the run (flow endpoints are never chosen).  Failures
    turn the radio off and stop energy accrual; DSR-family protocols
    repair around the holes, and the delivery-under-churn split
    (``post_churn_delivery`` in the run's dynamics) quantifies how well.
    """
    scenario = Scenario(
        name="churn-grid",
        node_count=49,
        field_size=300.0,
        flow_count=7,
        rates_kbps=(2.0, 3.0, 4.0),
        duration=900.0,
        runs=5,
        card=HYPOTHETICAL_CABLETRON,
        grid=True,
        protocols=GRID_PROTOCOLS,
    )
    scenario = _apply_scale(scenario, scale, bench_duration=80.0, bench_runs=2)
    return scenario.with_churn(failures=5)


def bursty_small(scale: str = "bench") -> Scenario:
    """Small-network setup with exponential on/off sources (no paper figure).

    Same field, card and endpoints as :func:`small_network`, but every flow
    bursts: mean 2 s ON (CBR-spaced packets), mean 6 s OFF — the idle-gap
    workload PSM and on-demand power management were designed to exploit,
    which plain CBR never produces.  The distinct ``name`` reseeds
    placement/flows, so this is a new scenario, not a perturbation of the
    static one.
    """
    scenario = Scenario(
        name="bursty-small",
        node_count=50,
        field_size=500.0,
        flow_count=10,
        rates_kbps=(2.0, 4.0, 6.0),
        duration=900.0,
        runs=5,
        traffic=TrafficSpec("onoff", (("on", 2.0), ("off", 6.0))),
    )
    return _apply_scale(scenario, scale, bench_duration=90.0, bench_runs=2)


def lossy_small(scale: str = "bench") -> Scenario:
    """Small-network setup over a lossy shadowed channel (no paper figure).

    Same field, card and workload as :func:`small_network`, but frames are
    dropped with distance-dependent probability under log-normal shadowing
    (``prob`` model, 20% edge loss, 3 dB shadowing): edge-of-range links
    flap instead of working perfectly, so route quality and retransmission
    energy finally differ between protocols that pick short robust hops
    and protocols that stretch to the range limit.  The distinct ``name``
    reseeds placement/flows, so this is a new scenario, not a perturbation
    of the static one.
    """
    scenario = Scenario(
        name="lossy-small",
        node_count=50,
        field_size=500.0,
        flow_count=10,
        rates_kbps=(2.0, 4.0, 6.0),
        duration=900.0,
        runs=5,
        channel=ChannelSpec("prob", (("loss", 0.2), ("sigma", 3.0))),
    )
    return _apply_scale(scenario, scale, bench_duration=90.0, bench_runs=2)


def convergecast_grid(scale: str = "bench") -> Scenario:
    """7x7 grid as a sensor field: Poisson sources, one sink (no paper fig).

    The grid geometry and Hypothetical Cabletron card of Figs. 13–16, but
    the workload is the sensor-network shape: eight sources report
    memoryless (Poisson) readings to a single seed-chosen sink, so relays
    near the sink carry every flow and dominate the energy bill.
    """
    scenario = Scenario(
        name="convergecast-grid",
        node_count=49,
        field_size=300.0,
        flow_count=8,
        rates_kbps=(2.0, 3.0, 4.0),
        duration=900.0,
        runs=5,
        card=HYPOTHETICAL_CABLETRON,
        grid=True,
        protocols=GRID_PROTOCOLS,
        traffic=TrafficSpec("poisson"),
        pattern="convergecast",
    )
    return _apply_scale(scenario, scale, bench_duration=80.0, bench_runs=2)


#: Node spacing of the :func:`large_grid` family, meters.  With the Mica2
#: card's 68 m range, each node hears its 4 orthogonal neighbors (the
#: 70.7 m diagonal is out of range) — constant degree, so event fan-out
#: stays bounded as the node axis scales.
LARGE_GRID_SPACING = 50.0


def large_grid(node_count: int = 1024, scale: str = "bench") -> Scenario:
    """Scale-axis preset family: a 1k–10k-node Mica2 sensor grid.

    No paper figure — the paper stops at 400 nodes.  This family is the
    workload behind the cell-list geometry work (``docs/performance.md``,
    "Scaling the node axis"): ``node_count`` nodes on a square grid at
    :data:`LARGE_GRID_SPACING`, the 68 m-range Mica2 card (degree 4;
    the paper's 250 m cards would make every node hear ~80 others and
    runtime would measure fan-out, not the node axis), and eight
    disjoint-pair CBR flows at 2 Kbit/s whose endpoints the seed draws —
    routes span O(side) hops, so DSR route discovery floods the full
    field exactly as a real sparse multihop deployment would.

    ``DSR-Active`` only: PSM beaconing is per-node-periodic, so at 5k
    nodes beacons would dominate the event budget without exercising the
    geometry under test.  Flows start early (5–10 s; there is no PSM
    warm-up to wait out) and the scale knob maps to 120 s x 3 runs
    (``paper``), 30 s x 1 (``bench``), 15 s x 1 (``smoke``).
    """
    side = int(round(node_count**0.5))
    if side * side != node_count:
        raise ValueError(
            "large_grid needs a square node count, got %d" % node_count
        )
    if side < 4:
        raise ValueError("large_grid below 16 nodes is not a scale scenario")
    scenario = Scenario(
        name="large-grid-%d" % node_count,
        node_count=node_count,
        field_size=LARGE_GRID_SPACING * (side - 1),
        flow_count=8,
        rates_kbps=(2.0,),
        duration=120.0,
        runs=3,
        card=MICA2,
        grid=True,
        start_window=(5.0, 10.0),
        protocols=("DSR-Active",),
        pattern="pairs",
    )
    if scale == "paper":
        return scenario
    if scale == "bench":
        return scenario.scaled(duration=30.0, runs=1)
    if scale == "smoke":
        return scenario.scaled(duration=15.0, runs=1)
    raise ValueError("scale must be 'paper', 'bench' or 'smoke', got %r" % scale)


#: High-rate sweep of Figs. 15–16, Kbit/s.
HIGH_RATES_KBPS = (50.0, 100.0, 150.0, 200.0)


def _apply_scale(
    scenario: Scenario, scale: str, bench_duration: float, bench_runs: int
) -> Scenario:
    if scale == "paper":
        return scenario
    if scale == "bench":
        return scenario.scaled(duration=bench_duration, runs=bench_runs)
    if scale == "smoke":
        return scenario.scaled(duration=30.0, runs=1)
    raise ValueError("scale must be 'paper', 'bench' or 'smoke', got %r" % scale)
