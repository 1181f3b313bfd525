"""Experiment runners: protocol/rate sweeps and frozen-route evaluation.

The runners turn a :class:`~repro.experiments.scenarios.Scenario` into the
rows/series the paper's figures plot:

* :func:`run_single` — one (protocol, rate, seed) simulation.
* :func:`run_batch` / :func:`run_batch_receipts` — all seeds of one
  (protocol, rate) group in one call, sharing placement + frozen channel
  geometry when the scenario's topology is seed-invariant
  (:func:`shared_setup`); the dispatch unit of
  :mod:`repro.experiments.parallel`, without and with a result store.
* :func:`sweep` — full protocol x rate grid, aggregated over seeds with 95%
  confidence intervals; this regenerates Figs. 8, 9, 11, 12, 14 and Table 2.
* :func:`frozen_route_goodput` — the §5.2.3 procedure for Figs. 13–16:
  simulate at 2 Kbit/s until routes stabilize, freeze them, then compute
  ``E_network`` analytically for each (possibly much higher) rate under
  perfect or ODPM sleep scheduling.

:func:`sweep` and :func:`run_many` route through the orchestration layer in
:mod:`repro.experiments.parallel`: pass ``jobs=N`` to fan cells out across
processes and ``store=ResultStore(...)`` to reuse completed runs from disk.
Results are bit-identical regardless of ``jobs`` (each cell derives all
randomness from its own seed) and of which store backend caches them —
the full contract is serial == parallel == cached == resumed == merged,
with :func:`run_single` as the per-cell reference (see
:mod:`repro.experiments.parallel`).  A completed
sweep's store renders into a standalone HTML campaign report via
:mod:`repro.report` (``repro report`` / ``sweep --report``).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.energy_model import FlowRoute, RouteEnergyEvaluator
from repro.metrics.collectors import AggregateResult, RunResult, aggregate_runs
from repro.experiments.scenarios import Scenario
from repro.sim.network import PROTOCOLS, WirelessNetwork

if TYPE_CHECKING:  # pragma: no cover - runner <-> parallel layering
    from repro.experiments.store import ResultStore


def _fault_label(protocol: str, rate_kbps: float, seed: int) -> str:
    """Label for deterministic fault injection (tests + CI smoke)."""
    return "cell:%s@%g#%d" % (protocol, float(rate_kbps), int(seed))


def run_single(
    scenario: Scenario, protocol: str, rate_kbps: float, seed: int
) -> RunResult:
    """Run one simulation and return its result."""
    from repro.experiments.resilience import maybe_inject_fault

    maybe_inject_fault(_fault_label(protocol, rate_kbps, seed))
    return _run_cell(scenario, protocol, rate_kbps, seed)


def _run_cell(
    scenario: Scenario,
    protocol: str,
    rate_kbps: float,
    seed: int,
    placement=None,
    geometry=None,
) -> RunResult:
    """Build, run and close one cell with the cyclic collector paused.

    :meth:`WirelessNetwork.close` breaks every reference cycle of a
    finished network, so reference counting frees it and a cell leaves
    no cyclic garbage (``tests/test_teardown.py``).  Automatic passes
    during the cell would only walk the live network that assembly just
    allocated; should a cell ever leave cycles, the first pass after it
    collects them.  The caller's ``gc.isenabled()`` setting is restored
    on every exit, exceptions included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        config = scenario.config(protocol, rate_kbps, seed, placement=placement)
        network = WirelessNetwork(config, geometry=geometry)
        try:
            return network.run()
        finally:
            network.close()
    finally:
        if enabled:
            gc.enable()


def shared_setup(
    scenario: Scenario,
    protocol: str,
    rate_kbps: float,
    seeds: Sequence[int],
):
    """The ``(placement, geometry)`` pair one seed group can share.

    When the scenario's placement does not depend on the seed
    (:attr:`Scenario.shares_placement`: grid presets, or any preset pinned
    via :meth:`Scenario.with_fixed_placement`) the placement is derived
    and its :class:`~repro.sim.channel.ChannelGeometry` frozen **once**
    for every seed that runs on it; otherwise each seed derives its own
    and this returns ``(None, None)``.  A failure names the group's first
    cell.
    """
    from repro.experiments.parallel import GridCell, GridCellError
    from repro.sim.channel import ChannelGeometry

    if not scenario.shares_placement:
        return None, None
    try:
        placement = scenario.placement(seeds[0])
        geometry = ChannelGeometry.build(
            placement.positions, scenario.card.max_range
        )
    except Exception as exc:
        cell = GridCell(protocol, float(rate_kbps), int(seeds[0]))
        raise GridCellError.from_exception(
            cell, exc, prefix="shared batch setup failed: "
        ) from exc
    return placement, geometry


def _run_seed(
    scenario: Scenario,
    protocol: str,
    rate_kbps: float,
    seed: int,
    placement,
    geometry,
) -> RunResult:
    """One seed of a group on the shared setup; failures name the cell."""
    from repro.experiments.parallel import GridCell, GridCellError
    from repro.experiments.resilience import maybe_inject_fault

    try:
        maybe_inject_fault(_fault_label(protocol, rate_kbps, seed))
        return _run_cell(
            scenario, protocol, rate_kbps, seed, placement, geometry
        )
    except Exception as exc:
        cell = GridCell(protocol, float(rate_kbps), int(seed))
        raise GridCellError.from_exception(cell, exc) from exc


def run_batch(
    scenario: Scenario,
    protocol: str,
    rate_kbps: float,
    seeds: Sequence[int],
    placement=None,
    geometry=None,
) -> list[RunResult]:
    """Run all ``seeds`` of one ``(protocol, rate)`` group in one call.

    The store-less unit of work behind
    :func:`repro.experiments.parallel.run_grid`.  The seeds share one
    :func:`shared_setup` pair — passed in by a dispatch context that
    memoizes it across units, or derived here when ``placement`` is
    None.  Each seed still gets a completely fresh simulation (engine,
    PHYs, routing state); only the immutable geometry is shared, so
    results are bit-identical to per-seed :func:`run_single` calls.

    Results are returned in ``seeds`` order.  A failing seed raises
    :class:`~repro.experiments.parallel.GridCellError` naming the exact
    ``(protocol, rate, seed)`` — also across process-pool boundaries;
    earlier seeds of the batch are discarded with it.
    """
    seeds = tuple(seeds)
    if placement is None:
        placement, geometry = shared_setup(
            scenario, protocol, rate_kbps, seeds
        )
    return [
        _run_seed(scenario, protocol, rate_kbps, seed, placement, geometry)
        for seed in seeds
    ]


def run_batch_receipts(
    scenario: Scenario,
    protocol: str,
    rate_kbps: float,
    seeds: Sequence[int],
    store: "ResultStore",
    fingerprint,
    placement=None,
    geometry=None,
) -> list:
    """Run one seed group into ``store``, persisting results as it goes.

    The store-backed counterpart of :func:`run_batch`: instead of
    returning :class:`RunResult` objects for the caller to persist, each
    finished seed is written **directly** into the (multi-process-safe)
    result store and only a
    :class:`~repro.experiments.parallel.CellReceipt` — cache key, payload
    digest, event count — is returned, so a pool carries O(digest) per
    cell instead of O(payload).  ``placement``/``geometry`` are the
    group's :func:`shared_setup` pair (None: each seed derives its own).

    A seed whose entry already exists (a crashed-then-retried batch whose
    earlier attempt persisted it; digest-verified on read) is skipped and
    reported as a ``cached`` receipt — re-simulating it would produce the
    same bytes anyway, per the determinism contract.  Simulation failures
    raise :class:`~repro.experiments.parallel.GridCellError` naming the
    exact ``(protocol, rate, seed)``, exactly like :func:`run_batch`;
    store read and write errors propagate unwrapped — they are not the
    cell's fault, and the sweep aborts on them.
    """
    from repro.experiments.parallel import CellReceipt
    from repro.experiments.store import cell_key_from_fingerprint

    receipts = []
    for seed in seeds:
        key = cell_key_from_fingerprint(fingerprint, protocol, rate_kbps, seed)
        existing = store.get_run_entry(key)
        if existing is not None:
            result, digest = existing
            receipts.append(
                CellReceipt(
                    key=key,
                    digest=digest,
                    events=result.events_processed,
                    cached=True,
                )
            )
            continue
        result = _run_seed(
            scenario, protocol, rate_kbps, seed, placement, geometry
        )
        digest = store.put_run(key, result, fingerprint=fingerprint)
        receipts.append(
            CellReceipt(
                key=key, digest=digest, events=result.events_processed
            )
        )
    return receipts


def run_many(
    scenario: Scenario,
    protocol: str,
    rate_kbps: float,
    jobs: int = 1,
    store: "ResultStore | None" = None,
    progress: bool = False,
    policy=None,
) -> AggregateResult:
    """Run ``scenario.runs`` seeds of one configuration and aggregate.

    Seeds fan out across ``jobs`` processes and reuse ``store`` when given.
    A failing seed raises :class:`~repro.experiments.parallel.GridCellError`
    naming the offending ``(protocol, rate, seed)`` instead of an opaque
    mid-grid traceback; ``policy`` (a
    :class:`~repro.experiments.resilience.FaultPolicy`) adds retries and
    timeouts for transient worker failures.
    """
    from repro.experiments.parallel import grid_cells, run_grid

    cells = grid_cells(scenario, (protocol,), (rate_kbps,))
    results = run_grid(
        scenario,
        cells,
        jobs=jobs,
        store=store,
        progress=progress,
        policy=policy,
    )
    return aggregate_runs([results[cell] for cell in cells])


def sweep(
    scenario: Scenario,
    protocols: tuple[str, ...] | None = None,
    rates_kbps: tuple[float, ...] | None = None,
    verbose: bool = False,
    jobs: int = 1,
    store: "ResultStore | None" = None,
    progress: bool = False,
    policy=None,
    manifest=None,
    failures=None,
    interrupt=None,
) -> dict[tuple[str, float], AggregateResult]:
    """Full protocol x rate grid for a scenario.

    Returns ``{(protocol, rate): AggregateResult}``; iterate rates in inner
    order to print one figure line per protocol.  ``jobs``/``store``/
    ``progress`` are forwarded to
    :func:`repro.experiments.parallel.run_sweep`, the orchestration
    engine, as are the resilience hooks ``policy``/``manifest``/
    ``failures``/``interrupt`` (see :mod:`repro.experiments.resilience`).
    ``verbose`` prints one stdout line per (protocol, rate) aggregate once
    the grid completes, and turns on per-cell stderr progress so a long
    sweep stays visibly alive while it runs.
    """
    from repro.experiments.parallel import run_sweep

    def _report(protocol: str, rate: float, agg: AggregateResult) -> None:
        print(
            "%-26s %4.1f Kbit/s  dr=%s  goodput=%s"
            % (protocol, rate, agg.delivery_ratio, agg.energy_goodput)
        )

    return run_sweep(
        scenario,
        protocols=protocols,
        rates_kbps=rates_kbps,
        jobs=jobs,
        store=store,
        progress=progress or verbose,
        on_aggregate=_report if verbose else None,
        policy=policy,
        manifest=manifest,
        failures=failures,
        interrupt=interrupt,
    )


@dataclass(frozen=True)
class FrozenRoutePoint:
    """One point of Figs. 13–16."""

    protocol: str
    rate_kbps: float
    scheduling: str
    energy_goodput: float
    e_network: float
    routes: tuple[tuple[int, ...], ...]


def stabilize_routes(
    scenario: Scenario,
    protocol: str,
    seed: int = 1,
    probe_rate_kbps: float = 2.0,
) -> tuple[WirelessNetwork, dict[int, tuple[int, ...]]]:
    """Run the probe-rate simulation and extract the stabilized routes.

    Implements the paper's §5.2.3 methodology: "we find the time when the
    routes stabilize for the 2 Kbit/s and use these routes to calculate
    E_network for higher rates".  Flows without a stable route fall back to
    the shortest path in the connectivity graph (rare; start-up artifact).
    """
    network = WirelessNetwork(scenario.config(protocol, probe_rate_kbps, seed))
    network.run()
    routes = network.extract_routes()
    if len(routes) < len(network.flow_stats):
        import networkx as nx

        from repro.net.topology import connectivity_graph

        placement = scenario.placement(seed)
        graph = connectivity_graph(placement, scenario.card.max_range)
        for stats in network.flow_stats:
            spec = stats.spec
            if spec.flow_id not in routes:
                path = nx.shortest_path(graph, spec.source, spec.destination)
                routes[spec.flow_id] = tuple(path)
    return network, routes


def frozen_routes(
    scenario: Scenario,
    protocol: str,
    seed: int = 1,
    probe_rate_kbps: float = 2.0,
    store: "ResultStore | None" = None,
) -> dict[int, tuple[int, ...]]:
    """Stabilized routes for the §5.2.3 frozen-route studies, cached.

    The probe simulation is the expensive half of Figs. 13–16; with a
    ``store``, its stabilized route set is cached on disk so subsequent
    figure invocations skip straight to the analytic energy evaluation.
    To probe several protocols in parallel, use
    :func:`repro.experiments.parallel.discover_routes` (this is its
    single-protocol serial case).
    """
    from repro.experiments.parallel import discover_routes

    return discover_routes(
        scenario, (protocol,), seed, probe_rate_kbps, store=store
    )[protocol]


def frozen_route_goodput(
    scenario: Scenario,
    protocol: str,
    rates_kbps: tuple[float, ...],
    scheduling: str,
    seed: int = 1,
    duration: float = 100.0,
    probe_rate_kbps: float = 2.0,
    store: "ResultStore | None" = None,
    routes: dict[int, tuple[int, ...]] | None = None,
) -> list[FrozenRoutePoint]:
    """Figs. 13–16: energy goodput at each rate over frozen routes.

    ``scheduling`` is ``"perfect"`` (Figs. 13, 15) or ``"odpm"``
    (Figs. 14, 16).  Power control follows the protocol preset (e.g. MTPR
    transmits data at per-hop power, DSR-Active at maximum power).  With a
    ``store``, the stabilized routes come from :func:`frozen_routes`' disk
    cache when available; pass ``routes`` (e.g. from a parallel
    :func:`~repro.experiments.parallel.discover_routes` batch) to skip the
    probe entirely.
    """
    if routes is None:
        routes = frozen_routes(scenario, protocol, seed, probe_rate_kbps, store)
    placement = scenario.placement(seed)
    preset = PROTOCOLS[protocol]
    evaluator = RouteEnergyEvaluator(
        positions=placement.positions,
        card=scenario.card,
        power_control=preset.power_control,
    )
    points = []
    for rate in rates_kbps:
        flow_routes = [
            FlowRoute(path=path, rate=rate * 1000.0)
            for flow_id, path in sorted(routes.items())
        ]
        if protocol == "DSR-Active":
            # No power saving at all: every node idles when not communicating,
            # regardless of the scheduling strategy under study.
            energy = _always_active_energy(evaluator, flow_routes, duration)
        else:
            energy = evaluator.evaluate(flow_routes, duration, scheduling=scheduling)
        delivered = sum(fr.rate * duration for fr in flow_routes)
        points.append(
            FrozenRoutePoint(
                protocol=protocol,
                rate_kbps=rate,
                scheduling=scheduling,
                energy_goodput=energy.energy_goodput(delivered),
                e_network=energy.e_network,
                routes=tuple(sorted(routes.values())),
            )
        )
    return points


def _always_active_energy(
    evaluator: RouteEnergyEvaluator, flow_routes, duration: float
):
    """E_network when no node ever sleeps (the DSR-Active baseline)."""
    from repro.core.energy_model import NetworkEnergy

    base = evaluator.evaluate(flow_routes, duration, scheduling="odpm")
    network = NetworkEnergy()
    for node_id in evaluator.positions:
        network.add_node(node_id, evaluator.card)
    for node_id, ledger in base.nodes.items():
        target = network[node_id]
        target.data_tx = ledger.data_tx
        target.data_rx = ledger.data_rx
        target.transmit_time = ledger.transmit_time
        target.receive_time = ledger.receive_time
        target.charge_idle(ledger.idle_time + ledger.sleep_time)
    return network
