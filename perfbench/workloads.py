"""The benchmark's four workloads, built from public presets and ``Scenario``.

Every workload is a closed loop of *units*; a run repeats units until its
time is up.  A field unit is one round of the workload's cell mix (one
cell per (preset, protocol)), run one cell after another in this process,
one ``run_grid(..., jobs=1)`` call per cell, with no store.  A campaign
unit is one pooled sweep into a fresh ``json`` store with a
``SweepManifest``, followed by a cached re-sweep of the same grid and the
HTML report over the populated store.

All inputs derive from the workload seed: cell ``j`` of field unit ``i``
of seed ``s`` uses cell seed ``1000 * s + n * i + j + 1``, ``n`` being the
unit's cell count, so every field cell of a run draws its own placement
and a run's work varies less from seed to seed; campaign unit ``i`` draws
its fixed placement from placement seed ``1000 * s + i + 1`` and runs cell
seeds ``2 * p`` and ``2 * p + 1`` of that placement seed ``p``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import (
    FaultPolicy,
    GridCell,
    ProgressReporter,
    ResultStore,
    Scenario,
    SweepFailureReport,
    SweepManifest,
    bursty_small,
    cell_key,
    grid_cells,
    mobile_small,
    run_grid,
    small_network,
)
from repro.experiments.backends import canonical_digest
from repro.experiments.scenarios import lossy_small
from repro.report.campaign import build_campaign
from repro.report.html import render_html

#: Figs. 8-9 reactive line-up (the field protocols minus DSDVH-ODPM).
REACTIVE_PROTOCOLS = (
    "TITAN-PC",
    "DSR-ODPM-PC",
    "DSRH-ODPM(norate)",
    "DSRH-ODPM(rate)",
    "DSR-ODPM",
    "DSR-Active",
)
PROACTIVE_PROTOCOLS = ("DSDVH-ODPM", "DSDV-ODPM", "DSDVH-ODPM(0.6,1.2)-Span")
DYNAMIC_PROTOCOLS = ("DSR-ODPM", "TITAN-PC")

#: Campaign shape: several hundred nodes at a sparse density where a
#: connected placement takes a few draws (about 1.7 on average, never
#: more than a handful), a horizon of a few simulated seconds (every
#: flow starts later, so a cell fires only tens of events) and many
#: (protocol, rate) dispatch units of two seeds each.
CAMPAIGN_NODES = 500
CAMPAIGN_FIELD_M = 3300.0
CAMPAIGN_RATES_KBPS = tuple(2.0 + 0.5 * step for step in range(8))
CAMPAIGN_PROTOCOLS = ("DSR-ODPM", "TITAN-PC")
CAMPAIGN_DURATION_S = 2.0

#: Failures are collected per cell instead of aborting the unit, so
#: ``failed`` counts exactly the cells that raised.
CONTINUE = FaultPolicy(on_error="continue")


def cell_id(scenario: Scenario, cell: GridCell) -> str:
    return "%s/p%s|%s|%g|%d" % (
        scenario.name, scenario.placement_seed, cell.protocol, cell.rate_kbps,
        cell.seed,
    )


def digest(result) -> str:
    """The pinned-payload digest the store records for ``result``."""
    return canonical_digest(result.to_payload())


def check_result(scenario: Scenario, cell: GridCell, result) -> list[str]:
    """Invariants every finished cell must satisfy, whatever its seed."""
    problems = []
    if (result.protocol, result.seed) != (cell.protocol, cell.seed):
        problems.append("result is for %s seed %d" % (result.protocol, result.seed))
    if result.duration != scenario.duration:
        problems.append("duration %r" % result.duration)
    if result.events_processed <= 0:
        problems.append("no events")
    if result.packets_received > result.packets_sent:
        problems.append("more packets received than sent")
    for key, value in result.energy_summary.items():
        if not math.isfinite(value) or value < 0:
            problems.append("energy %s = %r" % (key, value))
    if result.e_network <= 0:
        problems.append("no energy spent")
    if result.warnings is not None:
        problems.append("warnings %r" % (result.warnings,))
    return problems


@dataclass
class UnitOutcome:
    """What one unit did: its cells in order, their results, its timings."""

    cells: list[tuple[Scenario, GridCell]]
    results: dict[str, object]
    timed_s: float
    #: Per-cell problems found by the unit itself (campaign cross-checks).
    problems: dict[str, list[str]] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def paused(tracer):
    """Keep the benchmark's own checks out of the trace."""
    if tracer is None or not tracer.active:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def _call(tracer, layer: str, name: str, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(layer, name, fn, *args, **kwargs)


class FieldWorkload:
    """Serial rounds of one cell per (preset, protocol), no store."""

    def __init__(self, groups) -> None:
        self.groups = groups  # [(smoke scenario, protocols)]

    def unit(self, seed: int, index: int) -> list[tuple[Scenario, list[GridCell]]]:
        size = sum(len(protocols) for _, protocols in self.groups)
        cell_seeds = itertools.count(1000 * seed + size * index + 1)
        return [
            (
                scenario,
                [
                    GridCell(protocol, max(scenario.rates_kbps), next(cell_seeds))
                    for protocol in protocols
                ],
            )
            for scenario, protocols in self.groups
        ]

    def run_unit(
        self, seed: int, index: int, workdir: Path, tracer=None, between=None
    ) -> UnitOutcome:
        """Run the unit's cells one ``run_grid`` call each; ``between(s)``,
        if given, runs untimed after each call that took ``s`` seconds."""
        cells, results, timed = [], {}, 0.0
        for scenario, group in self.unit(seed, index):
            for cell in group:
                start = time.perf_counter()
                done = _call(
                    tracer, "dispatch.sweep", "run_grid", run_grid,
                    scenario, [cell], jobs=1, policy=CONTINUE,
                    failures=SweepFailureReport(),
                )
                elapsed = time.perf_counter() - start
                timed += elapsed
                if between is not None:
                    between(elapsed)
                cells.append((scenario, cell))
                results[cell_id(scenario, cell)] = done.get(cell)
        return UnitOutcome(cells, results, timed)


class CampaignWorkload:
    """Pooled cold sweep, cached re-sweep and report, per fresh store."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def scenario(self, seed: int, index: int) -> Scenario:
        return Scenario(
            name="perfbench-campaign",
            node_count=CAMPAIGN_NODES,
            field_size=CAMPAIGN_FIELD_M,
            flow_count=10,
            rates_kbps=CAMPAIGN_RATES_KBPS,
            duration=CAMPAIGN_DURATION_S,
            runs=2,
            protocols=CAMPAIGN_PROTOCOLS,
        ).with_fixed_placement(1000 * seed + index + 1)

    def unit(self, seed: int, index: int) -> list[tuple[Scenario, list[GridCell]]]:
        scenario = self.scenario(seed, index)
        base = 2 * scenario.placement_seed
        return [(scenario, grid_cells(scenario, seeds=(base, base + 1)))]

    def run_unit(
        self, seed: int, index: int, workdir: Path, tracer=None, between=None
    ) -> UnitOutcome:
        """Cold pass (timed), cached re-sweep and report; ``between(s)``,
        if given, runs untimed after the cold pass that took ``s`` seconds."""
        [(scenario, group)] = self.unit(seed, index)
        root = workdir / ("campaign-%d" % index)
        shutil.rmtree(root, ignore_errors=True)
        store = ResultStore(root / "store", backend="json")
        manifest = SweepManifest(root / "manifest.json")
        reporter = ProgressReporter(len(group), enabled=False)
        failures = SweepFailureReport()
        cpu = time.process_time()
        start = time.perf_counter()
        cold = _call(
            tracer, "dispatch.sweep", "run_grid", run_grid,
            scenario, group, jobs=self.jobs, store=store, progress=reporter,
            policy=CONTINUE, manifest=manifest, failures=failures,
        )
        cold_s = time.perf_counter() - start
        parent_cpu_s = time.process_time() - cpu
        if between is not None:
            between(cold_s)
        stored_bytes = sum(
            path.stat().st_size for path in (root / "store").rglob("*") if path.is_file()
        )

        cached_store = ResultStore(root / "store", backend="json")
        start = time.perf_counter()
        cached = _call(
            tracer, "dispatch.sweep", "run_grid", run_grid,
            scenario, group, jobs=self.jobs, store=cached_store,
            policy=CONTINUE, failures=SweepFailureReport(),
        )
        cached_s = time.perf_counter() - start

        start = time.perf_counter()
        campaign = _call(
            tracer, "report.decode", "build_campaign", build_campaign,
            cached_store, manifest=manifest,
        )
        html = _call(tracer, "report.render", "render_html", render_html, campaign)
        report_s = time.perf_counter() - start

        with paused(tracer):
            reported = {
                entry.key: entry.digest
                for report_group in campaign.groups
                for entry in report_group.cells
            }
            cells, results, problems = [], {}, {}
            for cell in group:
                ident = cell_id(scenario, cell)
                cells.append((scenario, cell))
                result = results[ident] = cold.get(cell)
                if result is None:
                    continue
                expected = digest(result)
                found = []
                again = cached.get(cell)
                if again is None or digest(again) != expected:
                    found.append("cached re-sweep differs from the cold pass")
                key = cell_key(scenario, cell.protocol, cell.rate_kbps, cell.seed)
                if reported.get(key) != expected:
                    found.append("report omits the cell or shows another digest")
                if found:
                    problems[ident] = found
        if cached_store.writes:
            problems["cached re-sweep"] = [
                "simulated %d cell(s) instead of serving them" % cached_store.writes
            ]
        outcome = UnitOutcome(
            cells,
            results,
            cold_s,
            problems,
            {
                "cached_s": cached_s,
                "report_s": report_s,
                "parent_cpu_s": parent_cpu_s,
                "utilization": reporter.utilization or 0.0,
                "store_bytes": stored_bytes,
                "quarantined": store.quarantined + cached_store.quarantined,
                "report_bytes": len(html.encode("utf-8")),
            },
        )
        shutil.rmtree(root, ignore_errors=True)
        return outcome


def campaign_jobs() -> int:
    """Pool size: ``nproc``, at least 2 so the pooled path always engages,
    at most 4 so the benchmark stays small on large hosts."""
    return min(4, max(2, len(os.sched_getaffinity(0))))


def build(name: str) -> FieldWorkload | CampaignWorkload:
    """Construct workload ``name`` from the public presets."""
    if name == "reactive-field":
        return FieldWorkload([(small_network("smoke"), REACTIVE_PROTOCOLS)])
    if name == "proactive-field":
        return FieldWorkload([(small_network("smoke"), PROACTIVE_PROTOCOLS)])
    if name == "dynamic-field":
        return FieldWorkload(
            [
                (preset("smoke"), DYNAMIC_PROTOCOLS)
                for preset in (mobile_small, lossy_small, bursty_small)
            ],
        )
    if name == "campaign":
        return CampaignWorkload(campaign_jobs())
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("reactive-field", "proactive-field", "dynamic-field", "campaign")
