"""Decode a result store back into an aggregated campaign model.

The store holds one entry per ``(scenario, protocol, rate, seed)`` cell;
the paper's figures are drawn over ``(protocol, rate)`` aggregates.  This
module is the bridge: :func:`build_campaign` walks every stored run,
decodes it, groups it by the scenario fingerprint it was recorded under,
and folds seeds into the mean ± 95%-CI records
(:func:`~repro.metrics.collectors.aggregate_runs` and friends) that the
HTML renderer (:mod:`repro.report.html`) plots.

Everything here is deterministic for a fixed store: groups sort by
scenario name then fingerprint id, cells sort by (protocol, rate, seed)
— the store's own key order never leaks into the output — and the
campaign carries its own sha256 over the sorted (key, digest) pairs, so
two reports over byte-identical stores are byte-identical themselves
(the acceptance criterion the report tests pin).

The walk uses the store's maintenance path (``entries``), not the lookup
path, so building a report neither perturbs hit/miss counters nor
quarantines anything.  It reads entries only through the store's entry
format (:func:`~repro.experiments.store.check_entry`,
:func:`~repro.experiments.store.decode_entry`): an entry that breaks the
integrity rule is left out and counted as corrupt, a sound one that does
not decode as undecodable, and both counts surface in the provenance
section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.backends import StoreCorruption, canonical_digest
from repro.experiments.store import (
    CACHE_FORMAT_VERSION,
    StoredEntry,
    check_entry,
    decode_entry,
)
from repro.metrics.collectors import (
    AggregateResult,
    RunResult,
    aggregate_channel,
    aggregate_dynamics,
    aggregate_runs,
    aggregate_traffic,
)
from repro.metrics.stats import ConfidenceInterval, mean_ci

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.resilience import SweepManifest
    from repro.experiments.store import ResultStore


@dataclass(frozen=True)
class CampaignCell:
    """One decoded store entry: a run plus where it came from."""

    key: str
    digest: str | None
    protocol: str
    rate_kbps: float
    seed: int
    result: RunResult

    @property
    def mean_latency_s(self) -> float | None:
        """Mean end-to-end latency over delivered packets, if any.

        Derived from the raw flow counters (``latency_sum / received``)
        so CBR runs — whose payloads carry no ``traffic`` block — still
        contribute a latency figure.
        """
        received = sum(f.received for f in self.result.flows)
        if received == 0:
            return None
        latency = sum(f.latency_sum for f in self.result.flows)
        return latency / received


@dataclass
class CampaignGroup:
    """All cells recorded under one scenario fingerprint."""

    group_id: str
    fingerprint: dict | None
    cells: list[CampaignCell] = field(default_factory=list)

    @property
    def name(self) -> str:
        if self.fingerprint is None:
            return "(unrecorded scenario)"
        return str(self.fingerprint.get("name", "(unnamed)"))

    @property
    def protocols(self) -> list[str]:
        return sorted({cell.protocol for cell in self.cells})

    @property
    def rates(self) -> list[float]:
        return sorted({cell.rate_kbps for cell in self.cells})

    @property
    def seeds(self) -> list[int]:
        return sorted({cell.seed for cell in self.cells})

    def runs(self, protocol: str, rate_kbps: float) -> list[RunResult]:
        """Decoded runs of one (protocol, rate) point, ascending seeds."""
        return [
            cell.result
            for cell in sorted(self.cells, key=lambda c: c.seed)
            if cell.protocol == protocol and cell.rate_kbps == rate_kbps
        ]

    def aggregates(self) -> dict[tuple[str, float], AggregateResult]:
        """Seed-folded mean ± CI per (protocol, rate) point, sorted."""
        out: dict[tuple[str, float], AggregateResult] = {}
        for protocol in self.protocols:
            for rate in self.rates:
                runs = self.runs(protocol, rate)
                if runs:
                    out[(protocol, rate)] = aggregate_runs(runs)
        return out

    def latency_cis(self) -> dict[tuple[str, float], ConfidenceInterval]:
        """Mean-latency CI per (protocol, rate), derived from raw flows."""
        out: dict[tuple[str, float], ConfidenceInterval] = {}
        for protocol in self.protocols:
            for rate in self.rates:
                samples = []
                for cell in sorted(self.cells, key=lambda c: c.seed):
                    if cell.protocol != protocol or cell.rate_kbps != rate:
                        continue
                    latency = cell.mean_latency_s
                    if latency is not None:
                        samples.append(latency)
                if samples:
                    out[(protocol, rate)] = mean_ci(samples)
        return out

    def metric_blocks(
        self,
    ) -> dict[str, dict[tuple[str, float], dict[str, ConfidenceInterval]]]:
        """Optional dynamics/traffic/channel aggregates, when recorded.

        Returns only the blocks at least one run carries, each as
        ``(protocol, rate) -> {metric: CI}``, so an all-static all-CBR
        disc-channel campaign renders none of them — exactly mirroring
        the payload byte-identity rules.
        """
        folders = {
            "dynamics": aggregate_dynamics,
            "traffic": aggregate_traffic,
            "channel": aggregate_channel,
        }
        blocks: dict = {}
        for block, folder in folders.items():
            per_point: dict = {}
            for protocol in self.protocols:
                for rate in self.rates:
                    metrics = folder(self.runs(protocol, rate))
                    if metrics:
                        per_point[(protocol, rate)] = metrics
            if per_point:
                blocks[block] = per_point
        return blocks


@dataclass
class Campaign:
    """Everything the HTML renderer needs, already aggregated and sorted."""

    root: str
    backend: str
    cache_format_version: int
    groups: list[CampaignGroup]
    routes_count: int
    quarantined: dict[str, int]
    corrupt_entries: int
    undecodable_entries: int
    #: sha256 over the sorted (key, payload-digest) pairs of every decoded
    #: run — the identity of the campaign's *content*, independent of
    #: backend, machine and directory layout.
    campaign_digest: str
    manifest: dict | None = None

    @property
    def total_runs(self) -> int:
        return sum(len(group.cells) for group in self.groups)


def _cell(key: str, stored: StoredEntry) -> CampaignCell:
    """One decoded run with flows → a CampaignCell.

    The offered rate is not a payload field (the payload predates the
    report subsystem and stays byte-pinned), but every flow spec carries
    ``rate_bps``; the grid axes used kbps, so the first flow's rate
    recovers the cell's rate coordinate exactly.
    """
    result = stored.value
    return CampaignCell(
        key=key,
        digest=stored.digest,
        protocol=result.protocol,
        rate_kbps=result.flows[0].spec.rate_bps / 1000.0,
        seed=result.seed,
        result=result,
    )


def build_campaign(
    store: "ResultStore", manifest: "SweepManifest | None" = None
) -> Campaign:
    """Aggregate every stored run into a renderable :class:`Campaign`.

    ``manifest`` optionally attaches campaign-state provenance (cell
    counts per state, the manifest's scenario name) — the report then
    shows whether the sweep it renders actually completed.
    """
    by_group: dict[str, CampaignGroup] = {}
    corrupt = 0
    undecodable = 0
    digest_pairs: list[tuple[str, str]] = []
    for key, entry in store.entries("runs"):
        try:
            check_entry("runs", key, entry)
        except StoreCorruption:
            corrupt += 1
            continue
        stored = decode_entry("runs", entry)
        if stored is None or not stored.value.flows:
            undecodable += 1
            continue
        cell = _cell(key, stored)
        fingerprint = stored.fingerprint
        if fingerprint is not None:
            group_id = canonical_digest(fingerprint)[:12]
        else:
            group_id = "(unrecorded)"
        group = by_group.setdefault(
            group_id, CampaignGroup(group_id=group_id, fingerprint=fingerprint)
        )
        group.cells.append(cell)
        digest_pairs.append((key, cell.digest or ""))

    groups = sorted(by_group.values(), key=lambda g: (g.name, g.group_id))
    for group in groups:
        group.cells.sort(key=lambda c: (c.protocol, c.rate_kbps, c.seed))

    manifest_info = None
    if manifest is not None:
        manifest_info = {
            "path": str(manifest.path),
            "scenario": (manifest.fingerprint or {}).get("name"),
            "counts": manifest.counts(),
        }
    return Campaign(
        root=str(store.root),
        backend=store.backend.describe(),
        cache_format_version=CACHE_FORMAT_VERSION,
        groups=groups,
        routes_count=len(store.keys("routes")),
        quarantined={
            kind: len(store.backend.quarantined(kind)) for kind in store.KINDS
        },
        corrupt_entries=corrupt,
        undecodable_entries=undecodable,
        campaign_digest=canonical_digest(sorted(digest_pairs)),
        manifest=manifest_info,
    )
