"""Persistent, content-addressed result store for experiment runs.

Simulating the paper's grids is by far the most expensive thing this
repository does, and the grid is perfectly re-runnable: a
``(scenario, protocol, rate, seed)`` cell is a pure function of its
configuration.  The store exploits that by caching every completed
:class:`~repro.metrics.collectors.RunResult` on disk under a **stable
content hash** of the cell configuration, so that regenerating a figure, a
table or a benchmark re-simulates only the cells it has never seen.

Keys are SHA-256 hexdigests of a canonical JSON *fingerprint* — every
structural parameter that influences the simulation outcome (scenario
geometry, flow workload, radio-card physics, duration, protocol, rate,
seed) and nothing that does not (the scenario's ``runs`` count or the rate
grid surrounding a cell).  The fingerprint is computed from explicit field
values, never from :func:`hash`, so keys are identical across processes and
interpreter invocations — a property the parallel orchestrator
(:mod:`repro.experiments.parallel`) relies on when several workers share
one cache directory.

Physical storage is pluggable (:mod:`repro.experiments.backends`): the
default :class:`~repro.experiments.backends.LocalJsonBackend` keeps the
historical one-JSON-file-per-entry layout byte-for-byte (atomic temp file
+ :func:`os.replace` writes), while the ``sqlite`` backend packs a whole
campaign into one WAL-journaled file for cross-machine transport.  Keys,
payload digests and therefore the determinism contract are computed from
entry *content*, never from storage details, so every backend is
interchangeable under the pinned-digest tests and stores of different
backends merge cleanly (:func:`~repro.experiments.backends.merge_stores`).
Two kinds of entries exist:

* ``runs/`` — serialized :class:`RunResult` payloads, one per grid cell.
* ``routes/`` — stabilized route sets from the §5.2.3 frozen-route probe
  simulations (the expensive half of Figs. 13–16).

Each entry additionally records the sha256 of its own payload (so
``repro cache verify`` can detect on-disk corruption without
re-simulating) and, when the writer supplied one, the scenario
fingerprint it belongs to (so ``repro cache ls`` can count entries per
scenario).  Entries written before these fields existed decode unchanged.

The store is **self-healing**: every read re-verifies the recorded
payload digest, and an entry that fails — bit rot, a torn write from a
kill -9, a stray editor — is *quarantined* (renamed to
``<key>.json.quarantine``, preserved for forensics) and reported as a
miss, so the orchestrator transparently re-simulates the cell instead of
propagating corrupt results into figures.  ``repro cache verify
--repair`` applies the same treatment in bulk, and :meth:`ResultStore.
clean_tmp` reaps temp files abandoned by writers that died between the
write and the :func:`os.replace`.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.experiments.backends import (
    StoreBackend,
    StoreCorruption,
    canonical_digest as _digest,
    make_backend,
)
from repro.metrics.collectors import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.experiments.scenarios import Scenario

#: Bump when the simulator's observable behaviour changes so that stale
#: cached results are never mistaken for current ones.  Version 2: the
#: dynamic-topology subsystem (mobility/churn enter the fingerprint and
#: dynamic runs carry a ``dynamics`` payload section).  Version 3: the
#: traffic-model subsystem (traffic model / endpoint pattern / flow
#: dynamics enter the fingerprint and non-CBR runs carry a ``traffic``
#: payload section).
CACHE_FORMAT_VERSION = 3


def scenario_fingerprint(scenario: "Scenario") -> dict:
    """Structural parameters of ``scenario`` that determine a run's outcome.

    Includes everything the placement, flow generation and
    :class:`~repro.sim.network.NetworkConfig` assembly read — the scenario
    ``name`` participates because it seeds the placement/flow RNG streams —
    and excludes presentation-only attributes (``runs``, ``rates_kbps``,
    ``protocols``) so one cached cell serves every sweep that contains it.
    """
    fingerprint = {
        "version": CACHE_FORMAT_VERSION,
        "name": scenario.name,
        "node_count": scenario.node_count,
        "field_size": scenario.field_size,
        "flow_count": scenario.flow_count,
        "duration": scenario.duration,
        "grid": scenario.grid,
        "start_window": list(scenario.start_window),
        "card": asdict(scenario.card),
        # Dynamic topology changes a run's outcome exactly like geometry
        # does, so the specs (or their absence) are part of the key.
        "mobility": scenario.mobility.fingerprint()
        if scenario.mobility is not None
        else None,
        "churn": scenario.churn.fingerprint()
        if scenario.churn is not None
        else None,
        # The workload axis determines outcomes exactly like topology does:
        # what each flow sends (traffic model), where flows go (endpoint
        # pattern) and when they exist (flow dynamics).
        "traffic": scenario.traffic.fingerprint(),
        "pattern": scenario.pattern,
        "flow_dynamics": scenario.flow_dynamics.fingerprint()
        if scenario.flow_dynamics is not None
        else None,
    }
    # A pinned placement changes every seed's topology, so it must key the
    # cell; emitted only when set so pre-existing cache keys stay valid.
    if scenario.placement_seed is not None:
        fingerprint["placement_seed"] = scenario.placement_seed
    # The channel model changes reception outcomes exactly like geometry
    # does, but the disc default predates the subsystem: emitted only when
    # non-default so pre-existing cache keys (and CACHE_FORMAT_VERSION)
    # stay valid.
    if not scenario.channel.is_default:
        fingerprint["channel"] = scenario.channel.fingerprint()
    return fingerprint


def cell_key_from_fingerprint(
    fingerprint: Mapping, protocol: str, rate_kbps: float, seed: int
) -> str:
    """:func:`cell_key` over an already-computed scenario fingerprint.

    Dispatch units receive the fingerprint once via their context
    (:mod:`repro.experiments.parallel`) and key every cell from it without
    re-deriving the scenario's structural dict per seed.  Keys are
    identical to :func:`cell_key` by construction — both digest the same
    canonical JSON.
    """
    return _digest(
        {
            "kind": "run",
            "scenario": dict(fingerprint),
            "protocol": protocol,
            "rate_kbps": float(rate_kbps),
            "seed": int(seed),
        }
    )


def cell_key(
    scenario: "Scenario", protocol: str, rate_kbps: float, seed: int
) -> str:
    """Stable cache key for one ``(scenario, protocol, rate, seed)`` cell.

    The key is a SHA-256 hexdigest of canonical JSON, so it is identical
    across processes, interpreter restarts and machines (unlike
    :func:`hash`, which is salted per process).
    """
    return cell_key_from_fingerprint(
        scenario_fingerprint(scenario), protocol, rate_kbps, seed
    )


def routes_key(
    scenario: "Scenario", protocol: str, seed: int, probe_rate_kbps: float
) -> str:
    """Stable cache key for a §5.2.3 stabilized-route set."""
    return _digest(
        {
            "kind": "routes",
            "scenario": scenario_fingerprint(scenario),
            "protocol": protocol,
            "probe_rate_kbps": float(probe_rate_kbps),
            "seed": int(seed),
        }
    )


class ResultStore:
    """Disk-backed cache of completed runs, shared by all orchestrators.

    Parameters
    ----------
    root:
        Cache directory; created (with parents) if missing.  Safe to share
        between concurrent processes — writes are atomic renames.
    backend:
        Physical layout: a backend name (``"json"`` / ``"sqlite"``), a
        ready :class:`~repro.experiments.backends.StoreBackend` instance,
        or ``None`` to auto-detect what ``root`` already uses (sqlite if
        ``store.sqlite`` exists, else the historical local-JSON layout).

    Attributes
    ----------
    hits / misses / writes / quarantined:
        Monotonic counters for this store instance (not persisted), used by
        progress reporting and the cache-behaviour tests.  ``quarantined``
        counts entries set aside by read-time verification or
        ``verify --repair``.
    """

    #: Temp files older than this are considered abandoned by a dead
    #: writer (a live ``_write`` holds its temp file for milliseconds).
    STALE_TMP_AGE_S = 3600.0

    def __init__(
        self,
        root: str | os.PathLike,
        backend: str | StoreBackend | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if isinstance(backend, StoreBackend):
            self.backend = backend
        else:
            self.backend = make_backend(self.root, backend)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Generic entry dicts (policy here, physical layout in the backend)
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        """On-disk location of one entry (local-JSON backend only).

        Layout introspection for tests and forensics; backends without a
        per-entry file (sqlite) have no meaningful answer and raise.
        """
        return self.backend.path(kind, key)  # type: ignore[attr-defined]

    def _quarantine(self, kind: str, key: str) -> bool:
        """Set a corrupt entry aside (kept for forensics, miss thereafter).

        Quarantine makes the key a cache miss — the cell transparently
        re-simulates and re-writes a sound entry — while preserving the
        corrupt bytes (a ``<key>.json.quarantine`` rename under the JSON
        backend, a flag flip under sqlite).
        """
        if not self.backend.quarantine(kind, key):
            return False  # pragma: no cover - raced with another healer
        self.quarantined += 1
        return True

    def _read(self, kind: str, key: str) -> dict | None:
        """Read one entry, verifying it; corrupt entries are quarantined.

        Every read re-checks the recorded payload digest (sha256 of the
        canonical payload JSON, stamped by ``_write``-era puts), so bit
        rot or torn writes surface *here* — as a miss plus a quarantine —
        rather than as corrupt data flowing into figures.  Entries
        predating the digest field pass through unverified (their shape
        is still checked by the typed getters).
        """
        try:
            payload = self.backend.get(kind, key)
        except StoreCorruption:
            # Stored bytes exist but are not an entry: torn write, bit rot.
            self._quarantine(kind, key)
            self.misses += 1
            return None
        if payload is None:
            self.misses += 1
            return None
        if "digest" in payload:
            body = payload.get("result" if kind == "runs" else "routes")
            if body is None or _digest(body) != payload["digest"]:
                self._quarantine(kind, key)
                self.misses += 1
                return None
        self.hits += 1
        return payload

    def _write(self, kind: str, key: str, payload: dict) -> None:
        self.backend.put(kind, key, payload)
        self.writes += 1

    # ------------------------------------------------------------------
    # Typed entries
    # ------------------------------------------------------------------
    def _demote_hit(self) -> None:
        """Reclassify the last hit as a miss (entry decoded but malformed)."""
        self.hits -= 1
        self.misses += 1

    def get_run(self, key: str) -> RunResult | None:
        """Return the cached :class:`RunResult` for ``key``, or None.

        Entries that parse as JSON but do not decode to a ``RunResult``
        (e.g. written by a checkout with a different payload shape and an
        unbumped :data:`CACHE_FORMAT_VERSION`) count as misses, so the cell
        is re-simulated instead of crashing the sweep.
        """
        payload = self._read("runs", key)
        if payload is None:
            return None
        try:
            return RunResult.from_payload(payload["result"])
        except (KeyError, TypeError, ValueError):
            self._demote_hit()
            return None

    def put_run(
        self,
        key: str,
        result: RunResult,
        fingerprint: Mapping | None = None,
    ) -> str:
        """Persist one completed run under ``key`` (atomic write).

        ``fingerprint`` optionally records the scenario fingerprint
        (:func:`scenario_fingerprint`) for ``repro cache ls`` grouping;
        the payload digest for ``repro cache verify`` is always recorded.
        Returns that payload digest — dispatch units hand it back to the
        orchestrating parent as their ``(key, digest)`` receipt.
        """
        payload = result.to_payload()
        digest = _digest(payload)
        entry = {"key": key, "result": payload, "digest": digest}
        if fingerprint is not None:
            entry["scenario"] = dict(fingerprint)
        self._write("runs", key, entry)
        return digest

    def get_run_entry(self, key: str) -> tuple[RunResult, str] | None:
        """Verified ``(result, digest)`` for ``key`` without hit/miss noise.

        The receipt-verification read of sweep dispatch: the parent
        re-reads what a unit claims to have written and compares
        the recorded digest against the receipt before marking the
        manifest cell done.  Digest verification and quarantine behave
        exactly like :meth:`get_run` (a corrupt entry is set aside and
        reported absent), but the hit/miss counters stay untouched —
        the cell was already accounted for when it was partitioned as
        pending, and a verification read must not masquerade as a second
        cache lookup.  Units use the same read to skip seeds an earlier
        (crashed) attempt already persisted.
        """
        try:
            entry = self.backend.get("runs", key)
        except StoreCorruption:
            self._quarantine("runs", key)
            return None
        if entry is None:
            return None
        body = entry.get("result")
        digest = entry.get("digest")
        if body is None or not isinstance(digest, str) or _digest(body) != digest:
            self._quarantine("runs", key)
            return None
        try:
            return RunResult.from_payload(body), digest
        except (KeyError, TypeError, ValueError):
            return None

    def get_routes(self, key: str) -> dict[int, tuple[int, ...]] | None:
        """Return a cached stabilized-route set, or None.

        Malformed-but-parseable entries count as misses, mirroring
        :meth:`get_run`.
        """
        payload = self._read("routes", key)
        if payload is None:
            return None
        try:
            return {
                int(flow_id): tuple(path)
                for flow_id, path in payload["routes"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError):
            self._demote_hit()
            return None

    def put_routes(
        self,
        key: str,
        routes: Mapping[int, tuple[int, ...]],
        fingerprint: Mapping | None = None,
    ) -> None:
        """Persist one stabilized-route set under ``key`` (atomic write)."""
        payload = {
            str(flow_id): list(path)
            for flow_id, path in sorted(routes.items())
        }
        entry = {"key": key, "routes": payload, "digest": _digest(payload)}
        if fingerprint is not None:
            entry["scenario"] = dict(fingerprint)
        self._write("routes", key, entry)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    KINDS = ("runs", "routes")

    def clean_tmp(self, older_than_s: float | None = None) -> int:
        """Remove temp files abandoned by writers that died mid-write.

        ``_write`` stages each entry as ``.<key>.<pid>.tmp`` before the
        atomic :func:`os.replace`; a writer killed between the two leaves
        the temp file behind forever (it is never rescanned or reused,
        just directory litter that grows with every crash).  Sweep start
        and ``repro cache verify`` call this.  Only files older than
        ``older_than_s`` (default :data:`STALE_TMP_AGE_S`) are removed,
        so a concurrent writer's in-flight temp file is never reaped.
        Returns how many files were deleted.
        """
        cutoff = (
            self.STALE_TMP_AGE_S if older_than_s is None else older_than_s
        )
        return self.backend.clean_tmp(cutoff)

    def keys(self, kind: str) -> list[str]:
        """Sorted entry keys of one kind (``runs`` or ``routes``)."""
        return self.backend.keys(kind)

    def entries(self, kind: str):
        """Yield ``(key, entry_dict | None)`` per stored entry, sorted.

        ``None`` marks an unparseable entry (still counted, so maintenance
        commands surface corruption instead of skipping it).  Does not
        touch the hit/miss counters — this is the maintenance path, not
        the lookup path.
        """
        return self.backend.entries(kind)

    def summary(self) -> dict:
        """Entry counts per kind and per recorded scenario fingerprint.

        The engine behind ``repro cache ls``.  Returns, per kind, the
        total *live* entry count, the number of quarantined entries set
        aside under that kind (reported separately — a quarantined entry
        is a cache miss, not inventory), and a ``scenarios`` mapping
        keyed by the fingerprint's own sha256 (first 12 hex chars) with
        ``name`` / ``node_count`` / ``version`` / ``count`` fields.
        Entries written before fingerprints were recorded (or whose
        writer passed none) group under the ``"(unrecorded)"`` key;
        unparseable entries under ``"(corrupt)"``.
        """
        report: dict = {}
        for kind in self.KINDS:
            scenarios: dict[str, dict] = {}
            total = 0
            for _key, entry in self.entries(kind):
                total += 1
                if entry is None:
                    group = scenarios.setdefault(
                        "(corrupt)", {"count": 0}
                    )
                elif not isinstance(entry.get("scenario"), dict):
                    group = scenarios.setdefault(
                        "(unrecorded)", {"count": 0}
                    )
                else:
                    fingerprint = entry["scenario"]
                    group = scenarios.setdefault(
                        _digest(fingerprint)[:12],
                        {
                            "count": 0,
                            "name": fingerprint.get("name"),
                            "node_count": fingerprint.get("node_count"),
                            "version": fingerprint.get("version"),
                        },
                    )
                group["count"] += 1
            report[kind] = {
                "total": total,
                "quarantined": len(self.backend.quarantined(kind)),
                "scenarios": scenarios,
            }
        return report

    def verify_sample(self, sample: int = 16, repair: bool = False) -> dict:
        """Integrity-check up to ``sample`` entries per kind.

        The engine behind ``repro cache verify``: re-reads a
        deterministic, evenly-spaced sample of stored entries and checks
        that (a) the file parses, (b) the stored key matches the filename,
        (c) the recorded payload digest matches a recomputation, and
        (d) run payloads still decode to a :class:`RunResult`.  This
        catches on-disk corruption and payload-shape rot — it does *not*
        re-simulate, so it cannot catch a simulator whose behaviour
        drifted (the pinned digests in ``tests/test_orchestration.py``
        guard that).  Entries predating the digest field count as
        ``legacy`` and get checks (a), (b) and (d) only.

        With ``repair``, every failing entry is quarantined
        (``<key>.json.quarantine``) so the next sweep re-simulates it —
        the bulk form of the read-time self-healing in ``_read``.

        Returns ``{"checked", "ok", "legacy", "quarantined",
        "failures": [(key, why)]}``.
        """
        if sample < 1:
            raise ValueError(
                "sample must be >= 1 (verifying zero entries would report "
                "success over an arbitrarily corrupt store)"
            )
        checked = ok = legacy = quarantined = 0
        failures: list[tuple[str, str]] = []
        # Container-level health first: a corrupt sqlite file (or any
        # future backend with structure of its own) fails verification
        # even when the sampled entries happen to read back fine.  If the
        # container itself is damaged, entry sampling would crash or lie,
        # so the verdict stops at the storage failure.
        storage_problems = self.backend.verify()
        for problem in storage_problems:
            failures.append(("(storage)", problem))
        if storage_problems:
            return {
                "checked": 0,
                "ok": 0,
                "legacy": 0,
                "quarantined": 0,
                "failures": failures,
            }
        for kind in self.KINDS:
            keys = self.keys(kind)
            if not keys:
                continue
            if len(keys) > sample:
                # Deterministic, evenly spaced over the sorted key space —
                # repeat invocations re-check the same entries.
                step = (len(keys) - 1) / (sample - 1) if sample > 1 else 0
                picked = sorted({keys[round(i * step)] for i in range(sample)})
            else:
                picked = keys
            for key in picked:
                try:
                    entry = self.backend.get(kind, key)
                except StoreCorruption:
                    entry = None
                checked += 1
                why = self._verify_entry(kind, key, entry)
                if why is None:
                    if entry is not None and "digest" not in entry:
                        legacy += 1
                    ok += 1
                else:
                    failures.append((key, "%s/%s: %s" % (kind, key[:12], why)))
                    if repair and self._quarantine(kind, key):
                        quarantined += 1
        return {
            "checked": checked,
            "ok": ok,
            "legacy": legacy,
            "quarantined": quarantined,
            "failures": failures,
        }

    @staticmethod
    def _verify_entry(kind: str, key: str, entry: dict | None) -> str | None:
        """One entry's integrity verdict: None if sound, else the defect."""
        if entry is None:
            return "unparseable JSON"
        if entry.get("key") != key:
            return "stored key does not match filename"
        payload = entry.get("result" if kind == "runs" else "routes")
        if payload is None:
            return "entry has no payload"
        if "digest" in entry and _digest(payload) != entry["digest"]:
            return "payload digest mismatch (corrupted on disk)"
        if kind == "runs":
            try:
                RunResult.from_payload(payload)
            except (KeyError, TypeError, ValueError) as exc:
                return "payload no longer decodes: %s" % exc
        return None

    def __len__(self) -> int:
        return self.backend.count()

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        return self.backend.clear()
