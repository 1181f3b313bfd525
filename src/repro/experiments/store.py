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

The entry format lives here and nowhere else: :func:`check_entry` is the
one integrity rule every reader applies, :func:`decode_entry` turns a
sound entry into what it holds, and the puts build every entry the same
way.  Backends, store merging and the campaign report move or read
entries only through these.

The store is **self-healing**: a lookup that finds an unsound entry —
bit rot, a torn write from a kill -9, a stray editor — *quarantines* it
(renamed to ``<key>.json.quarantine``, preserved for forensics) and
reports a miss, so the orchestrator transparently re-simulates the cell
instead of propagating corrupt results into figures.  ``repro cache
verify --repair`` applies the same treatment in bulk, and
:meth:`ResultStore.clean_tmp` reaps temp files abandoned by writers that
died between the write and the :func:`os.replace`.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple

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


def _route_set(body: Mapping) -> dict[int, tuple[int, ...]]:
    """A routes body (JSON object keys are strings) as ``{flow_id: path}``."""
    return {int(flow_id): tuple(path) for flow_id, path in body.items()}


#: Per entry kind: the field holding the digested body, and the decoder
#: that turns a sound body into a RunResult or a route set.
_BODIES = {
    "runs": ("result", RunResult.from_payload),
    "routes": ("routes", _route_set),
}


def check_entry(kind: str, key: str, entry: object) -> str:
    """Apply the store's integrity rule to one entry; returns its digest.

    An entry is **sound** when it is a dict, its stored ``key`` is its
    name, it has a body, and any recorded digest matches that body.
    Entries written before digests were recorded (*legacy*) have nothing
    to match and pass on the other three checks.  Returns the sha256 of
    the body (the recorded digest, when there is one); raises
    :class:`~repro.experiments.backends.StoreCorruption` naming the first
    check an unsound entry fails.
    """
    if not isinstance(entry, dict):
        raise StoreCorruption(kind, key, "unparseable JSON")
    if entry.get("key") != key:
        raise StoreCorruption(kind, key, "stored key does not match filename")
    body = entry.get(_BODIES[kind][0])
    if body is None:
        raise StoreCorruption(kind, key, "entry has no payload")
    digest = _digest(body)
    if entry.get("digest", digest) != digest:
        raise StoreCorruption(
            kind, key, "payload digest mismatch (corrupted on disk)"
        )
    return digest


class StoredEntry(NamedTuple):
    """A sound entry, decoded: all a reader outside the store sees of it."""

    #: A :class:`RunResult` (runs) or a ``{flow_id: path}`` route set.
    value: object
    #: The recorded payload digest; None on a legacy entry.
    digest: str | None
    #: The scenario fingerprint its writer recorded, if any.
    fingerprint: dict | None


def decode_entry(kind: str, entry: dict) -> StoredEntry | None:
    """Decode an entry that passed :func:`check_entry`.

    None when the body has another shape than this checkout decodes —
    e.g. written by a checkout with a different payload shape and an
    unbumped :data:`CACHE_FORMAT_VERSION`.
    """
    field, decode = _BODIES[kind]
    try:
        value = decode(entry[field])
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    fingerprint = entry.get("scenario")
    if not isinstance(fingerprint, dict):
        fingerprint = None
    return StoredEntry(value, entry.get("digest"), fingerprint)


def _new_entry(
    kind: str, key: str, body: dict, fingerprint: Mapping | None
) -> dict:
    """The entry every put writes: key, body, body digest, fingerprint."""
    entry = {"key": key, _BODIES[kind][0]: body, "digest": _digest(body)}
    if fingerprint is not None:
        entry["scenario"] = dict(fingerprint)
    return entry


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

    def _read(
        self, kind: str, key: str, need_digest: bool = False
    ) -> StoredEntry | None:
        """Look one entry up: decoded when sound, else None.

        An unsound entry (:func:`check_entry`: bit rot, a torn write, a
        stray editor), or one that records no digest when
        ``need_digest``, is quarantined here — a miss plus a quarantine —
        rather than flowing into figures.  A sound entry whose body does
        not decode (:func:`decode_entry`) reads as None too, but stays in
        place.
        """
        try:
            entry = self.backend.get(kind, key)
            if entry is None:
                return None
            check_entry(kind, key, entry)
            if need_digest and "digest" not in entry:
                raise StoreCorruption(kind, key, "no recorded digest")
        except StoreCorruption:
            self._quarantine(kind, key)
            return None
        return decode_entry(kind, entry)

    def _write(self, kind: str, key: str, payload: dict) -> None:
        self.backend.put(kind, key, payload)
        self.writes += 1

    def _counted(self, stored: StoredEntry | None):
        """A lookup's value, counted as a hit, or None counted as a miss."""
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        return stored.value

    # ------------------------------------------------------------------
    # Typed entries
    # ------------------------------------------------------------------
    def get_run(self, key: str) -> RunResult | None:
        """Return the cached :class:`RunResult` for ``key``, or None.

        Unsound entries are quarantined; entries that are sound but do
        not decode to a ``RunResult`` stay.  Both count as misses, so the
        cell is re-simulated instead of crashing the sweep.
        """
        return self._counted(self._read("runs", key))

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
        entry = _new_entry("runs", key, result.to_payload(), fingerprint)
        self._write("runs", key, entry)
        return entry["digest"]

    def get_run_entry(self, key: str) -> tuple[RunResult, str] | None:
        """Verified ``(result, digest)`` for ``key`` without hit/miss noise.

        The receipt-verification read of sweep dispatch: the parent
        re-reads what a unit claims to have written and compares
        the recorded digest against the receipt before marking the
        manifest cell done.  Verification and quarantine behave exactly
        like :meth:`get_run` — plus an entry without a recorded digest is
        set aside, as no receipt can match it — but the hit/miss counters
        stay untouched: the cell was already accounted for when it was
        partitioned as pending, and a verification read must not
        masquerade as a second cache lookup.  Units use the same read to
        skip seeds an earlier (crashed) attempt already persisted.
        """
        stored = self._read("runs", key, need_digest=True)
        if stored is None:
            return None
        return stored.value, stored.digest

    def get_routes(self, key: str) -> dict[int, tuple[int, ...]] | None:
        """Return a cached stabilized-route set, or None.

        Unsound and undecodable entries count as misses, mirroring
        :meth:`get_run`.
        """
        return self._counted(self._read("routes", key))

    def put_routes(
        self,
        key: str,
        routes: Mapping[int, tuple[int, ...]],
        fingerprint: Mapping | None = None,
    ) -> None:
        """Persist one stabilized-route set under ``key`` (atomic write)."""
        body = {
            str(flow_id): list(path)
            for flow_id, path in sorted(routes.items())
        }
        self._write("routes", key, _new_entry("routes", key, body, fingerprint))

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
        that each is sound (:func:`check_entry`) and, for runs, that its
        payload still decodes to a :class:`RunResult`.  This catches
        on-disk corruption and payload-shape rot — it does *not*
        re-simulate, so it cannot catch a simulator whose behaviour
        drifted (the pinned digests in ``tests/test_orchestration.py``
        guard that).  Entries predating the digest field count as
        ``legacy``.

        With ``repair``, every failing entry is quarantined
        (``<key>.json.quarantine``) so the next sweep re-simulates it —
        the bulk form of the lookups' self-healing.

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
                checked += 1
                try:
                    entry = self.backend.get(kind, key)
                    check_entry(kind, key, entry)
                    if kind == "runs" and decode_entry(kind, entry) is None:
                        raise StoreCorruption(
                            kind, key, "payload no longer decodes"
                        )
                except StoreCorruption as exc:
                    failures.append((key, str(exc)))
                    if repair and self._quarantine(kind, key):
                        quarantined += 1
                    continue
                ok += 1
                if "digest" not in entry:
                    legacy += 1
        return {
            "checked": checked,
            "ok": ok,
            "legacy": legacy,
            "quarantined": quarantined,
            "failures": failures,
        }

    def __len__(self) -> int:
        return self.backend.count()

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        return self.backend.clear()
