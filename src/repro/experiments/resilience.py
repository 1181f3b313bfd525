"""Resilience layer for sweep campaigns: fault policy, checkpoints, signals.

The paper's evaluation is a large grid campaign (protocol x rate x seed),
and long campaigns meet real-world failure: a worker OOM-killed mid-batch
(:class:`~concurrent.futures.process.BrokenProcessPool`), a cell wedged on
a pathological configuration, an operator's Ctrl-C halfway through an
overnight sweep, or a cache entry rotted on disk.  This module holds the
pieces that let one machine fail halfway and finish anyway — a
prerequisite for the ROADMAP's distributed sweeps, where interruption is
the common case, not the exception:

* :class:`FaultPolicy` — how the dispatcher reacts to failure: retry
  budget, exponential backoff with **deterministic** jitter (derived from
  the cell key, never from ``random`` or the clock, so nothing about a
  retry leaks into results), per-cell timeout, and fail-fast vs
  collect-and-continue.
* :class:`CellFailure` / :class:`SweepFailureReport` — what ``continue``
  mode collects instead of aborting sibling cells: one record per failed
  cell with its cause, attempt count, and (when it crossed a process
  boundary) the original traceback text.
* :class:`SweepManifest` — a checkpoint file next to the cache dir:
  scenario fingerprint plus per-cell done/failed/pending state, updated
  by atomic :func:`os.replace` as cells complete, so ``repro sweep
  --resume MANIFEST`` re-dispatches only unfinished work.
* :class:`InterruptGuard` / :class:`SweepInterrupted` — SIGINT/SIGTERM
  become "drain in-flight cells, flush the manifest, exit 130" instead of
  a traceback; a second signal aborts immediately.
* :func:`maybe_inject_fault` — deterministic fault injection for tests
  and the CI resilience smoke (``REPRO_FAULT_INJECT``): crash, hang or
  fail specific cells on their first execution(s) so recovery paths are
  exercised against *real* worker deaths, not mocks.

The determinism contract survives all of it: a sweep that crashed,
retried, was interrupted and resumed produces byte-identical
``RunResult`` payloads to an undisturbed serial run — pinned as
serial == parallel == cached == interrupted-then-resumed ==
sharded-then-merged, every leg equal to per-seed ``run_single``, in
``tests/test_resilience.py``, ``tests/test_backends.py`` and
``tests/test_warm_sweep.py``.  :meth:`SweepManifest.shard` /
:meth:`SweepManifest.merge` split a campaign across machines and fold
the checkpoints back together; the results themselves travel through
:func:`repro.experiments.backends.merge_stores`.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - layering: parallel imports us
    from repro.experiments.parallel import GridCell
    from repro.experiments.scenarios import Scenario

#: Process exit code for an interrupted sweep (the shell's 128 + SIGINT).
INTERRUPT_EXIT_CODE = 130

#: Environment variable arming deterministic fault injection in workers.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Set by the process-pool worker initializer; fault injection only ever
#: fires in a worker process, never in the orchestrating one.
_IN_WORKER = False


# ----------------------------------------------------------------------
# Fault policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """How a sweep reacts to failing cells.

    Parameters
    ----------
    max_retries:
        Extra attempts granted to a dispatch unit after a **transient**
        failure (worker crash, pool collapse, timeout).  Deterministic
        simulation failures (:class:`~repro.experiments.parallel.GridCellError`
        raised by the cell itself) are never retried — the same seed
        produces the same exception every time.
    backoff_base_s:
        First retry delay; attempt ``n`` waits ``backoff_base_s * 2**(n-1)``
        scaled by a deterministic jitter in ``[1.0, 1.25)`` derived from
        the unit key (see :meth:`backoff_delay`).  No ``random`` or clock
        entropy, so retrying cannot perturb results.
    cell_timeout_s:
        Wall-clock budget per grid cell (a batch of ``k`` seeds gets
        ``k`` times this).  A unit past its deadline has its worker
        terminated and counts as a transient failure.  ``None`` disables
        the watchdog.
    on_error:
        ``"fail"`` aborts the sweep on the first permanently-failed cell
        (the pre-resilience behaviour); ``"continue"`` records it in a
        :class:`SweepFailureReport` and keeps running sibling cells.
    """

    max_retries: int = 0
    backoff_base_s: float = 0.5
    cell_timeout_s: float | None = None
    on_error: str = "fail"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive (or None)")
        if self.on_error not in ("fail", "continue"):
            raise ValueError("on_error must be 'fail' or 'continue'")

    @property
    def continue_on_error(self) -> bool:
        return self.on_error == "continue"

    def backoff_delay(self, attempt: int, key: str) -> float:
        """Delay before retry ``attempt`` (1-based) of the unit ``key``.

        Exponential in the attempt number, jittered deterministically
        from ``sha256(key:attempt)`` so that (a) two units that crashed
        together do not hammer a shared resource in lockstep and (b) the
        schedule is reproducible — no ``random`` state, no clock reads.
        """
        if attempt <= 0:
            return 0.0
        seed = hashlib.sha256(
            ("%s:%d" % (key, attempt)).encode("utf-8")
        ).digest()
        jitter = 1.0 + 0.25 * (int.from_bytes(seed[:4], "big") / 2.0**32)
        return self.backoff_base_s * (2.0 ** (attempt - 1)) * jitter


# ----------------------------------------------------------------------
# Failure reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellFailure:
    """One permanently-failed grid cell, as collected in ``continue`` mode."""

    cell: "GridCell"
    cause: str
    attempts: int
    transient: bool
    detail: str | None = None  # original traceback text, when captured

    def __str__(self) -> str:
        site = ""
        if self.detail:
            # Last location line of the original traceback: the real
            # exception site, preserved across the pool boundary.
            locations = [
                line.strip()
                for line in self.detail.splitlines()
                if line.lstrip().startswith("File ")
            ]
            if locations:
                site = "  [%s]" % locations[-1]
        return "%s — %s (attempt %d%s)%s" % (
            self.cell,
            self.cause,
            self.attempts,
            ", transient" if self.transient else "",
            site,
        )


class SweepFailureReport:
    """Failed cells of one sweep, rendered at the end instead of aborting.

    ``on_error="continue"`` fills one of these (healthy cells keep
    running); the CLI prints :meth:`render` and exits nonzero when the
    report is non-empty.  Iterable and truthy like the list it wraps.
    """

    def __init__(self) -> None:
        self.failures: list[CellFailure] = []

    def add(self, failure: CellFailure) -> None:
        self.failures.append(failure)

    def __len__(self) -> int:
        return len(self.failures)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __iter__(self):
        return iter(self.failures)

    def cells(self) -> list["GridCell"]:
        return [failure.cell for failure in self.failures]

    def render(self) -> str:
        """Operator-facing report: one line per failed cell."""
        if not self.failures:
            return "no failed cells"
        lines = ["%d cell(s) failed:" % len(self.failures)]
        for failure in self.failures:
            lines.append("  FAILED %s" % failure)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Sweep manifest (checkpointed resume)
# ----------------------------------------------------------------------
class ManifestMismatchError(RuntimeError):
    """The manifest on disk belongs to a different scenario fingerprint."""


MANIFEST_VERSION = 1

#: Cell states tracked by the manifest.
PENDING, DONE, FAILED = "pending", "done", "failed"


def _cell_id(protocol: str, rate_kbps: float, seed: int) -> str:
    """Canonical string id of one cell inside the manifest JSON."""
    return "%s|%r|%d" % (protocol, float(rate_kbps), int(seed))


class SweepManifest:
    """Checkpoint file for one sweep campaign: cell states + fingerprint.

    Written as canonical JSON next to the cache directory and updated
    with atomic temp-file + :func:`os.replace` writes as cells complete,
    so a crash at any instant leaves either the previous or the next
    consistent snapshot — never a torn file.  The *results* themselves
    live in the :class:`~repro.experiments.store.ResultStore`; the
    manifest records campaign state (what is done, what failed and why,
    what remains) and guards resume against fingerprint drift: resuming
    a manifest against a different scenario raises
    :class:`ManifestMismatchError` instead of silently mixing campaigns.

    On resume, ``done`` cells are re-verified against the store (a
    quarantined or missing entry degrades the cell back to pending and
    it transparently re-runs) and ``failed``/``pending`` cells are
    re-dispatched.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        fingerprint: Mapping | None = None,
        states: dict[str, dict] | None = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = dict(fingerprint) if fingerprint is not None else None
        self._states: dict[str, dict] = dict(states or {})

    # -- construction ---------------------------------------------------
    @classmethod
    def load(cls, path: str | os.PathLike) -> "SweepManifest":
        """Read a manifest back from disk (raises on a torn/alien file)."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "sweep-manifest"
            or payload.get("version") != MANIFEST_VERSION
        ):
            raise ValueError("%s is not a v%d sweep manifest" % (path, MANIFEST_VERSION))
        return cls(path, payload.get("scenario"), payload.get("cells", {}))

    @classmethod
    def open(cls, path: str | os.PathLike) -> "SweepManifest":
        """Load ``path`` if it exists, else start an empty manifest there."""
        if Path(path).is_file():
            return cls.load(path)
        return cls(path)

    # -- registration / validation -------------------------------------
    def register(self, scenario: "Scenario", cells: Iterable["GridCell"]) -> None:
        """Bind this manifest to ``scenario`` and ensure ``cells`` exist.

        First call stamps the scenario fingerprint; later calls (resume)
        verify it matches and raise :class:`ManifestMismatchError` when it
        does not.  Cells already tracked keep their recorded state —
        except ``done`` cells, which are degraded to ``pending`` here and
        re-confirmed from the result store by the orchestrator (the store
        is the source of truth for completed work; the manifest never
        vouches for bytes it does not hold).
        """
        from repro.experiments.store import scenario_fingerprint

        fingerprint = scenario_fingerprint(scenario)
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif self.fingerprint != fingerprint:
            raise ManifestMismatchError(
                "manifest %s was recorded for scenario %r (fingerprint "
                "mismatch); refusing to resume a different campaign into it"
                % (self.path, self.fingerprint.get("name"))
            )
        for cell in cells:
            state = self._states.setdefault(
                _cell_id(cell.protocol, cell.rate_kbps, cell.seed),
                {"state": PENDING},
            )
            if state.get("state") == DONE:
                state["state"] = PENDING
        self.flush()

    # -- state transitions ----------------------------------------------
    def _entry(self, cell: "GridCell") -> dict:
        return self._states.setdefault(
            _cell_id(cell.protocol, cell.rate_kbps, cell.seed),
            {"state": PENDING},
        )

    def state(self, cell: "GridCell") -> str:
        return self._entry(cell).get("state", PENDING)

    def mark_done(self, cell: "GridCell", flush: bool = True) -> None:
        entry = self._entry(cell)
        entry.clear()
        entry["state"] = DONE
        if flush:
            self.flush()

    def mark_failed(
        self, cell: "GridCell", cause: str, attempts: int, flush: bool = True
    ) -> None:
        """Record ``cell`` as failed with its cause and attempt count."""
        entry = self._entry(cell)
        entry.clear()
        entry.update({"state": FAILED, "cause": cause, "attempts": attempts})
        if flush:
            self.flush()

    def note_done(self, cells: Sequence["GridCell"]) -> None:
        """Mark many cells done with a single flush (cache-hit partition)."""
        for cell in cells:
            self.mark_done(cell, flush=False)
        self.flush()

    # -- sharding / merging (distributed campaigns) ----------------------
    #: State precedence when merging shards: a cell another shard finished
    #: beats one that failed, which beats one never attempted.
    _STATE_RANK = {PENDING: 0, FAILED: 1, DONE: 2}

    def _shard_path(self, index: int, count: int) -> Path:
        name = self.path.name
        stem = name[: -len(".json")] if name.endswith(".json") else name
        return self.path.with_name(
            "%s.shard-%d-of-%d.json" % (stem, index + 1, count)
        )

    def shard(self, count: int) -> list["SweepManifest"]:
        """Split this manifest into ``count`` disjoint shard manifests.

        Cells are dealt round-robin over the *sorted* cell-id space, so
        sharding is deterministic and every shard carries a comparable
        slice of the (protocol, rate, seed) grid rather than one machine
        getting all the expensive protocols.  Each shard keeps the parent
        fingerprint (so :meth:`register` on the worker machine still
        guards against scenario drift), lands next to the parent as
        ``<stem>.shard-K-of-N.json``, and is flushed immediately — the
        shard files are the hand-off artifact.  The union of the shards'
        cells is exactly this manifest's cells.
        """
        if count < 1:
            raise ValueError("shard count must be >= 1, got %d" % count)
        cell_ids = sorted(self._states)
        shards = []
        for index in range(count):
            states = {
                cell_id: dict(self._states[cell_id])
                for cell_id in cell_ids[index::count]
            }
            shard = SweepManifest(
                self._shard_path(index, count), self.fingerprint, states
            )
            shard.flush()
            shards.append(shard)
        return shards

    @classmethod
    def merge(
        cls,
        manifests: Sequence["SweepManifest"],
        path: str | os.PathLike,
    ) -> "SweepManifest":
        """Fold shard manifests back into one campaign manifest at ``path``.

        All non-empty shards must agree on the scenario fingerprint
        (:class:`ManifestMismatchError` otherwise — merging two different
        campaigns is the manifest-level analogue of a store merge
        conflict); shards that never registered a scenario (fingerprint
        ``None``, e.g. an empty shard whose machine did no work) merge
        without constraining it.  Overlapping cell ids are resolved by
        state precedence ``done > failed > pending`` — one shard finishing
        a cell another gave up on is the expected overlap, not an error;
        the *results* behind ``done`` states are digest-verified
        separately by the store merge and again on resume (``register``
        degrades done cells back to pending until the store vouches for
        them).  The merged manifest is flushed to ``path`` and returned.
        """
        fingerprint: dict | None = None
        fingerprint_owner: "SweepManifest | None" = None
        states: dict[str, dict] = {}
        for manifest in manifests:
            if manifest.fingerprint is not None:
                if fingerprint is None:
                    fingerprint = dict(manifest.fingerprint)
                    fingerprint_owner = manifest
                elif fingerprint != manifest.fingerprint:
                    raise ManifestMismatchError(
                        "cannot merge manifest %s (scenario %r) with %s "
                        "(scenario %r): fingerprints differ — these shards "
                        "belong to different campaigns"
                        % (
                            manifest.path,
                            manifest.fingerprint.get("name"),
                            getattr(fingerprint_owner, "path", "?"),
                            fingerprint.get("name"),
                        )
                    )
            for cell_id, entry in manifest._states.items():
                existing = states.get(cell_id)
                if existing is None or (
                    cls._STATE_RANK[entry.get("state", PENDING)]
                    > cls._STATE_RANK[existing.get("state", PENDING)]
                ):
                    states[cell_id] = dict(entry)
        merged = cls(path, fingerprint, states)
        merged.flush()
        return merged

    # -- queries ---------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Number of tracked cells per state (pending/done/failed)."""
        counts = {PENDING: 0, DONE: 0, FAILED: 0}
        for entry in self._states.values():
            counts[entry.get("state", PENDING)] = (
                counts.get(entry.get("state", PENDING), 0) + 1
            )
        return counts

    def cells(self, state: str | None = None) -> list["GridCell"]:
        """Tracked cells, optionally filtered by state, in sorted order."""
        from repro.experiments.parallel import GridCell

        out = []
        for cell_id, entry in sorted(self._states.items()):
            if state is not None and entry.get("state", PENDING) != state:
                continue
            protocol, rate, seed = cell_id.rsplit("|", 2)
            out.append(GridCell(protocol, float(rate), int(seed)))
        return out

    def describe(self) -> str:
        counts = self.counts()
        return "%d done, %d failed, %d pending" % (
            counts[DONE], counts[FAILED], counts[PENDING],
        )

    # -- persistence ------------------------------------------------------
    def flush(self) -> None:
        """Atomically write the current snapshot (temp + ``os.replace``)."""
        payload = {
            "kind": "sweep-manifest",
            "version": MANIFEST_VERSION,
            "scenario": self.fingerprint,
            "cells": self._states,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.parent / (".%s.%d.tmp" % (self.path.name, os.getpid()))
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# Graceful interruption
# ----------------------------------------------------------------------
class SweepInterrupted(RuntimeError):
    """A sweep stopped on SIGINT/SIGTERM after draining in-flight cells.

    Raised by the dispatcher once running cells have been collected and
    persisted; ``done``/``total``/``remaining`` and ``manifest_path`` are
    filled in by the orchestrator so the CLI can print an accurate resume
    hint and exit :data:`INTERRUPT_EXIT_CODE`.
    """

    def __init__(self, remaining: int | None = None) -> None:
        super().__init__("sweep interrupted")
        self.remaining = remaining
        self.done: int | None = None
        self.total: int | None = None
        self.manifest_path: str | None = None


class InterruptGuard:
    """Turns SIGINT/SIGTERM into a drain flag instead of a traceback.

    Use as a context manager around a sweep: the first signal sets
    :attr:`interrupted` (the dispatcher stops feeding work, drains
    in-flight cells, flushes the manifest and raises
    :class:`SweepInterrupted`); a second signal raises
    :class:`KeyboardInterrupt` for an immediate abort.  Handlers are
    only installed in the main thread (Python restricts ``signal``), and
    the previous handlers are restored on exit.  :meth:`trigger` sets the
    flag programmatically — tests use it to interrupt deterministically.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self._event = threading.Event()
        self._previous: dict[int, object] = {}
        self.signum: int | None = None

    @property
    def interrupted(self) -> bool:
        return self._event.is_set()

    def trigger(self, signum: int | None = None) -> None:
        self.signum = signum
        self._event.set()

    def _handle(self, signum, frame) -> None:
        if self._event.is_set():
            raise KeyboardInterrupt  # second signal: abort immediately
        self.trigger(signum)
        print(
            "\nsignal received — draining in-flight cells, flushing "
            "checkpoint (signal again to abort immediately)",
            file=sys.stderr,
            flush=True,
        )

    def install(self) -> "InterruptGuard":
        """Take over SIGINT/SIGTERM (main thread only; no-op elsewhere)."""
        if threading.current_thread() is not threading.main_thread():
            return self  # signal handlers are a main-thread-only facility
        for signum in self._SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return self

    def uninstall(self) -> None:
        """Restore the signal handlers that were active before install."""
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()

    def __enter__(self) -> "InterruptGuard":
        return self.install()

    def __exit__(self, *exc_info) -> bool:
        self.uninstall()
        return False


# ----------------------------------------------------------------------
# Deterministic fault injection (tests + CI resilience smoke)
# ----------------------------------------------------------------------
def _mark_worker() -> None:
    """Process-pool initializer: records that this process is a worker.

    Also sheds any :class:`InterruptGuard` handler the worker fork-
    inherited from the parent: workers must ignore SIGINT (the parent
    owns draining — a terminal Ctrl-C signals the whole foreground
    process group, and in-flight cells should finish, not re-announce
    the drain) and must die to SIGTERM (the cell-timeout watchdog and
    the executor's broken-pool cleanup both rely on it being lethal).
    """
    global _IN_WORKER
    _IN_WORKER = True
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass


class FaultInjected(RuntimeError):
    """Raised by ``mode=error`` fault injection (a deterministic failure)."""


def maybe_inject_fault(label: str) -> None:
    """Deterministically fault this execution of ``label``, if armed.

    ``REPRO_FAULT_INJECT=DIR[:COUNT[:MODE[:MATCH]]]`` arms injection:
    the first ``COUNT`` (default 1) executions of each distinct ``label``
    containing ``MATCH`` (default: every label) fault with ``MODE``:

    * ``crash`` (default) — ``os._exit(17)``: a real worker death, seen
      by the parent as :class:`BrokenProcessPool`.
    * ``hang``  — sleep for an hour: exercises the cell-timeout watchdog.
    * ``error`` — raise :class:`FaultInjected`: a deterministic
      simulation failure (wrapped into ``GridCellError``, never retried).

    Marker files in ``DIR`` (created with ``O_EXCL``, so exactly-once
    even across pool rebuilds) make the schedule deterministic: attempt
    ``n`` of a label faults iff ``n <= COUNT``.  Injection only ever
    fires inside a pool worker (see :func:`_mark_worker`) so a serial
    reference run with the variable exported is unaffected.
    """
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec or not _IN_WORKER:
        return
    parts = spec.split(":")
    directory = Path(parts[0])
    count = int(parts[1]) if len(parts) > 1 and parts[1] else 1
    mode = parts[2] if len(parts) > 2 and parts[2] else "crash"
    match = parts[3] if len(parts) > 3 else ""
    if match and match not in label:
        return
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    directory.mkdir(parents=True, exist_ok=True)
    for attempt in range(count):
        marker = directory / ("%s.%d" % (digest, attempt))
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue  # this attempt already faulted on a previous run
        os.write(fd, label.encode("utf-8"))
        os.close(fd)
        if mode == "hang":
            time.sleep(3600.0)
            return
        if mode == "error":
            raise FaultInjected(
                "injected deterministic failure for %s" % label
            )
        os._exit(17)
    return
