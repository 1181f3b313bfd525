"""Pluggable storage backends for the result store, plus store merging.

The :class:`~repro.experiments.store.ResultStore` used to *be* its disk
layout: sharded ``<kind>/<key[:2]>/<key>.json`` files written atomically.
That layout is exactly right for one machine writing one campaign, but the
ROADMAP's distributed sweeps need two properties it cannot give: a
campaign that travels as **one file** (copy a single artifact between
machines instead of rsyncing thousands of tiny JSONs) and a store that can
**merge** another machine's shard into itself with integrity guarantees.

This module splits the policy from the layout:

* :class:`StoreBackend` — the raw-entry interface
  (``get/put/keys/entries/verify/quarantine`` plus maintenance hooks).
  Backends move *entry dicts*; the entry format — the integrity rule,
  payload decoding, hit/miss accounting — stays in
  :mod:`repro.experiments.store`, so every integrity guarantee is
  backend-agnostic by construction.
* :class:`LocalJsonBackend` — the historical layout, byte-identical:
  the same paths, the same ``sort_keys=True`` file bytes (once written
  by ``json.dump``, now by ``json.dumps``), the same
  ``.<key>.<pid>.tmp`` staging and ``*.json.quarantine`` renames.  The
  default, and what every pinned digest test runs against.
* :class:`SqliteBackend` — one ``store.sqlite`` file per campaign
  (WAL journal, so concurrent sweeps on one box stay safe), holding the
  *same* canonical-JSON entry dicts under the *same* sha256 keys.
  Because keys and payload digests are computed from entry content, not
  from storage details, a cell cached under sqlite is bit-identical to
  the same cell cached as a JSON file.
* :func:`merge_stores` — fold one or more source stores (any backend mix)
  into a destination store.  Overlapping keys are allowed only when their
  recorded payload digests agree; a disagreement means two machines
  simulated the same cell and got different bytes — a determinism-contract
  violation — and raises :class:`StoreMergeConflict` naming the key
  instead of silently picking a winner.  This is the aggregation half of
  sharded campaigns (:meth:`~repro.experiments.resilience.SweepManifest.
  shard`); the ``repro cache merge`` CLI command wraps it.

Backend selection is automatic: a cache directory containing
``store.sqlite`` is a sqlite store, anything else is local JSON
(:func:`detect_backend`).  ``ResultStore(root, backend="sqlite")`` — or
``repro sweep --cache-backend sqlite`` — opts a new campaign in.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

#: Filename that marks (and holds) a sqlite-backed campaign store.
SQLITE_STORE_FILENAME = "store.sqlite"


def canonical_digest(payload: Mapping) -> str:
    """sha256 hexdigest of the canonical (sorted, compact) JSON of ``payload``.

    The one digest function of the whole store subsystem: cache keys,
    per-entry payload digests and merge conflict detection all use it, so
    digests agree across backends, processes and machines.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class StoreCorruption(RuntimeError):
    """A stored entry is not sound.

    Raised by :meth:`StoreBackend.get` when the stored representation
    exists but does not decode to a JSON object (torn write, bit rot, a
    stray editor), and by :func:`~repro.experiments.store.check_entry`
    when an entry dict breaks the store's integrity rule.  Lookups react
    by quarantining the entry and treating the key as a miss, so the cell
    transparently re-simulates.
    """

    def __init__(self, kind: str, key: str, why: str) -> None:
        super().__init__("%s/%s: %s" % (kind, key[:12], why))
        self.kind = kind
        self.key = key
        self.why = why


class StoreBackend:
    """Raw entry storage behind :class:`~repro.experiments.store.ResultStore`.

    A backend stores opaque **entry dicts** under ``(kind, key)`` pairs
    and knows nothing about RunResults, digests or fingerprints — that
    policy lives in the store, which is what keeps integrity guarantees
    identical across backends.  Implementations must tolerate concurrent
    writers across processes: sweep dispatch
    (:mod:`repro.experiments.parallel`) has every unit — in pool workers
    too — write its finished entries directly, with only
    ``(key, digest)`` receipts returning to the orchestrating parent.
    Both shipped backends already are — the JSON layout publishes each entry with an atomic
    per-file :func:`os.replace`, and sqlite serializes writers through
    its WAL journal — and since the determinism contract makes equal
    keys hold equal bytes, a write race is always a benign last-write-
    wins of identical content.
    """

    #: Registry name, recorded in report provenance.
    name = "abstract"

    def get(self, kind: str, key: str) -> dict | None:
        """The entry dict for ``key``, ``None`` if absent.

        Raises :class:`StoreCorruption` when bytes exist but do not
        decode to a dict; never returns a non-dict.
        """
        raise NotImplementedError

    def put(self, kind: str, key: str, entry: dict) -> None:
        """Persist ``entry`` under ``key`` atomically (last write wins)."""
        raise NotImplementedError

    def keys(self, kind: str) -> list[str]:
        """Sorted keys of one kind (quarantined entries excluded)."""
        raise NotImplementedError

    def entries(self, kind: str) -> Iterator[tuple[str, dict | None]]:
        """Yield ``(key, entry | None)`` sorted by key; ``None`` marks
        an entry whose stored bytes no longer decode (maintenance path)."""
        raise NotImplementedError

    def quarantine(self, kind: str, key: str) -> bool:
        """Set a corrupt entry aside: invisible to get/keys/entries but
        preserved for forensics.  Returns False when the entry vanished
        first (raced with another healer)."""
        raise NotImplementedError

    def quarantined(self, kind: str) -> list[str]:
        """Sorted keys currently quarantined under ``kind``."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Storage-level health problems (container corruption), if any.

        Complements the store's per-entry digest verification: a JSON
        directory has no container to corrupt (always ``[]``), a sqlite
        file does (``PRAGMA quick_check``).
        """
        return []

    def clean_tmp(self, older_than_s: float) -> int:
        """Reap staging litter from writers that died mid-write."""
        return 0

    def count(self) -> int:
        """Total live entries across all kinds (quarantined excluded)."""
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every live entry; returns how many were removed."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable identity for report provenance."""
        return self.name


class LocalJsonBackend(StoreBackend):
    """The historical one-file-per-entry layout, byte-for-byte.

    Entries live at ``<root>/<kind>/<key[:2]>/<key>.json`` as
    ``json.dumps(entry, sort_keys=True)`` (default separators — the exact
    bytes every pre-backend store wrote with ``json.dump``, whose
    pure-Python encoder emits what the C encoder behind ``dumps`` does,
    chunk by chunk), staged as ``.<key>.<pid>.tmp`` and published with
    :func:`os.replace`.  Quarantine renames to
    ``<key>.json.quarantine``.  A pre-backend cache directory *is* a
    ``LocalJsonBackend`` store — there is no migration step.
    """

    name = "local-json"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path(self, kind: str, key: str) -> Path:
        """On-disk location of one entry (layout contract, used by tests)."""
        return self.root / kind / key[:2] / ("%s.json" % key)

    def get(self, kind: str, key: str) -> dict | None:
        """Read one entry; absent is ``None``, garbage raises."""
        try:
            with open(self.path(kind, key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            return None
        except ValueError:
            raise StoreCorruption(kind, key, "unparseable JSON")
        if not isinstance(entry, dict):
            raise StoreCorruption(kind, key, "entry is not a JSON object")
        return entry

    def put(self, kind: str, key: str, entry: dict) -> None:
        """Atomic publish: stage to a temp file, then ``os.replace``."""
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (".%s.%d.tmp" % (key, os.getpid()))
        text = json.dumps(entry, sort_keys=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)

    def keys(self, kind: str) -> list[str]:
        return sorted(
            path.stem for path in (self.root / kind).glob("*/*.json")
        )

    def entries(self, kind: str) -> Iterator[tuple[str, dict | None]]:
        """Yield every live entry sorted by key; unreadable ones as None."""
        for path in sorted((self.root / kind).glob("*/*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                yield path.stem, None
                continue
            yield path.stem, entry if isinstance(entry, dict) else None

    def quarantine(self, kind: str, key: str) -> bool:
        """Rename the entry to ``<name>.quarantine`` (kept for forensics)."""
        path = self.path(kind, key)
        try:
            os.replace(path, path.with_name(path.name + ".quarantine"))
        except OSError:  # pragma: no cover - raced with another healer
            return False
        return True

    def quarantined(self, kind: str) -> list[str]:
        suffix = ".json.quarantine"
        return sorted(
            path.name[: -len(suffix)]
            for path in (self.root / kind).glob("*/*" + suffix)
        )

    def clean_tmp(self, older_than_s: float) -> int:
        """Unlink staging files older than the cutoff; returns how many."""
        now = time.time()
        removed = 0
        for path in self.root.glob("*/*/.*.tmp"):
            try:
                if now - path.stat().st_mtime >= older_than_s:
                    path.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - raced with the writer
                continue
        return removed

    def count(self) -> int:
        return sum(1 for _ in self.root.glob("*/*/*.json"))

    def clear(self) -> int:
        removed = 0
        for path in self.root.glob("*/*/*.json"):
            path.unlink()
            removed += 1
        return removed

    def describe(self) -> str:
        return self.name


class SqliteBackend(StoreBackend):
    """One sqlite file per campaign: the whole store travels as one artifact.

    Entries are the same dicts the JSON backend writes, serialized with
    ``sort_keys`` into a single ``entries(kind, key, entry, quarantined)``
    table, so keys and payload digests are identical across backends.
    The journal runs in WAL mode with a generous busy timeout, so a
    reader (``cache ls`` against a box mid-sweep) never blocks the
    sweep's writer.  Quarantine is a flag flip, not a rename — the
    corrupt bytes stay in the table for forensics, invisible to
    get/keys/entries/count exactly like a ``.quarantine`` file.
    """

    name = "sqlite"

    def __init__(
        self, root: str | os.PathLike, filename: str = SQLITE_STORE_FILENAME
    ) -> None:
        self.root = Path(root)
        self.db_path = self.root / filename
        self._connection = None

    def _connect(self):
        if self._connection is None:
            import sqlite3

            self.root.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(self.db_path)
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute("PRAGMA busy_timeout=30000")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " kind TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " entry TEXT NOT NULL,"
                " quarantined INTEGER NOT NULL DEFAULT 0,"
                " PRIMARY KEY (kind, key))"
            )
            connection.commit()
            self._connection = connection
        return self._connection

    def close(self) -> None:
        """Release the connection (tests and merge tooling call this)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    @staticmethod
    def _decode(kind: str, key: str, text: str) -> dict:
        try:
            entry = json.loads(text)
        except ValueError:
            raise StoreCorruption(kind, key, "unparseable JSON")
        if not isinstance(entry, dict):
            raise StoreCorruption(kind, key, "entry is not a JSON object")
        return entry

    def get(self, kind: str, key: str) -> dict | None:
        """Read one live (non-quarantined) entry; absent is ``None``."""
        row = self._connect().execute(
            "SELECT entry FROM entries"
            " WHERE kind = ? AND key = ? AND quarantined = 0",
            (kind, key),
        ).fetchone()
        if row is None:
            return None
        return self._decode(kind, key, row[0])

    def put(self, kind: str, key: str, entry: dict) -> None:
        """Upsert one entry (a fresh write clears any quarantine flag)."""
        connection = self._connect()
        connection.execute(
            "INSERT OR REPLACE INTO entries (kind, key, entry, quarantined)"
            " VALUES (?, ?, ?, 0)",
            (kind, key, json.dumps(entry, sort_keys=True)),
        )
        connection.commit()

    def keys(self, kind: str) -> list[str]:
        """Sorted keys of live entries under ``kind``."""
        rows = self._connect().execute(
            "SELECT key FROM entries"
            " WHERE kind = ? AND quarantined = 0 ORDER BY key",
            (kind,),
        ).fetchall()
        return [row[0] for row in rows]

    def entries(self, kind: str) -> Iterator[tuple[str, dict | None]]:
        """Yield every live entry sorted by key; undecodable ones as None."""
        rows = self._connect().execute(
            "SELECT key, entry FROM entries"
            " WHERE kind = ? AND quarantined = 0 ORDER BY key",
            (kind,),
        ).fetchall()
        for key, text in rows:
            try:
                yield key, self._decode(kind, key, text)
            except StoreCorruption:
                yield key, None

    def quarantine(self, kind: str, key: str) -> bool:
        """Flip the quarantine flag — the row stays for forensics."""
        connection = self._connect()
        cursor = connection.execute(
            "UPDATE entries SET quarantined = 1"
            " WHERE kind = ? AND key = ? AND quarantined = 0",
            (kind, key),
        )
        connection.commit()
        return cursor.rowcount > 0

    def quarantined(self, kind: str) -> list[str]:
        """Sorted keys currently flagged quarantined under ``kind``."""
        rows = self._connect().execute(
            "SELECT key FROM entries"
            " WHERE kind = ? AND quarantined = 1 ORDER BY key",
            (kind,),
        ).fetchall()
        return [row[0] for row in rows]

    def verify(self) -> list[str]:
        """Container health via ``PRAGMA quick_check`` (unreadable counts)."""
        import sqlite3

        try:
            rows = self._connect().execute("PRAGMA quick_check").fetchall()
        except sqlite3.DatabaseError as exc:
            return ["sqlite container unreadable: %s" % exc]
        problems = [row[0] for row in rows if row[0] != "ok"]
        return [
            "sqlite quick_check: %s" % problem for problem in problems
        ]

    def count(self) -> int:
        row = self._connect().execute(
            "SELECT COUNT(*) FROM entries WHERE quarantined = 0"
        ).fetchone()
        return int(row[0])

    def clear(self) -> int:
        """Delete every live entry (quarantined rows are kept)."""
        connection = self._connect()
        cursor = connection.execute(
            "DELETE FROM entries WHERE quarantined = 0"
        )
        connection.commit()
        return cursor.rowcount

    def describe(self) -> str:
        return "%s:%s" % (self.name, self.db_path.name)


#: Backend registry: ``--cache-backend`` choices map through here.
BACKENDS: dict[str, type[StoreBackend]] = {
    LocalJsonBackend.name: LocalJsonBackend,
    "json": LocalJsonBackend,
    SqliteBackend.name: SqliteBackend,
}


def detect_backend(root: str | os.PathLike) -> str:
    """The backend a cache directory already uses (``sqlite`` or ``json``).

    Detection keys on the presence of ``store.sqlite`` so that warm
    reruns, ``cache ls`` and merges pick the right backend without the
    operator re-stating ``--cache-backend`` on every invocation.  An
    empty or absent directory is JSON — the historical default.
    """
    if (Path(root) / SQLITE_STORE_FILENAME).is_file():
        return SqliteBackend.name
    return LocalJsonBackend.name


def make_backend(
    root: str | os.PathLike, backend: str | None = None
) -> StoreBackend:
    """Instantiate the requested (or auto-detected) backend over ``root``."""
    name = backend if backend is not None else detect_backend(root)
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            "unknown store backend %r; available: %s"
            % (name, ", ".join(sorted(set(BACKENDS))))
        ) from None
    return factory(root)


# ----------------------------------------------------------------------
# Store merging (the aggregation half of sharded campaigns)
# ----------------------------------------------------------------------
class StoreMergeConflict(RuntimeError):
    """Two stores hold different result bytes for the same cell key.

    Under the determinism contract this cannot happen to honest shards —
    the same key means the same (scenario, protocol, rate, seed) and
    therefore the same payload.  A conflict means one side is corrupt or
    was produced by a drifted simulator, so the merge refuses to pick a
    winner and names the key for forensics.
    """

    def __init__(self, kind: str, key: str, detail: str) -> None:
        super().__init__(
            "merge conflict for %s/%s: %s (the determinism contract says "
            "equal keys must hold equal payloads; refusing to pick a "
            "winner)" % (kind, key, detail)
        )
        self.kind = kind
        self.key = key


@dataclass
class MergeReport:
    """What one :func:`merge_stores` call did, per disposition.

    ``merged`` entries were copied into the destination, ``identical``
    already existed there with a matching digest (the overlap case),
    ``corrupt`` source entries failed the store's integrity rule and were
    left behind (the destination never inherits rot).
    """

    sources: int = 0
    merged: int = 0
    identical: int = 0
    corrupt: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = ", ".join(
            "%d %s" % (count, kind)
            for kind, count in sorted(self.by_kind.items())
        )
        return (
            "merged %d entr%s from %d store(s) (%s); %d identical overlap, "
            "%d corrupt skipped"
            % (
                self.merged,
                "y" if self.merged == 1 else "ies",
                self.sources,
                detail or "nothing new",
                self.identical,
                self.corrupt,
            )
        )


def merge_stores(sources: Sequence, dest) -> MergeReport:
    """Fold ``sources`` (ResultStores, any backend mix) into ``dest``.

    Every live source entry must pass the store's integrity rule
    (:func:`~repro.experiments.store.check_entry`) before it is copied —
    a shard that rotted in transit contributes nothing rather than
    poisoning the aggregate — and overlapping keys must agree by digest
    (see :class:`StoreMergeConflict`); a sound copy replaces an unsound
    destination entry.  The destination may already hold earlier shards:
    merging is incremental and idempotent, so a machine can fold shards
    in as they arrive and re-fold a shard after a retry.  Returns a
    :class:`MergeReport`; raises on the first conflict.
    """
    from repro.experiments.store import check_entry

    report = MergeReport(sources=len(sources))
    for kind in dest.KINDS:
        for source in sources:
            for key, entry in source.backend.entries(kind):
                try:
                    digest = check_entry(kind, key, entry)
                except StoreCorruption:
                    report.corrupt += 1
                    continue
                try:
                    held = check_entry(kind, key, dest.backend.get(kind, key))
                except StoreCorruption:
                    held = None  # absent, or unsound in dest: the copy heals it
                if held is None:
                    dest.backend.put(kind, key, entry)
                    report.merged += 1
                    report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
                elif held == digest:
                    report.identical += 1
                else:
                    raise StoreMergeConflict(
                        kind,
                        key,
                        "source %s disagrees with destination %s"
                        % (source.root, dest.root),
                    )
    return report
