"""Pluggable store backends, store merging and manifest sharding.

Covers the distributed-campaign half of the reporting/backends subsystem:

* :class:`LocalJsonBackend` — the historical layout stays byte-for-byte
  (paths, file bytes, quarantine renames, temp-file staging);
* :class:`SqliteBackend` — round-trip, quarantine-as-flag, container
  verification, auto-detection on reopen;
* backend parity — the same runs cached under either backend record the
  same keys and payload digests (including the pinned TINY digest), and
  a warm sqlite cache serves hits exactly like a warm JSON cache;
* :func:`merge_stores` — the sixth leg of the determinism contract:
  shards cached under *different* backends merge into a store
  byte-identical to a single-machine reference, overlap is fine when
  digests agree, divergent payloads raise naming the key, corrupt
  source entries are never inherited;
* :meth:`SweepManifest.shard` / :meth:`SweepManifest.merge` — disjoint
  round-robin split, fingerprint carriage, state-precedence union,
  fingerprint-mismatch rejection, empty shards;
* the summary/CLI surface — quarantined entries reported separately
  from totals, ``cache ls --json`` / ``cache verify --json`` emit
  parseable JSONL with unchanged exit codes, and ``cache merge`` wires
  it all together from the shell.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments.backends import (
    LocalJsonBackend,
    MergeReport,
    SqliteBackend,
    StoreCorruption,
    StoreMergeConflict,
    canonical_digest,
    detect_backend,
    make_backend,
    merge_stores,
)
from repro.experiments.parallel import GridCell, grid_cells, run_grid
from repro.experiments.resilience import (
    DONE,
    FAILED,
    PENDING,
    ManifestMismatchError,
    SweepManifest,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.store import (
    ResultStore,
    cell_key,
    scenario_fingerprint,
)

#: The pinned digest of the tiny fixture's (DSR-ODPM, 2 Kbit/s, seed 1)
#: cell — the same constant the orchestration and resilience suites pin
#: their contract legs on.  The merged leg must reproduce it bit for bit
#: regardless of which backend cached the shard.
TINY_CELL_DIGEST = (
    "d038f4c678d5f4e86895ea42fa481e55b91603ff1abe311a95bff03765dfc914"
)

PINNED_CELL = GridCell("DSR-ODPM", 2.0, 1)


def _tiny() -> Scenario:
    """The same 3x3 grid the orchestration tests pin their digest on."""
    return Scenario(
        name="tiny-test",
        node_count=9,
        field_size=120.0,
        flow_count=3,
        rates_kbps=(2.0, 4.0),
        duration=10.0,
        runs=2,
        grid=True,
        protocols=("DSR-ODPM",),
    )


@pytest.fixture(scope="module")
def tiny() -> Scenario:
    return _tiny()


@pytest.fixture(scope="module")
def tiny_results(tiny):
    """All four tiny-grid cells, simulated once for the whole module."""
    return run_grid(tiny, grid_cells(tiny))


def _fill_store(store: ResultStore, tiny, results, cells=None) -> None:
    """Cache ``results`` (optionally a cell subset) the way a sweep would."""
    fingerprint = scenario_fingerprint(tiny)
    for cell, result in sorted(results.items()):
        if cells is not None and cell not in cells:
            continue
        store.put_run(
            cell_key(tiny, cell.protocol, cell.rate_kbps, cell.seed),
            result,
            fingerprint=fingerprint,
        )


def _tree_bytes(root) -> dict[str, bytes]:
    """Every file under ``root`` as relative-path -> contents."""
    out = {}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _entry(key: str, value: int) -> dict:
    """A minimal sound store entry for layout-level tests."""
    payload = {"value": value}
    return {"key": key, "result": payload, "digest": canonical_digest(payload)}


def _route_entry(key: str, value: int) -> dict:
    """A sound *routes* entry — verification never payload-decodes these."""
    payload = {"value": value}
    return {"key": key, "routes": payload, "digest": canonical_digest(payload)}


def _python_encoded(obj, **kwargs) -> str:
    """``obj`` as ``json.dump`` writes it: the pure-Python encoder."""
    return "".join(json.JSONEncoder(sort_keys=True, **kwargs).iterencode(obj))


KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62


class TestLocalJsonBackend:
    def test_layout_and_bytes_are_the_historical_ones(self, tmp_path):
        """Path shape and file bytes must not move under the refactor —
        a pre-backend cache directory must read back unchanged."""
        store = ResultStore(tmp_path)
        assert isinstance(store.backend, LocalJsonBackend)
        entry = _entry(KEY_A, 1)
        store._write("runs", KEY_A, entry)
        path = store._path("runs", KEY_A)
        assert path == tmp_path / "runs" / "aa" / ("%s.json" % KEY_A)
        # Exactly json.dump(entry, sort_keys=True) with default separators.
        assert path.read_text() == _python_encoded(entry)

    def test_real_entry_and_manifest_bytes_match_the_python_encoder(
        self, tmp_path, tiny, tiny_results, monkeypatch
    ):
        """The C encoder the writers use emits the bytes ``json.dump``'s
        pure-Python encoder wrote, on real ``RunResult`` entries and a
        real sweep manifest."""
        written = []
        put = LocalJsonBackend.put

        def recording_put(backend, kind, key, entry):
            written.append((kind, key, entry))
            put(backend, kind, key, entry)

        monkeypatch.setattr(LocalJsonBackend, "put", recording_put)
        store = ResultStore(tmp_path / "store")
        _fill_store(store, tiny, tiny_results)
        assert len(written) == len(tiny_results)
        for kind, key, entry in written:
            text = store.backend.path(kind, key).read_text(encoding="utf-8")
            assert text == _python_encoded(entry)

        manifest = SweepManifest(tmp_path / "manifest.json")
        cells = sorted(tiny_results)
        manifest.register(tiny, cells)
        manifest.note_done(cells[:-1])
        manifest.mark_failed(cells[-1], "boom: \u00e9 \"quoted\"", 2)
        text = manifest.path.read_text(encoding="utf-8")
        assert text == _python_encoded(json.loads(text), separators=(",", ":"))

    def test_quarantine_is_a_rename(self, tmp_path):
        store = ResultStore(tmp_path)
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        assert store.backend.quarantine("runs", KEY_A)
        assert not store._path("runs", KEY_A).exists()
        assert store._path("runs", KEY_A).with_name(
            "%s.json.quarantine" % KEY_A
        ).exists()
        assert store.backend.quarantined("runs") == [KEY_A]
        assert store.backend.keys("runs") == []

    def test_get_raises_corruption_on_garbage(self, tmp_path):
        backend = LocalJsonBackend(tmp_path)
        backend.put("runs", KEY_A, _entry(KEY_A, 1))
        backend.path("runs", KEY_A).write_text("{torn")
        with pytest.raises(StoreCorruption):
            backend.get("runs", KEY_A)
        backend.path("runs", KEY_A).write_text("[1, 2]")
        with pytest.raises(StoreCorruption):
            backend.get("runs", KEY_A)
        assert backend.get("runs", KEY_B) is None  # absent: None, no raise


class TestSqliteBackend:
    def test_round_trip_and_counts(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        assert isinstance(store.backend, SqliteBackend)
        entry = _entry(KEY_A, 1)
        store._write("runs", KEY_A, entry)
        store._write("routes", KEY_B, _entry(KEY_B, 2))
        assert store.backend.get("runs", KEY_A) == entry
        assert store.keys("runs") == [KEY_A]
        assert dict(store.entries("runs")) == {KEY_A: entry}
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0

    def test_one_file_per_campaign(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        files = {p.name for p in tmp_path.iterdir() if p.is_file()}
        assert "store.sqlite" in files  # the whole campaign, one artifact

    def test_detected_on_reopen(self, tmp_path):
        ResultStore(tmp_path, backend="sqlite")._write(
            "runs", KEY_A, _entry(KEY_A, 1)
        )
        assert detect_backend(tmp_path) == "sqlite"
        reopened = ResultStore(tmp_path)  # no backend argument
        assert isinstance(reopened.backend, SqliteBackend)
        assert reopened.keys("runs") == [KEY_A]
        assert detect_backend(tmp_path / "fresh") == "local-json"

    def test_quarantine_is_a_flag_not_a_delete(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        assert store.backend.quarantine("runs", KEY_A)
        assert store.backend.get("runs", KEY_A) is None
        assert store.backend.keys("runs") == []
        assert store.backend.quarantined("runs") == [KEY_A]
        assert not store.backend.quarantine("runs", KEY_A)  # already set

    def test_corrupt_row_quarantined_on_read(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        connection = store.backend._connect()
        connection.execute("UPDATE entries SET entry = '{torn'")
        connection.commit()
        assert store.get_run(KEY_A) is None
        assert store.quarantined == 1
        assert store.misses == 1
        assert store.backend.quarantined("runs") == [KEY_A]

    def test_container_corruption_fails_verification(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        store.backend.close()
        (tmp_path / "store.sqlite").write_bytes(b"not a database at all")
        fresh = ResultStore(tmp_path)
        report = fresh.verify_sample()
        assert any(key == "(storage)" for key, _why in report["failures"])

    def test_unknown_backend_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            make_backend(tmp_path, "carrier-pigeon")


class TestBackendParity:
    """Keys and digests are content properties, not storage properties."""

    def test_same_runs_same_digests_both_backends(
        self, tmp_path, tiny, tiny_results
    ):
        json_store = ResultStore(tmp_path / "json")
        sqlite_store = ResultStore(tmp_path / "sqlite", backend="sqlite")
        _fill_store(json_store, tiny, tiny_results)
        _fill_store(sqlite_store, tiny, tiny_results)
        assert json_store.keys("runs") == sqlite_store.keys("runs")
        for key in json_store.keys("runs"):
            json_entry = json_store.backend.get("runs", key)
            sqlite_entry = sqlite_store.backend.get("runs", key)
            assert json_entry == sqlite_entry
        pinned_key = cell_key(
            tiny, PINNED_CELL.protocol, PINNED_CELL.rate_kbps, PINNED_CELL.seed
        )
        assert (
            sqlite_store.backend.get("runs", pinned_key)["digest"]
            == TINY_CELL_DIGEST
        )

    def test_warm_sqlite_cache_serves_hits(self, tmp_path, tiny, tiny_results):
        store = ResultStore(tmp_path, backend="sqlite")
        _fill_store(store, tiny, tiny_results)
        warm = ResultStore(tmp_path)  # auto-detected sqlite
        for cell, result in tiny_results.items():
            key = cell_key(tiny, cell.protocol, cell.rate_kbps, cell.seed)
            cached = warm.get_run(key)
            assert cached is not None
            assert cached.to_payload() == result.to_payload()
        assert warm.hits == len(tiny_results)
        assert warm.misses == 0


class TestMergeStores:
    def test_mixed_backend_shards_merge_byte_identical(
        self, tmp_path, tiny, tiny_results
    ):
        """The sixth contract leg: a campaign sharded across a JSON store
        and a sqlite store merges into a directory byte-identical to the
        single-machine reference sweep, pinned digest included."""
        reference = ResultStore(tmp_path / "reference")
        _fill_store(reference, tiny, tiny_results)

        cells = sorted(tiny_results)
        shard_json = ResultStore(tmp_path / "shard-json")
        shard_sqlite = ResultStore(tmp_path / "shard-sqlite", backend="sqlite")
        _fill_store(shard_json, tiny, tiny_results, cells=set(cells[::2]))
        _fill_store(shard_sqlite, tiny, tiny_results, cells=set(cells[1::2]))

        dest = ResultStore(tmp_path / "merged")
        report = merge_stores([shard_json, shard_sqlite], dest)
        assert report.merged == len(tiny_results)
        assert report.identical == report.corrupt == 0
        assert _tree_bytes(tmp_path / "merged") == _tree_bytes(
            tmp_path / "reference"
        )
        pinned_key = cell_key(
            tiny, PINNED_CELL.protocol, PINNED_CELL.rate_kbps, PINNED_CELL.seed
        )
        assert (
            dest.backend.get("runs", pinned_key)["digest"] == TINY_CELL_DIGEST
        )

    def test_identical_overlap_is_fine_and_idempotent(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b", backend="sqlite")
        dest = ResultStore(tmp_path / "dest")
        a.backend.put("runs", KEY_A, _entry(KEY_A, 1))
        b.backend.put("runs", KEY_A, _entry(KEY_A, 1))  # same bytes
        b.backend.put("runs", KEY_B, _entry(KEY_B, 2))
        report = merge_stores([a, b], dest)
        assert report.merged == 2
        assert report.identical == 1
        again = merge_stores([a, b], dest)
        assert again.merged == 0
        assert again.identical == 3

    def test_conflicting_digests_raise_naming_the_key(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        dest = ResultStore(tmp_path / "dest")
        dest.backend.put("runs", KEY_A, _entry(KEY_A, 1))
        a.backend.put("runs", KEY_A, _entry(KEY_A, 99))  # divergent payload
        with pytest.raises(StoreMergeConflict) as excinfo:
            merge_stores([a], dest)
        assert excinfo.value.key == KEY_A
        assert KEY_A in str(excinfo.value)
        # The sound pre-existing entry is untouched.
        assert dest.backend.get("runs", KEY_A) == _entry(KEY_A, 1)

    def test_corrupt_source_entries_are_never_inherited(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.backend.put("runs", KEY_A, _entry(KEY_A, 1))
        rotten = _entry(KEY_B, 2)
        rotten["digest"] = "0" * 64  # recorded digest no longer matches
        a.backend.put("runs", KEY_B, rotten)
        a.backend.put("runs", KEY_C, _entry(KEY_A, 3))  # stored under another name
        dest = ResultStore(tmp_path / "dest")
        report = merge_stores([a], dest)
        assert report.merged == 1
        assert report.corrupt == 2
        assert dest.backend.get("runs", KEY_B) is None
        assert dest.backend.get("runs", KEY_C) is None

    def test_sound_copy_replaces_an_unsound_destination_entry(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.backend.put("runs", KEY_A, _entry(KEY_A, 1))
        dest = ResultStore(tmp_path / "dest")
        rotten = _entry(KEY_A, 1)
        rotten["result"] = {"value": 2}  # body rotted, digest field intact
        dest.backend.put("runs", KEY_A, rotten)
        report = merge_stores([a], dest)
        assert report.merged == 1
        assert report.identical == 0
        assert dest.backend.get("runs", KEY_A) == _entry(KEY_A, 1)

    def test_merge_report_renders(self):
        report = MergeReport(sources=2, merged=1, identical=3, by_kind={"runs": 1})
        text = str(report)
        assert "1 entry" in text and "3 identical" in text


def _manifest(tmp_path, name, fingerprint, states):
    manifest = SweepManifest(tmp_path / name, fingerprint, states)
    manifest.flush()
    return manifest


FP_A = {"name": "campaign-a", "version": 3}
FP_B = {"name": "campaign-b", "version": 3}


class TestManifestShardMerge:
    def test_shard_is_a_disjoint_round_robin_partition(self, tmp_path):
        states = {
            "P|%r|%d" % (rate, seed): {"state": DONE}
            for rate in (2.0, 4.0)
            for seed in (1, 2, 3)
        }
        parent = _manifest(tmp_path, "campaign.json", FP_A, states)
        shards = parent.shard(2)
        assert [s.path.name for s in shards] == [
            "campaign.shard-1-of-2.json",
            "campaign.shard-2-of-2.json",
        ]
        seen: list[str] = []
        for shard in shards:
            assert shard.path.is_file()  # flushed: ready to hand off
            assert shard.fingerprint == FP_A
            seen.extend(shard._states)
        assert sorted(seen) == sorted(states)  # disjoint, complete
        sizes = sorted(len(s._states) for s in shards)
        assert sizes == [3, 3]  # balanced

    def test_shard_count_validation(self, tmp_path):
        parent = _manifest(tmp_path, "m.json", FP_A, {})
        with pytest.raises(ValueError):
            parent.shard(0)

    def test_merge_overlapping_done_cells_is_fine(self, tmp_path):
        a = _manifest(tmp_path, "a.json", FP_A, {"c1": {"state": DONE}})
        b = _manifest(tmp_path, "b.json", FP_A, {"c1": {"state": DONE}})
        merged = SweepManifest.merge([a, b], tmp_path / "merged.json")
        assert merged.fingerprint == FP_A
        assert merged._states == {"c1": {"state": DONE}}
        assert merged.path.is_file()  # flushed
        assert SweepManifest.load(merged.path)._states == merged._states

    def test_merge_state_precedence_done_beats_failed_beats_pending(
        self, tmp_path
    ):
        a = _manifest(
            tmp_path, "a.json", FP_A,
            {
                "c1": {"state": FAILED, "cause": "boom", "attempts": 2},
                "c2": {"state": PENDING},
                "c3": {"state": DONE},
            },
        )
        b = _manifest(
            tmp_path, "b.json", FP_A,
            {
                "c1": {"state": DONE},
                "c2": {"state": FAILED, "cause": "zap", "attempts": 1},
                "c3": {"state": PENDING},
            },
        )
        merged = SweepManifest.merge([a, b], tmp_path / "m.json")
        assert merged._states["c1"] == {"state": DONE}
        assert merged._states["c2"]["state"] == FAILED
        assert merged._states["c2"]["cause"] == "zap"
        assert merged._states["c3"] == {"state": DONE}

    def test_merge_mismatched_fingerprints_raise(self, tmp_path):
        a = _manifest(tmp_path, "a.json", FP_A, {"c1": {"state": DONE}})
        b = _manifest(tmp_path, "b.json", FP_B, {"c2": {"state": DONE}})
        with pytest.raises(ManifestMismatchError, match="different campaigns"):
            SweepManifest.merge([a, b], tmp_path / "m.json")

    def test_merge_with_empty_shard(self, tmp_path):
        a = _manifest(tmp_path, "a.json", FP_A, {"c1": {"state": DONE}})
        empty = _manifest(tmp_path, "empty.json", None, {})
        merged = SweepManifest.merge([a, empty], tmp_path / "m.json")
        assert merged.fingerprint == FP_A
        assert merged._states == {"c1": {"state": DONE}}
        # All-empty merge: no fingerprint, no cells, still a valid manifest.
        blank = SweepManifest.merge([empty], tmp_path / "blank.json")
        assert blank.fingerprint is None
        assert blank.counts() == {PENDING: 0, DONE: 0, FAILED: 0}


class TestQuarantinedInSummary:
    def test_totals_exclude_quarantined_reported_separately(self, tmp_path):
        store = ResultStore(tmp_path)
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        store._write("runs", KEY_B, _entry(KEY_B, 2))
        store.backend.quarantine("runs", KEY_B)
        section = store.summary()["runs"]
        assert section["total"] == 1
        assert section["quarantined"] == 1
        assert len(store) == 1

    def test_cache_ls_text_reports_quarantined(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        store.backend.quarantine("runs", KEY_A)
        assert cli_main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "runs    0 entries  (+1 quarantined" in out


class TestCliJsonAndMerge:
    def test_cache_ls_json_is_one_object_per_line(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store._write("runs", KEY_A, _entry(KEY_A, 1))
        store._write("runs", KEY_B, _entry(KEY_B, 2))
        store.backend.quarantine("runs", KEY_B)
        assert cli_main(
            ["cache", "ls", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [row["kind"] for row in rows] == ["runs", "routes"]
        assert rows[0]["total"] == 1
        assert rows[0]["quarantined"] == 1
        assert rows[1] == {"kind": "routes", "total": 0, "quarantined": 0,
                           "scenarios": {}}

    def test_cache_ls_json_missing_dir_is_empty(self, tmp_path, capsys):
        assert cli_main(
            ["cache", "ls", "--cache-dir", str(tmp_path / "nope"), "--json"]
        ) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert all(row["total"] == 0 for row in rows)
        assert not (tmp_path / "nope").exists()  # still never created

    def test_cache_verify_json_healthy(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store._write("routes", KEY_A, _route_entry(KEY_A, 1))
        assert cli_main(
            ["cache", "verify", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["checked"] == 1
        assert verdict["ok"] == 1
        assert verdict["failures"] == []

    def test_cache_verify_json_corruption_still_exits_1(
        self, tmp_path, capsys
    ):
        store = ResultStore(tmp_path)
        store._write("routes", KEY_A, _route_entry(KEY_A, 1))
        store._path("routes", KEY_A).write_text("{torn")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                ["cache", "verify", "--cache-dir", str(tmp_path), "--json"]
            )
        assert excinfo.value.code == 1
        verdict = json.loads(capsys.readouterr().out)
        assert len(verdict["failures"]) == 1

    def test_cache_merge_cli_round_trip(self, tmp_path, capsys):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b", backend="sqlite")
        a.backend.put("runs", KEY_A, _entry(KEY_A, 1))
        b.backend.put("runs", KEY_B, _entry(KEY_B, 2))
        ma = _manifest(tmp_path, "ma.json", FP_A, {"c1": {"state": DONE}})
        mb = _manifest(tmp_path, "mb.json", FP_A, {"c2": {"state": DONE}})
        assert cli_main([
            "cache", "merge", str(tmp_path / "a"), str(tmp_path / "b"),
            str(tmp_path / "dest"),
            "--manifests", str(ma.path), str(mb.path),
        ]) == 0
        out = capsys.readouterr().out
        assert "merged 2 entries" in out
        dest = ResultStore(tmp_path / "dest")
        assert len(dest) == 2
        merged_manifest = SweepManifest.load(
            str(tmp_path / "dest") + ".manifest.json"
        )
        assert merged_manifest.counts()[DONE] == 2
        # The merged manifest lives next to the store, not inside it.
        assert not (tmp_path / "dest" / "dest.manifest.json").exists()

    def test_cache_merge_cli_conflict_exits_1(self, tmp_path, capsys):
        a = ResultStore(tmp_path / "a")
        dest = ResultStore(tmp_path / "dest")
        a.backend.put("runs", KEY_A, _entry(KEY_A, 1))
        dest.backend.put("runs", KEY_A, _entry(KEY_A, 2))
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "cache", "merge", str(tmp_path / "a"), str(tmp_path / "dest"),
            ])
        assert "merge conflict" in str(excinfo.value)
        assert KEY_A in str(excinfo.value)

    def test_cache_merge_cli_rejects_missing_source(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            cli_main([
                "cache", "merge", str(tmp_path / "nope"),
                str(tmp_path / "dest"),
            ])
        assert not (tmp_path / "dest").exists()
