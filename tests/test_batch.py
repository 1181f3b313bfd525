"""Batched multi-seed execution: geometry kernel, batch runner, cache CLI.

Covers the contracts the batched dispatch layer adds on top of PR 1's
orchestrator:

* the vectorized channel-geometry kernel produces **bit-identical** tables
  to the pure-python scan, and a prebuilt/shared geometry to a fresh one;
* ``run_batch`` equals per-seed ``run_single`` for shared-placement and
  per-seed-placement scenarios alike (mobility included — shared geometry
  must never leak one seed's table patches into the next);
* a mid-batch failure still names the exact ``(protocol, rate, seed)``
  and survives pickling across the process-pool boundary;
* ``Scenario.with_fixed_placement`` pins the topology and enters the
  result-store fingerprint;
* the store-maintenance surface behind ``repro cache ls`` / ``verify``.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

import repro.sim.channel as channel_mod
from repro.cli import main as cli_main
from repro.experiments.parallel import (
    GridBatch,
    GridCell,
    GridCellError,
    ProgressReporter,
    batch_cells,
    grid_cells,
    run_grid,
)
from repro.experiments.runner import run_batch, run_single
from repro.experiments.scenarios import Scenario
from repro.experiments.store import (
    ResultStore,
    cell_key,
    scenario_fingerprint,
)
from repro.net.topology import uniform_random_placement
from repro.sim.channel import ChannelGeometry
from repro.sim.mobility import MobilitySpec
from repro.sim.network import WirelessNetwork


@pytest.fixture
def tiny_grid() -> Scenario:
    """A 3x3 grid (seed-invariant placement) that runs in well under 1 s."""
    return Scenario(
        name="tiny-batch-grid",
        node_count=9,
        field_size=120.0,
        flow_count=3,
        rates_kbps=(2.0,),
        duration=10.0,
        runs=3,
        grid=True,
        protocols=("DSR-ODPM",),
    )


@pytest.fixture
def tiny_random() -> Scenario:
    """A random-placement scenario: every seed draws its own topology."""
    return Scenario(
        name="tiny-batch-random",
        node_count=10,
        field_size=150.0,
        flow_count=3,
        rates_kbps=(2.0,),
        duration=10.0,
        runs=2,
        protocols=("DSR-ODPM",),
    )


def _payloads(results):
    return [result.to_payload() for result in results]


class TestChannelGeometry:
    def _placement(self, count: int = 40):
        return uniform_random_placement(
            count, 400.0, 400.0, random.Random("geometry-test")
        )

    def test_vectorized_equals_python_fallback(self, monkeypatch):
        """The numpy candidate pass must not change a single table entry."""
        placement = self._placement(40)
        assert 40 >= channel_mod._VECTORIZE_MIN_NODES
        vectorized = ChannelGeometry.build(placement.positions, 250.0)
        monkeypatch.setattr(channel_mod, "_np", None)
        fallback = ChannelGeometry.build(placement.positions, 250.0)
        assert vectorized.dists == fallback.dists
        assert vectorized.dist_ranks == fallback.dist_ranks
        assert vectorized.ranks == fallback.ranks
        assert vectorized.ids == fallback.ids

    def test_distance_ties_break_identically(self, monkeypatch):
        """Grid placements are all ties; orderings must still agree."""
        from repro.net.topology import grid_placement

        placement = grid_placement(7, 300.0, 300.0)  # 49 nodes >= threshold
        vectorized = ChannelGeometry.build(placement.positions, 90.0)
        monkeypatch.setattr(channel_mod, "_np", None)
        fallback = ChannelGeometry.build(placement.positions, 90.0)
        assert vectorized.dists == fallback.dists
        assert vectorized.dist_ranks == fallback.dist_ranks

    def test_prebuilt_geometry_run_is_bit_identical(self, tiny_grid):
        base = run_single(tiny_grid, "DSR-ODPM", 2.0, 1)
        geometry = ChannelGeometry.build(
            tiny_grid.placement(1).positions, tiny_grid.card.max_range
        )
        shared = WirelessNetwork(
            tiny_grid.config("DSR-ODPM", 2.0, 1), geometry=geometry
        ).run()
        assert shared.to_payload() == base.to_payload()

    def test_stale_geometry_is_ignored_not_trusted(self, tiny_grid):
        """A geometry for other positions must not corrupt the run.

        The simulation outcome must equal the unshared run bit for bit —
        and since PR 6 the discarded geometry is *observable*, not
        silent: the payload carries a ``warnings`` block counting the
        mismatch (full coverage in ``tests/test_spatial_hash.py``).
        """
        other = self._placement(9)
        stale = ChannelGeometry.build(
            other.positions, tiny_grid.card.max_range
        )
        base = run_single(tiny_grid, "DSR-ODPM", 2.0, 1)
        guarded = WirelessNetwork(
            tiny_grid.config("DSR-ODPM", 2.0, 1), geometry=stale
        ).run()
        guarded_payload = guarded.to_payload()
        assert guarded_payload.pop("warnings") == {"stale_geometry": 1.0}
        assert guarded_payload == base.to_payload()

    def test_freeze_from_geometry_matches_fresh_tables(self, tiny_grid):
        fresh = WirelessNetwork(tiny_grid.config("DSR-ODPM", 2.0, 1))
        geometry = ChannelGeometry.build(
            tiny_grid.placement(1).positions, tiny_grid.card.max_range
        )
        shared = WirelessNetwork(
            tiny_grid.config("DSR-ODPM", 2.0, 1), geometry=geometry
        )
        for node_id in fresh.channel.positions:
            a = fresh.channel._tables[node_id]
            b = shared.channel._tables[node_id]
            assert a.dists == b.dists
            assert a.ids == b.ids
            assert a.ranks == b.ranks
            assert [rank for rank, _ in a.by_dist] == [
                rank for rank, _ in b.by_dist
            ]


class TestRunBatch:
    def test_batch_equals_per_cell_shared_placement(self, tiny_grid):
        seeds = (1, 2, 3)
        batched = run_batch(tiny_grid, "DSR-ODPM", 2.0, seeds)
        singles = [
            run_single(tiny_grid, "DSR-ODPM", 2.0, seed) for seed in seeds
        ]
        assert _payloads(batched) == _payloads(singles)

    def test_batch_equals_per_cell_random_placement(self, tiny_random):
        seeds = (1, 2)
        batched = run_batch(tiny_random, "DSR-ODPM", 2.0, seeds)
        singles = [
            run_single(tiny_random, "DSR-ODPM", 2.0, seed) for seed in seeds
        ]
        assert _payloads(batched) == _payloads(singles)

    def test_batch_under_mobility_does_not_leak_table_patches(self, tiny_grid):
        """Mobility mutates neighbor tables in place; a shared geometry must
        hand every seed pristine tables."""
        mobile = tiny_grid.with_mobility(
            MobilitySpec(v_min=1.0, v_max=3.0, pause=1.0, step=0.5)
        )
        seeds = (1, 2)
        batched = run_batch(mobile, "DSR-ODPM", 2.0, seeds)
        singles = [
            run_single(mobile, "DSR-ODPM", 2.0, seed) for seed in seeds
        ]
        assert _payloads(batched) == _payloads(singles)

    def test_fixed_placement_shares_topology_across_seeds(self, tiny_random):
        pinned = tiny_random.with_fixed_placement(7)
        assert pinned.shares_placement
        assert not tiny_random.shares_placement
        assert (
            pinned.placement(1).positions == pinned.placement(2).positions
        )
        assert (
            tiny_random.placement(1).positions
            != tiny_random.placement(2).positions
        )
        batched = run_batch(pinned, "DSR-ODPM", 2.0, (1, 2))
        singles = [
            run_single(pinned, "DSR-ODPM", 2.0, seed) for seed in (1, 2)
        ]
        assert _payloads(batched) == _payloads(singles)

    def test_partial_cache_hits_shrink_the_batch(self, tiny_grid, tmp_path):
        """Cached seeds never re-simulate; only the misses form a batch."""
        store = ResultStore(tmp_path)
        cells = grid_cells(tiny_grid)  # seeds 1..3
        run_grid(tiny_grid, cells[:1], store=store)
        assert store.writes == 1
        full = run_grid(tiny_grid, cells, store=store)
        assert store.writes == 3  # seeds 2-3 only
        assert store.hits == 1
        for cell in cells:
            reference = run_single(
                tiny_grid, cell.protocol, cell.rate_kbps, cell.seed
            )
            assert full[cell].to_payload() == reference.to_payload()

    def test_fixed_placement_enters_fingerprint(self, tiny_random):
        pinned = tiny_random.with_fixed_placement(7)
        assert "placement_seed" not in scenario_fingerprint(tiny_random)
        assert scenario_fingerprint(pinned)["placement_seed"] == 7
        assert cell_key(pinned, "DSR-ODPM", 2.0, 1) != cell_key(
            tiny_random, "DSR-ODPM", 2.0, 1
        )


class TestBatchCells:
    def test_groups_preserve_first_encounter_order(self):
        cells = grid_cells(
            Scenario(
                name="x", node_count=9, field_size=100.0, flow_count=2,
                rates_kbps=(2.0, 4.0), duration=10.0, runs=2, grid=True,
                protocols=("A-unused",),
            ),
            protocols=("DSR-ODPM", "TITAN-PC"),
            rates_kbps=(2.0, 4.0),
            seeds=(1, 2),
        )
        batches = batch_cells(cells)
        assert [
            (batch.protocol, batch.rate_kbps, batch.seeds)
            for batch in batches
        ] == [
            ("DSR-ODPM", 2.0, (1, 2)),
            ("DSR-ODPM", 4.0, (1, 2)),
            ("TITAN-PC", 2.0, (1, 2)),
            ("TITAN-PC", 4.0, (1, 2)),
        ]
        assert batches[0].cells() == [
            GridCell("DSR-ODPM", 2.0, 1),
            GridCell("DSR-ODPM", 2.0, 2),
        ]

    def test_str_compacts_contiguous_seed_runs(self):
        assert "seeds 1-3" in str(GridBatch("DSR-ODPM", 2.0, (1, 2, 3)))
        assert "seeds 1,5" in str(GridBatch("DSR-ODPM", 2.0, (1, 5)))
        assert "seed 4" in str(GridBatch("DSR-ODPM", 2.0, (4,)))
        assert len(GridBatch("DSR-ODPM", 2.0, (1, 2))) == 2

    def test_split_for_jobs_fills_idle_workers(self):
        from repro.experiments.parallel import _split_for_jobs

        one_group = [GridBatch("DSR-ODPM", 2.0, (1, 2, 3, 4, 5, 6))]
        split = _split_for_jobs(one_group, jobs=4)
        assert [batch.seeds for batch in split] == [
            (1, 2), (3, 4), (5,), (6,)
        ]  # 4 units for 4 workers, contiguous, order preserved
        # More workers than seeds: one seed per unit, never empty units.
        tiny = _split_for_jobs([GridBatch("DSR-ODPM", 2.0, (1, 2))], jobs=8)
        assert [batch.seeds for batch in tiny] == [(1,), (2,)]
        # Enough groups already: left untouched.
        many = [GridBatch("DSR-ODPM", float(rate), (1, 2)) for rate in range(4)]
        assert _split_for_jobs(many, jobs=2) == many
        # Serial: untouched.
        assert _split_for_jobs(one_group, jobs=1) == one_group

    def test_split_batches_produce_identical_results(self, tiny_grid):
        """run_many-style single group + jobs=3 must split, not serialize,
        and stay bit-identical."""
        cells = grid_cells(tiny_grid)  # one group, seeds 1..3
        split = run_grid(tiny_grid, cells, jobs=3)
        for cell in cells:
            reference = run_single(
                tiny_grid, cell.protocol, cell.rate_kbps, cell.seed
            )
            assert split[cell].to_payload() == reference.to_payload()

    def test_reporter_counts_batches_in_cells(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=6, enabled=True, stream=stream)
        reporter.cached(1)
        reporter.advance(GridBatch("DSR-ODPM", 2.0, (1, 2, 3)), cells=3)
        reporter.advance(GridCell("DSR-ODPM", 4.0, 1))
        lines = stream.getvalue().splitlines()
        assert "[1/6] reused from cache" in lines[0]
        assert "[4/6]" in lines[1] and "seeds 1-3" in lines[1]
        assert "[5/6]" in lines[2]
        assert reporter.done == 5


class ExplodingScenario(Scenario):
    """``flows`` blows up for seed 2 only — a deterministic mid-batch
    failure that crosses process boundaries (module-level, hence
    picklable)."""

    def flows(self, seed, rate_kbps, placement=None):
        if seed == 2:
            raise RuntimeError("injected failure for seed 2")
        return super().flows(seed, rate_kbps, placement)


def _exploding(**overrides) -> ExplodingScenario:
    params = dict(
        name="tiny-exploding",
        node_count=9,
        field_size=120.0,
        flow_count=3,
        rates_kbps=(2.0,),
        duration=10.0,
        runs=3,
        grid=True,
        protocols=("DSR-ODPM",),
    )
    params.update(overrides)
    return ExplodingScenario(**params)


class TestMidBatchFailure:
    def test_error_names_the_exact_mid_batch_seed(self):
        scenario = _exploding()
        with pytest.raises(GridCellError) as excinfo:
            run_batch(scenario, "DSR-ODPM", 2.0, (1, 2, 3))
        assert excinfo.value.cell == GridCell("DSR-ODPM", 2.0, 2)
        message = str(excinfo.value)
        assert "seed=2" in message
        assert "injected failure" in message

    def test_error_survives_the_pool_boundary(self):
        scenario = _exploding()
        cells = grid_cells(scenario)
        with pytest.raises(GridCellError) as excinfo:
            run_grid(scenario, cells, jobs=2)
        assert excinfo.value.cell == GridCell("DSR-ODPM", 2.0, 2)

    def test_error_pickle_roundtrip_keeps_cell_and_message(self):
        scenario = _exploding()
        with pytest.raises(GridCellError) as excinfo:
            run_batch(scenario, "DSR-ODPM", 2.0, (1, 2))
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.cell == excinfo.value.cell
        assert str(clone) == str(excinfo.value)

    def test_setup_failure_still_names_a_concrete_cell(self, tiny_random):
        """Failures before any seed simulates must name a cell too.

        convergecast needs flow_count + 1 distinct nodes; 10 nodes cannot
        host 30 sources plus a sink, so flow selection fails for the very
        first seed of the batch.
        """
        from dataclasses import replace

        bad = replace(
            tiny_random.with_fixed_placement(1),
            pattern="convergecast",
            flow_count=30,
        )
        with pytest.raises(GridCellError) as excinfo:
            run_batch(bad, "DSR-ODPM", 2.0, (1, 2))
        assert excinfo.value.cell == GridCell("DSR-ODPM", 2.0, 1)


class TestCacheMaintenance:
    def _populated(self, scenario, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        run_grid(scenario, grid_cells(scenario), store=store)
        return store

    def test_summary_groups_by_scenario_fingerprint(self, tiny_grid, tmp_path):
        store = self._populated(tiny_grid, tmp_path)
        report = store.summary()
        assert report["runs"]["total"] == 3
        (fp_id, group), = report["runs"]["scenarios"].items()
        assert group["name"] == "tiny-batch-grid"
        assert group["count"] == 3
        assert group["node_count"] == 9
        assert report["routes"]["total"] == 0

    def test_summary_counts_unrecorded_and_corrupt(self, tiny_grid, tmp_path):
        store = self._populated(tiny_grid, tmp_path)
        keys = store.keys("runs")
        # Strip one entry down to the pre-PR-5 shape (no digest/scenario).
        legacy_path = store._path("runs", keys[0])
        entry = json.loads(legacy_path.read_text(encoding="utf-8"))
        legacy_path.write_text(
            json.dumps({"key": keys[0], "result": entry["result"]}),
            encoding="utf-8",
        )
        store._path("runs", keys[1]).write_text("{broken", encoding="utf-8")
        scenarios = store.summary()["runs"]["scenarios"]
        assert scenarios["(unrecorded)"]["count"] == 1
        assert scenarios["(corrupt)"]["count"] == 1

    def test_verify_sample_passes_on_sound_store(self, tiny_grid, tmp_path):
        store = self._populated(tiny_grid, tmp_path)
        report = store.verify_sample()
        assert report["checked"] == 3
        assert report["ok"] == 3
        assert report["failures"] == []

    def test_verify_sample_flags_corruption(self, tiny_grid, tmp_path):
        store = self._populated(tiny_grid, tmp_path)
        key = store.keys("runs")[0]
        path = store._path("runs", key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["delivery_ratio"] = 0.123456  # bit-rot stand-in
        path.write_text(json.dumps(entry), encoding="utf-8")
        report = store.verify_sample()
        assert report["ok"] == 2
        assert len(report["failures"]) == 1
        assert "digest mismatch" in report["failures"][0][1]

    def test_verify_sample_tolerates_legacy_entries(self, tiny_grid, tmp_path):
        store = self._populated(tiny_grid, tmp_path)
        key = store.keys("runs")[0]
        path = store._path("runs", key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(
            json.dumps({"key": key, "result": entry["result"]}),
            encoding="utf-8",
        )
        report = store.verify_sample()
        assert report["ok"] == 3
        assert report["legacy"] == 1

    def test_cli_cache_ls_and_verify(self, tiny_grid, tmp_path, capsys):
        store = self._populated(tiny_grid, tmp_path)
        assert cli_main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tiny-batch-grid" in out
        assert "3" in out
        assert cli_main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 ok" in out

    def test_verify_sample_rejects_nonpositive_sample(
        self, tiny_grid, tmp_path
    ):
        store = self._populated(tiny_grid, tmp_path)
        with pytest.raises(ValueError):
            store.verify_sample(sample=0)

    def test_cli_cache_commands_never_create_the_directory(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "no-such-store"
        # ls answers "what is cached there?" — for a store nobody has
        # written, the honest answer is "nothing", not a traceback...
        assert cli_main(["cache", "ls", "--cache-dir", str(missing)]) == 0
        assert "(0 entries)" in capsys.readouterr().out
        assert not missing.exists()  # inspection must not mkdir
        # ...while verify keeps rejecting: an integrity check against an
        # absent store passing vacuously would defeat its purpose.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["cache", "verify", "--cache-dir", str(missing)])
        assert "no result store" in str(excinfo.value)
        assert not missing.exists()

    def test_cli_cache_verify_exits_nonzero_on_corruption(
        self, tiny_grid, tmp_path, capsys
    ):
        store = self._populated(tiny_grid, tmp_path)
        key = store.keys("runs")[0]
        path = store._path("runs", key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["delivery_ratio"] = 0.5
        path.write_text(json.dumps(entry), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["cache", "verify", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_cache_verify_names_bit_flipped_entry(
        self, tiny_grid, tmp_path, capsys
    ):
        """A literal bit flip on disk exits 1 and names the bad key.

        The other corruption tests mutate entries through the dict layer;
        this one damages the stored bytes the way real bit rot does —
        one flipped bit inside the serialized payload — and checks the
        operator-facing contract: nonzero exit plus the offending key in
        the output, so a corrupt entry can be located and deleted.
        """
        store = self._populated(tiny_grid, tmp_path)
        key = store.keys("runs")[0]
        path = store._path("runs", key)
        raw = bytearray(path.read_bytes())
        # Flip the low bit of the first digit inside the payload: the
        # character stays a digit (the file still parses; the key still
        # matches), but the number — and with it the payload digest —
        # changes.  Flipping an arbitrary bit would more often produce
        # an unparseable file, which is the *other*, easier failure.
        start = raw.index(b'"result"')
        offset = next(
            i for i in range(start, len(raw)) if chr(raw[i]).isdigit()
        )
        raw[offset] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["cache", "verify", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert "FAIL runs/%s" % key[:12] in out
        assert "digest mismatch" in out
