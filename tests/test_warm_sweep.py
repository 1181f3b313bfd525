"""Dispatch tests: one path, serial == parallel, receipts verified.

Every sweep runs its pending cells as :class:`GridBatch` units on a unit
context — in process at ``jobs=1``, in pool workers otherwise — and a
store-backed unit writes its entries itself and returns digest receipts.
That changes *where* work happens, never a stored byte: these tests pin
``jobs=1`` against ``jobs=2`` stores on both backends, the store
counters, the shared-setup memo, the crash and receipt-retry recovery
paths under unit-side writes, the abort on store errors, and the pieces
around dispatch: cost-model scheduling (permutation invariance),
``_split_for_jobs`` properties, the reporter's events/s + utilization
readout and its cache-skew-free ETA, and the zombie-free worker reaper.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.costmodel import SweepCostModel
from repro.experiments.parallel import (
    GridBatch,
    GridCell,
    GridCellError,
    ProgressReporter,
    _split_for_jobs,
    _terminate_workers,
    batch_cells,
    grid_cells,
    run_grid,
)
from repro.experiments.resilience import (
    FAULT_INJECT_ENV,
    FaultPolicy,
    SweepFailureReport,
    SweepManifest,
)
from repro.experiments.runner import run_single
from repro.experiments.scenarios import Scenario
from repro.experiments.store import ResultStore, cell_key
from repro.sim.channel import ChannelGeometry

#: The pinned digest of the tiny fixture's (DSR-ODPM, 2 Kbit/s, seed 1)
#: cell — the same constant the orchestration and resilience suites pin
#: their legs of the determinism contract against.  Every dispatch here
#: must reproduce it bit for bit.
TINY_CELL_DIGEST = (
    "d038f4c678d5f4e86895ea42fa481e55b91603ff1abe311a95bff03765dfc914"
)

PINNED_CELL = GridCell("DSR-ODPM", 2.0, 1)


@pytest.fixture
def tiny() -> Scenario:
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


def _digest(result) -> str:
    canonical = json.dumps(
        result.to_payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _tree(root) -> dict[str, bytes]:
    """Every file under ``root`` as ``{relative_path: bytes}``."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _logical_entries(store: ResultStore) -> dict[str, dict]:
    """Backend-independent view of a store's run entries."""
    return dict(store.backend.entries("runs"))


def _arm_faults(monkeypatch, tmp_path, spec: str):
    """Point REPRO_FAULT_INJECT at a fresh marker dir; returns the dir."""
    directory = tmp_path / "faults"
    monkeypatch.setenv(FAULT_INJECT_ENV, "%s%s" % (directory, spec))
    return directory


class TestWarmContract:
    def test_serial_equals_parallel_store_bytes_json(self, tiny, tmp_path):
        """Stores written in process and by pool workers are byte-identical."""
        cells = grid_cells(tiny)
        serial_store = ResultStore(tmp_path / "serial", backend="json")
        parallel_store = ResultStore(tmp_path / "parallel", backend="json")
        serial = run_grid(tiny, cells, jobs=1, store=serial_store)
        parallel = run_grid(tiny, cells, jobs=2, store=parallel_store)
        assert _tree(tmp_path / "parallel") == _tree(tmp_path / "serial")
        for cell in cells:
            reference = run_single(
                tiny, cell.protocol, cell.rate_kbps, cell.seed
            )
            assert serial[cell].to_payload() == reference.to_payload()
            assert parallel[cell].to_payload() == reference.to_payload()
        assert _digest(parallel[PINNED_CELL]) == TINY_CELL_DIGEST
        # The writes counter keeps its meaning: one write per cell this
        # sweep produced, whoever held the pen.
        assert serial_store.writes == len(cells)
        assert parallel_store.writes == len(cells)

    def test_serial_equals_parallel_store_sqlite(self, tiny, tmp_path):
        """Same equivalence on the sqlite backend, compared logically
        (two sqlite files with identical rows differ in page bytes)."""
        cells = grid_cells(tiny)
        serial_store = ResultStore(tmp_path / "serial", backend="sqlite")
        parallel_store = ResultStore(tmp_path / "parallel", backend="sqlite")
        run_grid(tiny, cells, jobs=1, store=serial_store)
        parallel = run_grid(tiny, cells, jobs=2, store=parallel_store)
        serial_entries = _logical_entries(serial_store)
        parallel_entries = _logical_entries(parallel_store)
        assert parallel_entries == serial_entries
        assert len(parallel_entries) == len(cells)
        assert _digest(parallel[PINNED_CELL]) == TINY_CELL_DIGEST

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_serial_equals_parallel_fixed_placement_campaign(
        self, tiny, tmp_path, backend
    ):
        """A pinned random placement shared by several (protocol, rate)
        groups: in process or pooled, the stores hold the same entries."""
        scenario = replace(
            tiny, grid=False, node_count=10
        ).with_fixed_placement(5)
        cells = grid_cells(
            scenario, ("DSR-ODPM", "TITAN-PC"), (2.0, 4.0), seeds=(1, 2)
        )
        stores = {
            jobs: ResultStore(tmp_path / str(jobs), backend=backend)
            for jobs in (1, 2)
        }
        for jobs, store in stores.items():
            run_grid(scenario, cells, jobs=jobs, store=store)
            assert store.writes == len(cells)
        if backend == "json":
            assert _tree(tmp_path / "1") == _tree(tmp_path / "2")
        assert _logical_entries(stores[1]) == _logical_entries(stores[2])
        assert len(_logical_entries(stores[2])) == len(cells)

    def test_warm_second_invocation_hits_cache_only(self, tiny, tmp_path):
        cells = grid_cells(tiny)
        store = ResultStore(tmp_path / "store")
        run_grid(tiny, cells, jobs=2, store=store)
        again = ResultStore(tmp_path / "store")
        results = run_grid(tiny, cells, jobs=2, store=again)
        assert again.hits == len(cells)
        assert again.writes == 0
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST

    def test_fully_cached_sweep_builds_no_context_or_pool(
        self, tiny, tmp_path, monkeypatch
    ):
        """Nothing pending, nothing built: a cached re-sweep serves every
        cell without a unit context or a process pool."""
        import repro.experiments.parallel as parallel

        cells = grid_cells(tiny)
        run_grid(tiny, cells, jobs=2, store=ResultStore(tmp_path / "store"))

        def forbidden(*args, **kwargs):
            raise AssertionError("built for a sweep with nothing pending")

        monkeypatch.setattr(parallel, "_UnitContext", forbidden)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbidden)
        again = ResultStore(tmp_path / "store")
        results = run_grid(tiny, cells, jobs=2, store=again)
        assert (again.hits, again.writes) == (len(cells), 0)
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST

    def test_warm_fills_a_partially_cached_campaign(self, tiny, tmp_path):
        """Cache hits and dispatched cells mix without double writes."""
        cells = grid_cells(tiny)
        store = ResultStore(tmp_path / "store")
        head, tail = cells[:1], cells[1:]
        run_grid(tiny, head, jobs=1, store=store)
        resumed = ResultStore(tmp_path / "store")
        results = run_grid(tiny, cells, jobs=2, store=resumed)
        assert resumed.hits == len(head)
        assert resumed.writes == len(tail)
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_writes_and_hits_count_each_cell_once(
        self, tiny, tmp_path, jobs, backend
    ):
        """``writes`` counts the cells a sweep simulated, ``hits`` the cells
        it served from the cache — in process and pooled alike."""
        cells = grid_cells(tiny)
        head = cells[:1]
        first = ResultStore(tmp_path / "store", backend=backend)
        run_grid(tiny, head, jobs=jobs, store=first)
        assert (first.writes, first.hits) == (len(head), 0)
        second = ResultStore(tmp_path / "store", backend=backend)
        run_grid(tiny, cells, jobs=jobs, store=second)
        assert (second.writes, second.hits) == (
            len(cells) - len(head), len(head)
        )
        third = ResultStore(tmp_path / "store", backend=backend)
        run_grid(tiny, cells, jobs=jobs, store=third)
        assert (third.writes, third.hits) == (0, len(cells))
        assert len(_logical_entries(third)) == len(cells)

    @pytest.mark.parametrize("with_store", [False, True])
    def test_serial_sweep_derives_a_fixed_placement_once(
        self, tiny, tmp_path, monkeypatch, with_store
    ):
        """One serial sweep shares one placement and one geometry scan
        across all its units: no seed re-derives either."""
        scenario = replace(
            tiny, grid=False, node_count=10
        ).with_fixed_placement(3)
        cells = grid_cells(
            scenario, ("DSR-ODPM", "TITAN-PC"), (2.0, 4.0), seeds=(1, 2)
        )
        placement = Scenario.placement
        from_positions = ChannelGeometry.from_positions.__func__
        calls = []
        scans = []

        def counted(self, seed):
            calls.append(seed)
            return placement(self, seed)

        def counted_scan(cls, positions, *args, **kwargs):
            scans.append(len(positions))
            return from_positions(cls, positions, *args, **kwargs)

        monkeypatch.setattr(Scenario, "placement", counted)
        monkeypatch.setattr(
            ChannelGeometry, "from_positions", classmethod(counted_scan)
        )
        store = ResultStore(tmp_path / "store") if with_store else None
        results = run_grid(scenario, cells, jobs=1, store=store)
        assert len(calls) == 1
        assert scans == [10]
        monkeypatch.undo()
        for cell in cells:
            reference = run_single(
                scenario, cell.protocol, cell.rate_kbps, cell.seed
            )
            assert results[cell].to_payload() == reference.to_payload()


def _forging(monkeypatch, marker_dir=None):
    """Make every receipt lie about its digest.

    With ``marker_dir`` only a cell's first receipt lies (one marker file
    per key, created exclusively, so the schedule holds across pool
    workers); without it every receipt does.  The fork start method ships
    the patched module to the pool workers.
    """
    import os

    import repro.experiments.runner as runner_module

    real = runner_module.run_batch_receipts

    def forged(*args, **kwargs):
        receipts = []
        for receipt in real(*args, **kwargs):
            if marker_dir is not None:
                marker_dir.mkdir(parents=True, exist_ok=True)
                try:
                    os.close(
                        os.open(
                            marker_dir / receipt.key,
                            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                        )
                    )
                except FileExistsError:
                    receipts.append(receipt)
                    continue
            receipts.append(
                type(receipt)(
                    key=receipt.key,
                    digest="0" * 64,
                    events=receipt.events,
                    cached=receipt.cached,
                )
            )
        return receipts

    monkeypatch.setattr(runner_module, "run_batch_receipts", forged)


class TestWarmResilience:
    def test_worker_crash_heals_to_pinned_digest(
        self, tiny, monkeypatch, tmp_path
    ):
        """A worker that dies mid-batch under worker-side writes is
        retried to the exact store contents of an undisturbed sweep."""
        _arm_faults(monkeypatch, tmp_path, ":1")
        cells = grid_cells(tiny)
        store = ResultStore(tmp_path / "store")
        policy = FaultPolicy(max_retries=3, backoff_base_s=0.01)
        results = run_grid(tiny, cells, jobs=2, store=store, policy=policy)
        assert set(results) == set(cells)
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST
        assert len(_logical_entries(store)) == len(cells)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forged_receipt_heals_under_one_retry(
        self, tiny, monkeypatch, tmp_path, jobs
    ):
        """A receipt that does not verify costs its unit one transient
        attempt; the retry finds the entries persisted and verifies."""
        _forging(monkeypatch, tmp_path / "forged")
        cells = grid_cells(tiny)
        store = ResultStore(tmp_path / "store")
        manifest = SweepManifest(tmp_path / "manifest.json")
        results = run_grid(
            tiny, cells, jobs=jobs, store=store, manifest=manifest,
            policy=FaultPolicy(max_retries=1, backoff_base_s=0.01),
        )
        assert set(results) == set(cells)
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST
        assert len(_logical_entries(store)) == len(cells)
        assert store.writes == len(cells)  # retried cells count once
        assert manifest.counts() == {
            "pending": 0, "done": len(cells), "failed": 0
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_always_forged_receipts_fail_the_sweep(
        self, tiny, monkeypatch, tmp_path, jobs
    ):
        _forging(monkeypatch)
        cells = grid_cells(tiny)
        with pytest.raises(GridCellError) as excinfo:
            run_grid(
                tiny, cells, jobs=jobs,
                store=ResultStore(tmp_path / "store"),
                policy=FaultPolicy(max_retries=1, backoff_base_s=0.01),
            )
        assert excinfo.value.cell in cells
        assert "receipt digest did not verify" in str(excinfo.value)
        assert "2 attempt(s)" in str(excinfo.value)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_always_forged_receipts_are_transient_failures(
        self, tiny, monkeypatch, tmp_path, jobs
    ):
        _forging(monkeypatch)
        cells = grid_cells(tiny)
        failures = SweepFailureReport()
        manifest = SweepManifest(tmp_path / "manifest.json")
        results = run_grid(
            tiny, cells, jobs=jobs,
            store=ResultStore(tmp_path / "store"),
            manifest=manifest, failures=failures,
            policy=FaultPolicy(
                max_retries=1, backoff_base_s=0.01, on_error="continue"
            ),
        )
        assert results == {}
        assert sorted(failures.cells()) == sorted(cells)
        for failure in failures:
            assert failure.transient
            assert failure.attempts == 2
            assert "receipt digest did not verify" in failure.cause
        assert all(manifest.state(cell) == "failed" for cell in cells)

    @pytest.mark.parametrize("on_error", ["fail", "continue"])
    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_write_error_aborts_unwrapped(
        self, tiny, monkeypatch, tmp_path, jobs, backend, on_error
    ):
        """A full disk is not a simulation failure: the raw ``OSError``
        aborts the sweep in either mode, and every cell the manifest
        calls done has an entry that verifies."""
        import errno

        cells = grid_cells(tiny)
        doomed = cell_key(tiny, "DSR-ODPM", 4.0, 2)
        put_run = ResultStore.put_run

        def full_disk(self, key, result, fingerprint=None):
            if key == doomed:
                raise OSError(errno.ENOSPC, "No space left on device")
            return put_run(self, key, result, fingerprint=fingerprint)

        monkeypatch.setattr(ResultStore, "put_run", full_disk)
        store = ResultStore(tmp_path / "store", backend=backend)
        manifest = SweepManifest(tmp_path / "manifest.json")
        with pytest.raises(OSError) as excinfo:
            run_grid(
                tiny, cells, jobs=jobs, store=store, manifest=manifest,
                failures=SweepFailureReport(),
                policy=FaultPolicy(on_error=on_error),
            )
        assert not isinstance(excinfo.value, GridCellError)
        assert excinfo.value.errno == errno.ENOSPC
        reloaded = SweepManifest.load(tmp_path / "manifest.json")
        assert reloaded.counts()["failed"] == 0
        for cell in reloaded.cells("done"):
            key = cell_key(tiny, cell.protocol, cell.rate_kbps, cell.seed)
            assert store.get_run_entry(key) is not None
        assert GridCell("DSR-ODPM", 4.0, 2) not in reloaded.cells("done")


class TestCostModelScheduling:
    def test_order_is_longest_expected_first(self):
        model = SweepCostModel(duration_s=10.0)
        units = batch_cells(
            [
                GridCell("DSR-ODPM", rate, seed)
                for rate in (2.0, 8.0, 4.0)
                for seed in (1, 2)
            ]
        )
        ordered = model.order(units)
        assert [unit.rate_kbps for unit in ordered] == [8.0, 4.0, 2.0]

    def test_tie_break_is_original_order(self):
        model = SweepCostModel()
        units = [
            GridBatch("DSR-ODPM", 4.0, (1,)),
            GridBatch("TITAN-PC", 4.0, (1,)),
            GridBatch("DSR-Active", 4.0, (1,)),
        ]
        assert model.order(units) == units

    def test_observations_beat_the_rate_prior(self):
        """A protocol observed to be cheap at high rate sinks below one
        observed to be expensive at low rate."""
        model = SweepCostModel(duration_s=10.0)
        model.observe("CHEAP", 8.0, events=10)
        model.observe("DEAR", 2.0, events=10_000)
        units = [
            GridBatch("CHEAP", 8.0, (1,)),
            GridBatch("DEAR", 2.0, (1,)),
        ]
        assert model.order(units)[0].protocol == "DEAR"

    def test_expected_events_resolution_order(self):
        model = SweepCostModel(duration_s=10.0)
        model.observe("P", 2.0, events=100)
        # exact (protocol, rate) observation wins
        assert model.expected_events("P", 2.0) == 100
        # same protocol, other rate: scaled linearly
        assert model.expected_events("P", 4.0) == pytest.approx(200)
        # unseen protocol: any-protocol mean, scaled
        assert model.expected_events("Q", 4.0) == pytest.approx(200)
        # cold model: static prior, proportional to rate and duration
        cold = SweepCostModel(duration_s=10.0)
        assert cold.expected_events("P", 4.0) == pytest.approx(
            2 * cold.expected_events("P", 2.0)
        )

    def test_unit_cost_scales_with_batch_size(self):
        model = SweepCostModel()
        single = GridBatch("P", 4.0, (1,))
        triple = GridBatch("P", 4.0, (1, 2, 3))
        assert model.unit_cost(triple) == pytest.approx(
            3 * model.unit_cost(single)
        )

    @pytest.mark.parametrize("permutation_seed", [1, 2, 3])
    def test_permutation_invariance(
        self, tiny, tmp_path, permutation_seed
    ):
        """Any dispatch order yields identical store bytes and manifest
        state — scheduling is pure wall-clock policy."""
        import random

        cells = grid_cells(tiny)
        reference_store = ResultStore(tmp_path / "ref")
        reference_manifest = SweepManifest(tmp_path / "ref-manifest.json")
        run_grid(
            tiny, cells, jobs=2, store=reference_store,
            manifest=reference_manifest,
        )
        shuffled = list(cells)
        random.Random(permutation_seed).shuffle(shuffled)
        store = ResultStore(tmp_path / "perm")
        manifest = SweepManifest(tmp_path / "perm-manifest.json")
        results = run_grid(
            tiny, shuffled, jobs=2, store=store, manifest=manifest,
        )
        assert _tree(tmp_path / "perm") == _tree(tmp_path / "ref")
        assert manifest._states == reference_manifest._states
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST


class TestSplitForJobs:
    """Properties of the batch splitter, over a grid of shapes."""

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("group_sizes", [(1,), (6,), (3, 3), (5, 2, 1)])
    def test_split_preserves_cells_and_order(self, group_sizes, jobs):
        batches = [
            GridBatch("P%d" % index, 2.0 * (index + 1),
                      tuple(range(1, size + 1)))
            for index, size in enumerate(group_sizes)
        ]
        split = _split_for_jobs(batches, jobs)
        # No cell lost, none duplicated, none moved between groups —
        # and within a group the seed order survives concatenation.
        for original in batches:
            parts = [
                unit for unit in split
                if (unit.protocol, unit.rate_kbps)
                == (original.protocol, original.rate_kbps)
            ]
            rejoined = tuple(
                seed for unit in parts for seed in unit.seeds
            )
            assert rejoined == original.seeds
        assert all(unit.seeds for unit in split)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("group_sizes", [(1,), (6,), (3, 3), (5, 2, 1)])
    def test_split_feeds_every_worker_it_can(self, group_sizes, jobs):
        batches = [
            GridBatch("P%d" % index, 2.0 * (index + 1),
                      tuple(range(1, size + 1)))
            for index, size in enumerate(group_sizes)
        ]
        split = _split_for_jobs(batches, jobs)
        total = sum(group_sizes)
        assert len(split) >= min(jobs, total, len(batches))
        # Splitting never explodes past one unit per cell.
        assert len(split) <= total

    def test_exact_pinned_shape_unchanged(self):
        """The shape test_batch.py pins — kept here as a regression
        anchor for the scheduler-era splitter."""
        one_group = [GridBatch("DSR-ODPM", 2.0, (1, 2, 3, 4, 5, 6))]
        assert [unit.seeds for unit in _split_for_jobs(one_group, 4)] == [
            (1, 2), (3, 4), (5,), (6,)
        ]


class TestReporterReadout:
    def test_events_per_second_column(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=2, enabled=True, stream=stream)
        reporter.note_events(50_000)
        reporter.advance(GridCell("DSR-ODPM", 2.0, 1))
        assert "ev/s" in stream.getvalue()

    def test_eta_ignores_time_spent_reading_the_cache(self):
        """A long cache-read prefix must not inflate the live ETA."""
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=4, enabled=True, stream=stream)
        # Pretend the sweep spent ages before the cache partition ended.
        reporter._start = time.monotonic() - 1000.0
        reporter.cached(2)
        reporter.advance(GridCell("DSR-ODPM", 2.0, 1))
        line = stream.getvalue().splitlines()[-1]
        eta = float(line.split("ETA")[1].split("s")[0])
        # One live cell took ~0s, one remains: ETA must be seconds, not
        # the ~500s a total-elapsed extrapolation would project.
        assert eta < 100.0

    def test_busy_samples_integrate_to_utilization(self):
        reporter = ProgressReporter(total=4, enabled=False)
        reporter.jobs = 2
        reporter._live_start = time.monotonic() - 1.0
        reporter.note_busy(2)
        reporter._busy_sample = (time.monotonic() - 1.0, 2)
        reporter.note_busy(0)
        assert reporter._busy_s == pytest.approx(2.0, rel=0.05)
        assert 0.0 < reporter.utilization <= 1.0

    def test_finish_prints_summary_only_after_live_cells(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=2, enabled=True, stream=stream)
        reporter.cached(2)
        reporter.finish()
        assert "simulated" not in stream.getvalue()
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, enabled=True, stream=stream)
        reporter.note_events(1000)
        reporter.advance(GridCell("DSR-ODPM", 2.0, 1))
        reporter.finish()
        summary = stream.getvalue().splitlines()[-1]
        assert "1 cell(s) simulated" in summary
        assert "events/s" in summary


class TestTerminateWorkers:
    def test_terminated_workers_are_reaped_not_zombied(self):
        """After _terminate_workers every worker dies *and* is waited on
        (exitcode collected, pid gone from the process table), so no
        defunct entries accumulate.

        The executor's management thread reaps the same processes
        concurrently, so ``is_alive()`` read right after termination
        can race it; joining that thread first makes the check exact.
        """
        import os
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=2)
        pool.submit(time.sleep, 60)
        pool.submit(time.sleep, 60)
        # Let the workers actually spawn and pick the tasks up.
        deadline = time.monotonic() + 10.0
        while len(pool._processes) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        processes = list(pool._processes.values())
        _terminate_workers(pool, join_timeout_s=10.0)
        pool.shutdown(wait=True, cancel_futures=True)
        for process in processes:
            assert process.exitcode is not None
            with pytest.raises(ProcessLookupError):
                os.kill(process.pid, 0)
