"""Batched execution: per-seed amortized setup cost, batch vs per-cell.

Not a paper artifact — this bench exercises the batched dispatch layer
(:class:`repro.experiments.parallel.GridBatch` /
:func:`repro.experiments.runner.run_batch`) at the density scales where
the per-seed setup (placement + channel-geometry freeze) is the dominant
non-simulation cost, and reports the per-seed amortized construction cost
both ways.  The committed dev-machine numbers live in ``BENCH_batch.json``
(regenerate with ``python -m repro perf-batch``); this bench re-measures
them wherever the suite runs and pins the invariants:

* batched results are **bit-identical** to per-cell results;
* batched per-seed setup is never slower than per-cell at density scale
  (the ≥1.5x headline is recorded from a quiet machine, not asserted on
  noisy CI runners).
"""

from repro.experiments.parallel import grid_cells, run_grid
from repro.experiments.runner import run_batch, run_single
from repro.experiments.scenarios import grid_network
from repro.perf import run_batch_benchmarks

from conftest import print_table, run_once

NODE_COUNTS = (100, 300, 400)
SEEDS = 4


def test_bench_batch_setup_amortization(benchmark):
    report = run_once(
        benchmark,
        run_batch_benchmarks,
        node_counts=NODE_COUNTS,
        seeds=SEEDS,
    )
    entries = sorted(
        report["benchmarks"]["batch_setup"].values(),
        key=lambda entry: entry["node_count"],
    )
    rows = [
        (
            entry["node_count"],
            entry["seeds"],
            "%.1f" % (entry["per_seed_per_cell"] * 1e3),
            "%.1f" % (entry["per_seed_batched"] * 1e3),
            "%.2fx" % entry["amortized_setup_speedup"],
        )
        for entry in entries
    ]
    print_table(
        "Per-seed setup cost: batched vs per-cell dispatch",
        ["Nodes", "Seeds", "Per-cell (ms)", "Batched (ms)", "Speedup"],
        rows,
    )
    # Loose bound on purpose: shared runners are noisy.  The dense rows
    # must at least never regress below parity; the recorded >=1.5x
    # headline lives in BENCH_batch.json / docs/performance.md.
    for entry in entries:
        if entry["node_count"] >= 300:
            assert entry["amortized_setup_speedup"] > 1.0


def test_bench_batch_results_bit_identical(benchmark):
    """One real batched seed group equals its per-cell reference runs."""
    scenario = grid_network(scale="smoke")
    seeds = (1, 2)

    def both():
        batched = run_batch(scenario, "DSR-ODPM", 2.0, seeds)
        singles = [
            run_single(scenario, "DSR-ODPM", 2.0, seed) for seed in seeds
        ]
        grid = run_grid(
            scenario, grid_cells(scenario, ("DSR-ODPM",), (2.0,), seeds)
        )
        return batched, singles, grid

    batched, singles, grid = run_once(benchmark, both)
    assert [r.to_payload() for r in batched] == [
        r.to_payload() for r in singles
    ]
    for cell, result in grid.items():
        assert (
            result.to_payload()
            == singles[seeds.index(cell.seed)].to_payload()
        )
