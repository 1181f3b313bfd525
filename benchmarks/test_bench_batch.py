"""Batched execution: one batched seed group against per-cell runs.

Not a paper artifact — this bench exercises the batched dispatch layer
(:class:`repro.experiments.parallel.GridBatch` /
:func:`repro.experiments.runner.run_batch`) and pins its invariant:
batched results are **bit-identical** to per-cell results.  Sweep
throughput and per-cell setup time are measured by the repo benchmark
(``python3 perfbench/run.py``, see ``docs/performance.md``).
"""

from repro.experiments.parallel import grid_cells, run_grid
from repro.experiments.runner import run_batch, run_single
from repro.experiments.scenarios import grid_network

from conftest import run_once


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
