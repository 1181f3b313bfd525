"""Shared benchmark utilities: table printing and run-once wrappers.

Every benchmark regenerates one table or figure of the paper and prints the
same rows/series the paper reports.  Simulation benches execute exactly once
(``benchmark.pedantic`` with a single round) because a run takes seconds and
the *output* — not the wall-clock — is the deliverable; microbenches use the
normal calibrated timing loop.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

import pytest

#: Worker processes for the figure sweeps.  Every sweep is byte-identical
#: at any ``jobs`` (serial == parallel, pinned by the determinism tests),
#: so this sets only the wall-clock; the cap keeps a many-core host from
#: forking a worker per cell.
BENCH_JOBS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def bench_store(tmp_path_factory):
    """One result store shared by the figure sweeps of a session.

    Figs. 8-9, 10 and 11-12 sweep overlapping cells of the same bench
    scenarios (Fig. 10's TITAN-PC and DSR-ODPM rows in both fields); a
    cell one bench simulated is read back by the next instead of run
    again.  A cached result equals a fresh one byte for byte (the
    determinism contract), so every figure and assertion is unchanged.
    """
    from repro.experiments.store import ResultStore

    return ResultStore(tmp_path_factory.mktemp("bench-store"))


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print an aligned table under a banner (captured by pytest -s)."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    widths = [
        max(len(str(header[i])), *(len(_fmt(row[i])) for row in rows))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return "%.0f" % cell
        if abs(cell) >= 10:
            return "%.1f" % cell
        return "%.3f" % cell
    return str(cell)


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run a heavyweight experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
