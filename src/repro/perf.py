"""Profiling helpers behind every CLI command's ``--profile`` flag.

``--profile`` wraps the command in :mod:`cProfile` and prints a top-N
hot-spot report (``--profile-dump PATH`` also keeps the raw stats for
``pstats``/``snakeviz``); :func:`profile_call` is the library form of the
same thing.  Throughput is measured by the repo benchmark
(``python3 perfbench/run.py``, see ``docs/performance.md``).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from typing import Any, Callable, TextIO


def profile_call(
    func: Callable[[], Any],
    top: int = 25,
    sort: str = "cumulative",
    dump_path: str | None = None,
) -> tuple[Any, str]:
    """Run ``func`` under :mod:`cProfile`; return ``(result, report)``.

    ``report`` is the top-``top`` table sorted by ``sort`` (any key
    :mod:`pstats` accepts: ``cumulative``, ``tottime``, ``calls`` ...).
    ``dump_path`` additionally saves the raw profile for later analysis
    with ``pstats.Stats(path)`` or snakeviz.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = func()
    finally:
        profiler.disable()
    if dump_path:
        profiler.dump_stats(dump_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return result, buffer.getvalue()


def print_profile_report(
    report: str, dump_path: str | None = None, stream: TextIO | None = None
) -> None:
    """Print a :func:`profile_call` report (to stderr by default)."""
    stream = stream if stream is not None else sys.stderr
    print(report, file=stream)
    if dump_path:
        print(
            "raw profile dumped to %s (inspect with python -m pstats, or "
            "snakeviz)" % dump_path,
            file=stream,
        )
