"""Host-speed probes: fixed jobs timed between the benchmark's measured calls.

On a shared host the CPU a process gets drifts by tens of percent over
seconds to minutes, as other tenants load the same cores and memory, and
every timing the benchmark takes drifts with it.  Two probes, neither of
which uses anything from ``repro`` (so no change to the program moves
them), measure that drift next to the work they correct:

- :func:`probe`, a small discrete-event loop (heap pushes and pops, dict
  updates and float arithmetic, like the simulator's inner loop), for the
  timed closed loop;
- :func:`startup_probe`, a fresh interpreter importing a fixed set of
  standard-library modules, for set-up time, which pays process start,
  page faults and imports rather than interpreter loops.

Each probe's time over its reference time is how much slower the host ran
than the reference host; :func:`factor` gives that ratio.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import subprocess
import sys
import time

#: Seconds of one :func:`probe` and one :func:`startup_probe` on the
#: reference host (a 2-vCPU x86-64 VM running CPython 3.11) when it is
#: lightly loaded.  Only fixed scales: they make the scaled figures read
#: like wall figures on that host.
REFERENCE_S = 0.0140
STARTUP_REFERENCE_S = 0.100

#: What :func:`startup_probe` imports: pure-Python packages and C extensions.
STARTUP_MODULES = (
    "argparse", "asyncio", "csv", "ctypes", "decimal", "email.mime.multipart",
    "http.client", "json", "logging", "multiprocessing", "sqlite3", "ssl",
    "tarfile", "unittest", "xml.dom.minidom", "zipfile",
)

#: Events one probe fires.
EVENTS = 25000


def _job(events: int) -> float:
    """A discrete-event loop over 251 nodes: heap events, per-node energy
    charges, each event scheduling the next.  Events are plain tuples and
    nothing forms a reference cycle, so the job leaves no garbage for the
    collector."""
    queue = [(node / 64.0, node) for node in range(64)]
    heapq.heapify(queue)
    energy: dict[int, float] = {}
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(events):
        now, node = pop(queue)
        energy[node] = energy.get(node, 0.0) + 0.0012 * (1 + node % 3)
        push(queue, (now + 0.37 + (node * 7919 % 113) / 97.0, (node * 31 + 7) % 251))
    return sum(energy.values())


def probe() -> float:
    """Wall seconds of one fixed job, with the cyclic collector paused so
    that collecting the benchmark's own objects never lands in a probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _job(EVENTS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def ready_seconds(argv: list[str], cwd=None) -> float:
    """Wall seconds from starting ``argv`` until it prints ``ready``; the
    child has ended when this returns or raises."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        code = child.wait(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or line != "ready":
        raise RuntimeError("%s did not get ready (%r)" % (argv[1:], line))
    return elapsed


def startup_probe() -> float:
    """Wall seconds for a fresh interpreter to import :data:`STARTUP_MODULES`."""
    code = "import %s; print('ready', flush=True)" % ", ".join(STARTUP_MODULES)
    return ready_seconds([sys.executable, "-c", code])


def sample(seconds: float) -> list[float]:
    """Run :func:`probe` for ``seconds`` of wall time, at least once."""
    deadline = time.perf_counter() + seconds
    samples = [probe()]
    while time.perf_counter() < deadline:
        samples.append(probe())
    return samples


def factor(samples: list[float], reference: float = REFERENCE_S) -> float:
    """How much slower the host ran than the reference host (> 1: slower).

    The mean, not the median: the host switches between a fast and a slow
    mode within seconds, and the median of such samples jumps between the
    modes while the mean follows the time spent in each.
    """
    return statistics.mean(samples) / reference
