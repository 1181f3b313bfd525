"""Repository benchmark: cells/s, set-up time and memory on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload reactive-field --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``cells_per_s`` over the timed closed loop, ``setup_s`` (median wall time
of fresh interpreters from start to their first timed call) and
``peak_rss_mb`` (largest resident set of this process and its pool
workers).  Both timings are scaled to the reference host's speed by the
:mod:`hostspeed` probes, timed next to the measured calls; the wall
figures are printed and recorded beside them.  ``--trace 1`` runs the
workload's first unit untraced, then twice traced, and reports the
per-layer metrics of :mod:`layers`; their counts must repeat exactly
across the two traced passes.

Every cell is checked: invariants on its result, its payload digest
against ``references.json`` when the seed has references, and on the
campaign the cached re-sweep and the report against the cold pass.  The
last stdout line is the JSON result; everything above it is for people.
A full record (provenance, digests, timings, trace) goes to
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 3
#: Host-speed probing after each timed call, as a share of its seconds.
PROBE_SHARE = 0.1
END_TO_END_UNITS = {"cells_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="internal: set the workload up, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def load_repro():
    """Import the checkout's ``repro`` (never an installed copy)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no repro sources under %s" % source)
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit("perfbench: imported repro from %s" % repro.__file__)


def setup(workload_name: str, seed: int):
    """Everything before the first timed call: imports, scenarios, cells."""
    load_repro()
    import workloads

    workload = workloads.build(workload_name)
    workload.unit(seed, 0)
    return workload


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters from start to their first timed call,
    and the start-up probes taken before each interpreter and after the last."""
    import hostspeed

    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--probe-setup"]
    samples, startups = [], [hostspeed.startup_probe()]
    for _ in range(SETUP_PROBES):
        samples.append(hostspeed.ready_seconds(command, cwd=ROOT))
        startups.append(hostspeed.startup_probe())
    return samples, startups


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every pool worker this process forked has exited."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers still alive after %.0f s" % timeout_s)
        time.sleep(0.05)


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance() -> dict:
    """Interpreter, platform, CPU count and code version of this result."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else ():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
    }


@dataclass
class UnitTiming:
    """What a timed run keeps of a unit once its cells are checked."""

    timed_s: float
    extra: dict


class Checker:
    """Per-cell output checks; collects digests and failures."""

    def __init__(self, workload: str, seed: int) -> None:
        import workloads

        self.workloads = workloads
        data = json.loads((HERE / "references.json").read_text())
        self.width = data["digest_chars"]
        self.references = data["references"].get(workload, {}).get(str(seed), [])
        self.attempted = 0
        self.failed = 0
        self.referenced = 0
        self.problems: list[str] = []
        self.digests: list[list[str]] = []

    def check(self, index: int, outcome) -> list[str]:
        """Check one unit's cells; returns their digests in cell order."""
        expected = self.references[index] if index < len(self.references) else None
        digests = []
        for position, (scenario, cell) in enumerate(outcome.cells):
            ident = self.workloads.cell_id(scenario, cell)
            result = outcome.results.get(ident)
            self.attempted += 1
            if result is None:
                problems = ["raised"]
                digests.append("")
            else:
                problems = self.workloads.check_result(scenario, cell, result)
                value = self.workloads.digest(result)
                digests.append(value)
                if expected is not None:
                    self.referenced += 1
                    if value[: self.width] != expected[position]:
                        problems.append("digest differs from references.json")
            problems += outcome.problems.get(ident, [])
            if problems:
                self.failed += 1
                self.problems.append("%s: %s" % (ident, "; ".join(problems)))
        for ident, problems in outcome.problems.items():
            if ident not in outcome.results:
                self.problems.append("%s: %s" % (ident, "; ".join(problems)))
        self.digests.append(digests)
        return digests

    def content_digest(self) -> str:
        """sha256 over the first unit's cell digests, in cell order."""
        return hashlib.sha256("\n".join(self.digests[0]).encode()).hexdigest()


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy, networkx and repro's own.

    Parsed from ``python -X importtime`` in a fresh interpreter importing
    what the benchmark's set-up imports.  A package's time is the
    cumulative time of its outermost entries minus the other three
    packages nested inside them, so ``import.repro_s`` is ``repro``'s own
    time outside numpy, scipy and networkx.
    """
    code = (
        "import sys; sys.path.insert(0, %r); sys.path.insert(0, %r); import workloads"
        % (str(HERE), str(ROOT / "src"))
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    pending: dict[int, list] = {}  # depth -> finished nodes awaiting a parent
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        node = (name.strip(), int(cumulative_us), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = {"numpy": 0, "scipy": 0, "networkx": 0, "repro": 0}

    def walk(node, inside: str | None) -> None:
        name, cumulative, children = node
        top = name.split(".")[0]
        if top in totals and top != inside:
            totals[top] += cumulative
            if inside is not None:
                totals[inside] -= cumulative
            inside = top
        for child in children:
            walk(child, inside)

    for level in pending.values():
        for node in level:
            walk(node, None)
    return {
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.networkx_s": totals["networkx"] / 1e6,
        "import.repro_s": totals["repro"] / 1e6,
    }


def timed_run(args, workload, workdir: Path, record: dict) -> dict:
    """``--trace 0``: the closed loop, then set-up probes and memory."""
    import hostspeed

    checker = Checker(args.workload, args.seed)
    outcomes, speed = [], []

    def probe_host(elapsed: float) -> None:
        # Pool workers still exiting would slow the probe, not the work.
        reap_children()
        speed.extend(hostspeed.sample(PROBE_SHARE * elapsed))

    # Each unit is checked as soon as it ends and only its timings are
    # kept, so the heap the collector walks does not grow over the run.
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        outcome = workload.run_unit(args.seed, index, workdir, between=probe_host)
        checker.check(index, outcome)
        outcomes.append(UnitTiming(outcome.timed_s, outcome.extra))
        index += 1
    timed_s = sum(outcome.timed_s for outcome in outcomes)
    wall_rate = checker.attempted / timed_s
    loop_factor = hostspeed.factor(speed)
    reap_children()
    setup_walls, startups = setup_seconds(args.workload, args.seed)
    # Each interpreter is scaled by the start-up probes just before and after it.
    setup_factors = [
        hostspeed.factor(pair, hostspeed.STARTUP_REFERENCE_S)
        for pair in zip(startups, startups[1:])
    ]
    metrics = {
        "cells_per_s": wall_rate * loop_factor,
        "setup_s": statistics.median(
            wall / factor for wall, factor in zip(setup_walls, setup_factors)
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [
        ("cells_per_s", "%.4f 1/s  (%d cells in %.3f s over %d units: %.4f wall "
         "x host %.3f)" % (
             metrics["cells_per_s"], checker.attempted, timed_s, len(outcomes),
             wall_rate, loop_factor)),
        ("setup_s", "%.4f s  (median of %s)" % (metrics["setup_s"], ", ".join(
            "%.3f wall / host %.3f" % pair for pair in zip(setup_walls, setup_factors)
        ))),
        ("peak_rss_mb", "%.1f MB" % metrics["peak_rss_mb"]),
        ("failed_frac", "%.4f  (%d of %d cells)"
         % (checker.failed / checker.attempted, checker.failed, checker.attempted)),
    ]
    if outcomes[0].extra:
        cached_s = sum(outcome.extra["cached_s"] for outcome in outcomes)
        reports = [outcome.extra["report_s"] for outcome in outcomes]
        lines += [
            ("cached_cells_per_s", "%.1f 1/s  (%d cells re-served in %.4f s, wall)"
             % (checker.attempted / cached_s, checker.attempted, cached_s)),
            ("report_s", "%.5f s  (median of %d reports, wall)"
             % (statistics.median(reports), len(reports))),
        ]
        record["cached_cells_per_s"] = checker.attempted / cached_s
        record["report_s"] = statistics.median(reports)
    record.update(
        unit_timed_s=[outcome.timed_s for outcome in outcomes], timed_s=timed_s,
        setup_walls_s=setup_walls, host_probe_s=speed, startup_probe_s=startups,
        host_factor=loop_factor, setup_host_factors=setup_factors,
        wall_cells_per_s=wall_rate, wall_setup_s=statistics.median(setup_walls),
    )
    return finish(args, checker, metrics, END_TO_END_UNITS, lines, record)


def traced_run(args, workload, workdir: Path, record: dict) -> dict:
    """``--trace 1``: untraced first unit, then two traced passes of it."""
    import layers
    from tracing import Tracer

    checker = Checker(args.workload, args.seed)
    untraced = workload.run_unit(args.seed, 0, workdir)
    reference = checker.check(0, untraced)
    reap_children()

    tracer = Tracer()
    tracer.calibrate()
    tracer.install()
    passes = []
    for number in (1, 2):
        tracer.out_dir = workdir / ("trace-%d" % number)
        tracer.out_dir.mkdir(parents=True)
        tracer.active = True
        outcome = workload.run_unit(args.seed, 0, workdir, tracer)
        tracer.active = False
        reap_children()
        trace = tracer.collect()
        if checker.check(0, outcome) != reference:
            checker.problems.append("traced pass %d changed cell digests" % number)
        values = layers.metrics(trace, outcome.extra)
        passes.append((outcome, trace, values))
        for problem in layers.consistency(trace):
            checker.problems.append("traced pass %d: %s" % (number, problem))
        simulated = sum(1 for result in outcome.results.values() if result is not None)
        if trace["counts"].get("cells", 0) != simulated:
            checker.problems.append(
                "traced pass %d saw %d simulated cells, expected %d (pool-worker "
                "spans lost?)" % (number, trace["counts"].get("cells", 0), simulated)
            )

    first, second = passes[0][2], passes[1][2]
    mismatched = [
        "%s: %r != %r" % (name, first[name], second[name])
        for name in layers.COUNTS if first[name] != second[name]
    ]
    bypassed = [
        "%s = %r on %s, which bypasses its layer" % (name, first[name], args.workload)
        for name, where in layers.BYPASS.items()
        if args.workload in where and first[name] != 0
    ]
    checker.problems += ["count not repeated: " + line for line in mismatched]
    checker.problems += ["bypass violated: " + line for line in bypassed]

    metrics = {
        name: (value + second[name]) / 2 if layers.unit(name) == "s" else value
        for name, value in first.items()
    }
    traced_s = sum(outcome.timed_s for outcome, _, _ in passes) / 2
    metrics["trace.overhead"] = traced_s / untraced.timed_s
    metrics.update(import_breakdown())

    selfs = layers.self_times(passes[0][1])
    ranked = sorted(
        ((selfs.get(layer, 0.0), layer) for layer in layers.SIM_LAYERS), reverse=True
    )
    lines = [
        (name, "%r %s" % (metrics[name], layers.unit(name))) for name in layers.METRICS
    ]
    lines.append(("self-time rank", ", ".join(
        "%s %.3f" % (layer, seconds) for seconds, layer in ranked[:5]
    )))
    lines.append(("count repeat", "ok" if not mismatched else "%d differ" % len(mismatched)))
    lines.append(("bypass", "ok" if not bypassed else "%d violated" % len(bypassed)))
    record["trace"] = {
        "untraced_s": untraced.timed_s,
        "traced_s": [outcome.timed_s for outcome, _, _ in passes],
        "passes": [values for _, _, values in passes],
        "spans": passes[0][1]["spans"],
        "hot": passes[0][1]["hot"],
        "workers": passes[0][1]["workers"],
        "calibration": tracer.calibration,
    }
    record["layers"] = [
        {"layer": layer, "metrics": list(names), "moves": moves,
         "most_work": most, "little_work": little}
        for layer, names, moves, most, little in layers.LAYERS
    ]
    units = {name: layers.unit(name) for name in metrics}
    return finish(args, checker, metrics, units, lines, record)


def finish(args, checker: Checker, metrics: dict, units: dict, lines, record: dict) -> dict:
    """Print the summary, write the record and return the result line."""
    lines.append(("content_digest", "%s  (unit 0, %d cells)"
                  % (checker.content_digest(), len(checker.digests[0]))))
    lines.append(("references", "%d of %d cells checked against references.json"
                  % (checker.referenced, checker.attempted)))
    for name, text in lines:
        print("  %-28s %s" % (name, text))
    for problem in checker.problems:
        print("  FAILED %s" % problem)
    result = {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    record.update(
        result=result,
        problems=checker.problems,
        content_digest=checker.content_digest(),
        digests=checker.digests,
    )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.probe_setup:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    workload = setup(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
    }
    print("perfbench %s seed=%d trace=%d | %s" % (
        args.workload, args.seed, args.trace, json.dumps(record["provenance"])
    ))
    # Fixed width: the report embeds the store path, and report.bytes must
    # not depend on how many digits the pid has.
    workdir = OUT / ("work-%010d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        result = run(args, workload, workdir, record)
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
