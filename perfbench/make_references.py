"""Regenerate ``references.json``: the payload digest of every cell the
benchmark runs for workload seeds 0-10.

    python3 perfbench/make_references.py

Field units 0-9 and campaign units 0-11 are covered, more than a run of
``run_seconds`` completes on the machine the numbers were taken on; cells
beyond them are still checked by the invariants.  Digests are
``canonical_digest(RunResult.to_payload())`` cut to ``DIGEST_CHARS`` hex
characters.  Rerun only when a change is meant to alter simulation
output, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(0, 11)
FIELD_UNITS = 10
CAMPAIGN_UNITS = 12
DIGEST_CHARS = 16


def field_references(workload, jobs: int) -> dict:
    from repro.experiments import run_grid

    import workloads

    units = {
        (seed, index): workload.unit(seed, index)
        for seed in SEEDS
        for index in range(FIELD_UNITS)
    }
    digests = {}
    for position, (scenario, _) in enumerate(workload.groups):
        cells = [cell for groups in units.values() for cell in groups[position][1]]
        results = run_grid(scenario, cells, jobs=jobs)
        for cell, result in results.items():
            digests[(scenario.name, cell)] = workloads.digest(result)
    return {
        str(seed): [
            [
                digests[(scenario.name, cell)][:DIGEST_CHARS]
                for scenario, group in units[(seed, index)]
                for cell in group
            ]
            for index in range(FIELD_UNITS)
        ]
        for seed in SEEDS
    }


def campaign_references(workload, workdir: Path) -> dict:
    import workloads

    references = {}
    for seed in SEEDS:
        references[str(seed)] = []
        for index in range(CAMPAIGN_UNITS):
            outcome = workload.run_unit(seed, index, workdir)
            if outcome.problems:
                raise RuntimeError("campaign unit failed: %r" % outcome.problems)
            references[str(seed)].append([
                workloads.digest(outcome.results[workloads.cell_id(scenario, cell)])[:DIGEST_CHARS]
                for scenario, cell in outcome.cells
            ])
    return references


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run.load_repro()
    import workloads

    workdir = run.OUT / "references"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    references = {}
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name)
            if name == "campaign":
                references[name] = campaign_references(workload, workdir)
            else:
                references[name] = field_references(workload, workloads.campaign_jobs())
            print("%s: done" % name, flush=True)
    finally:
        run.reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    data = {"digest_chars": DIGEST_CHARS, "references": references}
    (HERE / "references.json").write_text(
        json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
