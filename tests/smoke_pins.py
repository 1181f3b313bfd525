"""Smoke-scale payload pins: one digest per built-in protocol and preset.

    PYTHONPATH=src python tests/smoke_pins.py

reruns every cell of :data:`CELLS` and rewrites ``smoke_pins.json`` next
to this file.  A cell is one ``runner.run_single`` call at smoke scale,
4 Kbit/s, seed 1; its pin is ``canonical_digest(RunResult.to_payload())``.
The table covers all 12 protocols of ``PROTOCOLS`` on ``small_network``,
the dynamic presets and channel models ``tests/test_teardown.py`` runs,
and ``mobile_small`` under TITAN-PC, on the disc and under a lossy,
shadowed ``prob`` model (the one pinned cell where a moving topology's
table distances reach a channel model).  ``tests/test_smoke_pins.py`` checks
it from the runs the teardown tests make (see ``smoke_runs`` in
``tests/conftest.py``), so the check costs tier-1 about one extra cell.

Rerun only when a change is meant to alter simulation output, and name
the cells whose digests moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().with_name("smoke_pins.json")
RATE_KBPS = 4.0
SEED = 1

#: Cell id -> (scenario preset, channel model arguments or None, protocol).
CELLS: dict[str, tuple[str, tuple | None, str]] = {
    "DSR-ODPM": ("small_network", None, "DSR-ODPM"),
    "TITAN-PC": ("small_network", None, "TITAN-PC"),
    "DSR-Active": ("small_network", None, "DSR-Active"),
    "DSDVH-ODPM": ("small_network", None, "DSDVH-ODPM"),
    "DSDVH-Span": ("small_network", None, "DSDVH-ODPM(0.6,1.2)-Span"),
    "DSR-Span": ("small_network", None, "DSR-Span"),
    "DSDV-ODPM": ("small_network", None, "DSDV-ODPM"),
    "DSR-ODPM-PC": ("small_network", None, "DSR-ODPM-PC"),
    "DSRH-ODPM(norate)": ("small_network", None, "DSRH-ODPM(norate)"),
    "DSRH-ODPM(rate)": ("small_network", None, "DSRH-ODPM(rate)"),
    "MTPR-ODPM": ("small_network", None, "MTPR-ODPM"),
    "MTPR+-ODPM": ("small_network", None, "MTPR+-ODPM"),
    "mobile_small": ("mobile_small", None, "DSR-ODPM"),
    "churn_grid": ("churn_grid", None, "DSR-ODPM"),
    "lossy_small": ("lossy_small", None, "TITAN-PC"),
    "rssi-margin": (
        "small_network", ("rssi-margin", (("margin", 6.0),)), "DSR-ODPM"
    ),
    "bursty_small": ("bursty_small", None, "DSR-ODPM"),
    "mobile_small-TITAN-PC": ("mobile_small", None, "TITAN-PC"),
    "mobile_small-prob": (
        "mobile_small", ("prob", (("loss", 0.2), ("sigma", 3.0))), "TITAN-PC"
    ),
}


def scenario_of(cell_id: str):
    """The smoke-scale scenario of one cell."""
    from repro.experiments import scenarios
    from repro.sim.channel_models import ChannelSpec

    preset, channel, _ = CELLS[cell_id]
    scenario = getattr(scenarios, preset)(scale="smoke")
    if channel is not None:
        scenario = scenario.with_channel(ChannelSpec(*channel))
    return scenario


def run_cell(cell_id: str):
    """Run one cell the way a sweep does and return its ``RunResult``."""
    from repro.experiments import runner

    return runner.run_single(
        scenario_of(cell_id), CELLS[cell_id][2], RATE_KBPS, SEED
    )


def digest(result) -> str:
    from repro.experiments.backends import canonical_digest

    return canonical_digest(result.to_payload())


def load() -> dict[str, str]:
    """The recorded digests, by cell id."""
    return json.loads(TABLE.read_text())["digests"]


def main() -> int:
    digests = {}
    for cell_id in CELLS:
        digests[cell_id] = digest(run_cell(cell_id))
        print("%-24s %s" % (cell_id, digests[cell_id]), file=sys.stderr)
    table = {
        "rate_kbps": RATE_KBPS,
        "seed": SEED,
        "scale": "smoke",
        "digests": digests,
    }
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
