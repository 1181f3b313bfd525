"""Payload pins for every built-in protocol and the dynamic presets.

``smoke_pins.json`` holds one payload digest per cell of
``smoke_pins.CELLS``, recorded by ``tests/smoke_pins.py``.  The digests
are read from the runs the teardown tests make (the session-scoped
``smoke_runs`` fixture), so each cell is simulated once.  A change that
moves any of them changes simulation output: rerun the generator only if
that is the intent, and name the moved cells.
"""

import pytest

import smoke_pins

PINS = smoke_pins.load()


def test_table_covers_every_cell():
    assert set(PINS) == set(smoke_pins.CELLS)


@pytest.mark.parametrize(
    "cell_id", list(smoke_pins.CELLS), ids=list(smoke_pins.CELLS)
)
def test_payload_digest_pinned(smoke_runs, cell_id):
    assert smoke_runs[cell_id].digest == PINS[cell_id], cell_id
