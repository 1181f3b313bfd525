"""Smoke tests: every example script runs to completion and says something.

Examples are user-facing deliverables; these tests keep them working as the
library evolves.  Each is executed in-process (fast, importable) with its
stdout captured.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def builtin_protocols():
    """Give later tests the built-in protocol registry back.

    ``custom_protocol.py`` registers ``LIFETIME-ODPM`` in the shared
    ``PROTOCOLS`` dict; without this, the preset would stay there for the
    rest of the session.
    """
    from repro.sim.network import PROTOCOLS

    saved = dict(PROTOCOLS)
    yield saved
    PROTOCOLS.clear()
    PROTOCOLS.update(saved)


FAST_EXAMPLES = [
    "quickstart.py",
    "characteristic_hop_count.py",
    "steiner_design.py",
    "custom_protocol.py",
    "lifetime_analysis.py",
    "parallel_sweep.py",
    "mobile_sweep.py",
    "traffic_mix.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), path
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100, "example %s produced no meaningful output" % script


def test_quickstart_reports_all_protocols(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    for protocol in ("TITAN-PC", "DSR-ODPM", "DSR-Active"):
        assert protocol in out


def test_hop_count_example_names_threshold(capsys):
    runpy.run_path(
        str(EXAMPLES_DIR / "characteristic_hop_count.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert "crosses m_opt = 2" in out
    assert "FCC" in out


def test_custom_protocol_example_cleans_registry(builtin_protocols):
    """The example registers LIFETIME-ODPM; re-running must not crash, and
    the ``builtin_protocols`` fixture removes it again afterwards."""
    from repro.sim.network import PROTOCOLS

    assert "LIFETIME-ODPM" not in builtin_protocols
    runpy.run_path(str(EXAMPLES_DIR / "custom_protocol.py"), run_name="__main__")
    assert set(PROTOCOLS) == set(builtin_protocols) | {"LIFETIME-ODPM"}
    # Idempotent re-registration (the example overwrites its own preset).
    runpy.run_path(str(EXAMPLES_DIR / "custom_protocol.py"), run_name="__main__")


def test_protocol_shootout_exists_and_importable():
    """The shootout takes minutes; verify structure without running main."""
    path = EXAMPLES_DIR / "protocol_shootout.py"
    assert path.exists()
    module_vars = runpy.run_path(str(path), run_name="not_main")
    assert "simulated_low_rate" in module_vars
    assert "frozen_high_rates" in module_vars
    assert len(module_vars["PROTOCOLS"]) == 6
