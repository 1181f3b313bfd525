"""Tests for the profiling helpers behind ``--profile`` (:mod:`repro.perf`)."""

from __future__ import annotations

import pytest

from repro.perf import profile_call


class TestProfileCall:
    def test_returns_result_and_report(self):
        result, report = profile_call(lambda: sum(range(1000)))
        assert result == sum(range(1000))
        assert "cumulative" in report  # pstats sort header
        assert "function calls" in report

    def test_dump_path_writes_pstats_file(self, tmp_path):
        import pstats

        dump = tmp_path / "profile.pstats"
        profile_call(lambda: sorted(range(100)), dump_path=str(dump))
        assert dump.exists()
        stats = pstats.Stats(str(dump))  # must be loadable
        assert stats.total_calls >= 1

    def test_exception_propagates_after_disable(self):
        with pytest.raises(RuntimeError, match="boom"):
            profile_call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))


class TestCli:
    def test_profile_flag_prints_report(self, capsys):
        from repro.cli import main

        assert main(["table1", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "function calls" in captured.err

    def test_profile_dump_writes_stats(self, tmp_path, capsys):
        from repro.cli import main

        dump = tmp_path / "cli.pstats"
        assert main(["table1", "--profile", "--profile-dump", str(dump)]) == 0
        assert dump.exists()
        assert "raw profile dumped" in capsys.readouterr().err
