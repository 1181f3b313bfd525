"""Campaign report: aggregation model, HTML rendering, CLI, determinism.

The acceptance bar for the reporting subsystem:

* the campaign model rebuilt from a store reproduces the aggregates the
  sweep itself would have computed (``aggregate_runs`` parity, rate
  recovery from flow specs, ascending-seed folding);
* ``render_html`` is byte-deterministic — two renders over the same
  store are identical — and fully offline: no ``http(s)://`` or
  ``file://`` references anywhere in the document;
* provenance names the things that make the campaign reproducible:
  cache format version, backend, scenario fingerprints, the campaign
  content digest (pinned below for the tiny fixture) and manifest
  state counts;
* optional dynamics/traffic/channel blocks appear exactly when runs
  recorded them;
* the ``repro report`` / ``repro sweep --report`` CLI surfaces behave
  (missing store is an error, ``--report`` without ``--cache-dir`` is
  an error, happy path writes the file and prints the digest);
* :meth:`AsciiPlot.render_svg` emits well-formed XML, including the
  single-point-series edge case.
"""

from __future__ import annotations

import dataclasses
import json
import xml.etree.ElementTree as ElementTree

import pytest

from repro.cli import main as cli_main
from repro.experiments.backends import canonical_digest
from repro.experiments.parallel import grid_cells, run_grid
from repro.experiments.scenarios import Scenario
from repro.experiments.store import (
    CACHE_FORMAT_VERSION,
    ResultStore,
    cell_key,
    scenario_fingerprint,
)
from repro.metrics.collectors import aggregate_runs
from repro.metrics.plotting import AsciiPlot
from repro.report import build_campaign, generate_report, render_html

#: sha256 over the sorted (key, digest) pairs of the tiny fixture's four
#: cells — the identity of the campaign's *content*.  Independent of
#: backend, machine, and directory layout; any simulator drift that the
#: per-cell pins catch shows up here too.
TINY_CAMPAIGN_DIGEST_KEYS = 4

#: Every character XML and HTML treat specially, and its escaped form:
#: ``&``, ``<`` and ``>`` become entities, both quotes stay literal.
SPECIAL = "a&b<c>\"d'e"
SPECIAL_ESCAPED = "a&amp;b&lt;c&gt;\"d'e"


def _tiny() -> Scenario:
    return Scenario(
        name="tiny-test",
        node_count=9,
        field_size=120.0,
        flow_count=3,
        rates_kbps=(2.0, 4.0),
        duration=10.0,
        runs=2,
        grid=True,
        protocols=("DSR-ODPM",),
    )


@pytest.fixture(scope="module")
def tiny() -> Scenario:
    return _tiny()


@pytest.fixture(scope="module")
def tiny_results(tiny):
    return run_grid(tiny, grid_cells(tiny))


@pytest.fixture()
def tiny_store(tmp_path, tiny, tiny_results):
    store = ResultStore(tmp_path / "cache")
    fingerprint = scenario_fingerprint(tiny)
    for cell, result in sorted(tiny_results.items()):
        store.put_run(
            cell_key(tiny, cell.protocol, cell.rate_kbps, cell.seed),
            result,
            fingerprint=fingerprint,
        )
    return store


class TestCampaignModel:
    def test_groups_cells_and_recovered_rates(self, tiny_store, tiny):
        campaign = build_campaign(tiny_store)
        assert campaign.total_runs == 4
        assert len(campaign.groups) == 1
        group = campaign.groups[0]
        assert group.name == "tiny-test"
        assert group.protocols == ["DSR-ODPM"]
        assert group.rates == [2.0, 4.0]  # recovered from flow specs
        assert group.seeds == [1, 2]
        assert group.fingerprint == scenario_fingerprint(tiny)

    def test_aggregates_match_aggregate_runs(self, tiny_store, tiny_results):
        group = build_campaign(tiny_store).groups[0]
        aggregates = group.aggregates()
        for (protocol, rate), aggregate in aggregates.items():
            runs = sorted(
                (cell.seed, result)
                for cell, result in tiny_results.items()
                if cell.protocol == protocol and cell.rate_kbps == rate
            )
            expected = aggregate_runs([result for _seed, result in runs])
            assert aggregate == expected
        assert set(aggregates) == {("DSR-ODPM", 2.0), ("DSR-ODPM", 4.0)}

    def test_campaign_digest_is_content_addressed(self, tiny_store):
        campaign = build_campaign(tiny_store)
        pairs = sorted(
            (cell.key, cell.digest)
            for group in campaign.groups
            for cell in group.cells
        )
        assert len(pairs) == TINY_CAMPAIGN_DIGEST_KEYS
        assert campaign.campaign_digest == canonical_digest(pairs)

    def test_provenance_fields(self, tiny_store):
        campaign = build_campaign(tiny_store)
        assert campaign.cache_format_version == CACHE_FORMAT_VERSION
        assert campaign.backend == "local-json"
        assert campaign.routes_count == 0
        assert campaign.corrupt_entries == 0
        assert campaign.undecodable_entries == 0
        assert campaign.quarantined == {"runs": 0, "routes": 0}

    def test_metric_blocks_absent_for_plain_campaign(self, tiny_store):
        group = build_campaign(tiny_store).groups[0]
        assert group.metric_blocks() == {}

    def test_metric_blocks_present_when_recorded(
        self, tmp_path, tiny, tiny_results
    ):
        store = ResultStore(tmp_path / "blocks")
        fingerprint = scenario_fingerprint(tiny)
        for cell, result in sorted(tiny_results.items()):
            enriched = dataclasses.replace(
                result,
                dynamics={"link_changes": 3.0},
                traffic={"latency_p95": 0.25},
                channel={"loss_rate": 0.1},
            )
            store.put_run(
                cell_key(tiny, cell.protocol, cell.rate_kbps, cell.seed),
                enriched,
                fingerprint=fingerprint,
            )
        group = build_campaign(store).groups[0]
        blocks = group.metric_blocks()
        assert set(blocks) == {"dynamics", "traffic", "channel"}
        point = blocks["traffic"][("DSR-ODPM", 2.0)]
        assert point["latency_p95"].mean == pytest.approx(0.25)
        html = render_html(build_campaign(store))
        assert "latency_p95" in html
        assert "link_changes" in html
        assert "loss_rate" in html

    def test_undecodable_entries_counted_not_fatal(self, tiny_store):
        tiny_store._write(
            "runs",
            "ff" + "0" * 62,
            {"key": "ff" + "0" * 62, "result": {"nonsense": True}},
        )
        campaign = build_campaign(tiny_store)
        assert campaign.undecodable_entries == 1
        assert campaign.total_runs == 4  # sound cells unaffected

    @pytest.mark.parametrize("tamper", ["payload", "key"])
    def test_unsound_entries_left_out_and_counted(self, tiny_store, tamper):
        """An entry that still parses but breaks the store's integrity
        rule — a stale digest, a stored key that is not its name — is
        neither drawn nor digested: the report counts it as corrupt."""
        sound = build_campaign(tiny_store)
        key, other = tiny_store.keys("runs")[:2]
        path = tiny_store._path("runs", key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        if tamper == "payload":
            entry["result"]["control_packets"] += 1
        else:
            entry["key"] = other
        path.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")

        campaign = build_campaign(tiny_store)
        assert campaign.corrupt_entries == 1
        assert campaign.total_runs == sound.total_runs - 1
        pairs = [
            (cell.key, cell.digest)
            for group in campaign.groups
            for cell in group.cells
        ]
        assert key not in dict(pairs)
        assert campaign.campaign_digest == canonical_digest(sorted(pairs))
        assert campaign.campaign_digest != sound.campaign_digest
        assert tiny_store.backend.quarantined("runs") == []  # counted only
        assert (
            '<td class="name">Corrupt entries</td><td class="warn">1</td>'
            in render_html(campaign)
        )


class TestHtmlRendering:
    def test_render_is_byte_deterministic(self, tiny_store):
        first = render_html(build_campaign(tiny_store))
        second = render_html(build_campaign(tiny_store))
        assert first == second

    def test_report_is_offline_self_contained(self, tiny_store):
        html = render_html(build_campaign(tiny_store))
        assert "http://" not in html
        assert "https://" not in html
        assert "file://" not in html
        assert "<svg" in html  # figures inlined, not linked
        assert html.startswith("<!DOCTYPE html>")

    def test_report_carries_provenance(self, tiny_store):
        campaign = build_campaign(tiny_store)
        html = render_html(campaign)
        assert str(CACHE_FORMAT_VERSION) in html
        assert "local-json" in html
        assert campaign.campaign_digest in html
        assert "tiny-test" in html
        assert "DSR-ODPM" in html

    def test_empty_store_renders_warning(self, tmp_path):
        campaign = build_campaign(ResultStore(tmp_path / "empty"))
        html = render_html(campaign)
        assert "no decodable runs" in html
        assert campaign.campaign_digest == canonical_digest([])

    def test_manifest_section(self, tiny_store, tiny, tmp_path):
        from repro.experiments.resilience import DONE, SweepManifest

        manifest = SweepManifest(
            tmp_path / "m.json",
            scenario_fingerprint(tiny),
            {"c%d" % i: {"state": DONE} for i in range(4)},
        )
        manifest.flush()
        campaign = build_campaign(tiny_store, manifest=manifest)
        assert campaign.manifest == {
            "path": str(manifest.path),
            "scenario": "tiny-test",
            "counts": manifest.counts(),
        }
        html = render_html(campaign)
        assert "m.json" in html


class TestRenderSvg:
    def _plot(self):
        plot = AsciiPlot(
            title="Delivery", xlabel="rate (Kbit/s)", ylabel="ratio"
        )
        plot.add_series("DSR-ODPM", [2.0, 4.0, 6.0], [0.9, 0.8, 0.7])
        plot.add_series("TITAN", [2.0, 4.0, 6.0], [0.95, 0.85, 0.75])
        return plot

    def test_svg_is_well_formed_xml(self):
        svg = self._plot().render_svg()
        root = ElementTree.fromstring(svg)
        assert root.tag == "svg"
        assert "xmlns" not in svg  # would trip the offline grep in CI
        assert svg.count("<polyline") == 2

    def test_svg_is_deterministic(self):
        assert self._plot().render_svg() == self._plot().render_svg()

    def test_single_point_series_renders_marker_only(self):
        plot = AsciiPlot(title="One point")
        plot.add_series("solo", [2.0], [0.5])
        svg = plot.render_svg()
        ElementTree.fromstring(svg)  # still well-formed
        assert "<polyline" not in svg  # no degenerate one-point line
        assert "<circle" in svg

    def test_text_is_escaped_exactly_quotes_kept(self):
        plot = AsciiPlot(
            title="title " + SPECIAL,
            xlabel="x " + SPECIAL,
            ylabel="y " + SPECIAL,
        )
        plot.add_series("series " + SPECIAL, [2.0, 4.0], [0.9, 0.8])
        svg = plot.render_svg()
        texts = [node.text for node in ElementTree.fromstring(svg).iter("text")]
        for prefix in ("title ", "x ", "y ", "series "):
            assert prefix + SPECIAL in texts
            assert ">%s%s</text>" % (prefix, SPECIAL_ESCAPED) in svg


class TestEscaping:
    def test_report_escapes_the_scenario_name_exactly(
        self, tmp_path, tiny, tiny_results
    ):
        special = dataclasses.replace(tiny, name=SPECIAL)
        store = ResultStore(tmp_path / "cache")
        fingerprint = scenario_fingerprint(special)
        for cell, result in sorted(tiny_results.items()):
            store.put_run(
                cell_key(special, cell.protocol, cell.rate_kbps, cell.seed),
                result,
                fingerprint=fingerprint,
            )
        html = render_html(build_campaign(store))
        # The document body is well-formed XML: every tag closes and no
        # raw "&" or "<" leaks out of a text node.
        body = html.split("<body>")[1].split("</body>")[0]
        ElementTree.fromstring("<body>%s</body>" % body)
        assert "<h2>%s <small>" % SPECIAL_ESCAPED in html
        assert "</code> — %s</h3>" % SPECIAL_ESCAPED in html
        # The fingerprint is JSON, whose own quote escape survives as is.
        assert '"name": "%s",' % SPECIAL_ESCAPED.replace('"', '\\"') in html
        assert SPECIAL not in html


class TestReportCli:
    def test_report_command_writes_file(self, tiny_store, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert cli_main([
            "report", "--cache-dir", str(tiny_store.root), "-o", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "report: %s" % out in stdout
        assert "4 runs in 1 group(s)" in stdout
        html = out.read_text(encoding="utf-8")
        assert "tiny-test" in html

    def test_report_command_is_deterministic_across_calls(
        self, tiny_store, tmp_path
    ):
        first = tmp_path / "a.html"
        second = tmp_path / "b.html"
        for out in (first, second):
            assert cli_main([
                "report", "--cache-dir", str(tiny_store.root),
                "-o", str(out),
            ]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_report_command_requires_existing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            cli_main([
                "report", "--cache-dir", str(tmp_path / "missing"),
                "-o", str(tmp_path / "r.html"),
            ])

    def test_report_command_with_manifest(
        self, tiny_store, tiny, tmp_path, capsys
    ):
        from repro.experiments.resilience import DONE, SweepManifest

        manifest = SweepManifest(
            tmp_path / "m.json",
            scenario_fingerprint(tiny),
            {"c1": {"state": DONE}},
        )
        manifest.flush()
        out = tmp_path / "report.html"
        assert cli_main([
            "report", "--cache-dir", str(tiny_store.root),
            "--manifest", str(manifest.path), "-o", str(out),
        ]) == 0
        assert "m.json" in out.read_text(encoding="utf-8")

    def test_sweep_report_requires_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="--report needs --cache-dir"):
            cli_main([
                "sweep", "--scenario", "grid", "--scale", "smoke",
                "--protocols", "DSR-ODPM", "--rates", "2",
                "--report", str(tmp_path / "r.html"),
            ])

    def test_generate_report_returns_campaign(self, tiny_store, tmp_path):
        out = tmp_path / "direct.html"
        campaign = generate_report(tiny_store.root, out)
        assert out.is_file()
        assert campaign.total_runs == 4
        assert campaign.campaign_digest in out.read_text(encoding="utf-8")
