"""Render a :class:`~repro.report.campaign.Campaign` as standalone HTML.

One file, openable from a mail attachment on a machine with no network:
styling is an inline ``<style>`` block, figures are inline ``<svg>``
elements (:meth:`~repro.metrics.plotting.AsciiPlot.render_svg`), and no
tag references an external resource — the report-smoke CI job greps the
output for ``http(s)://`` / ``file://`` and fails on any hit.

The markup is **byte-deterministic** for a fixed input store: every
iteration order is sorted (groups by name, points by (protocol, rate),
metrics by key), numbers use fixed ``%.4g``/``%.3f`` formats and nothing
time- or machine-dependent is emitted (no timestamps, no hostnames, no
absolute paths beyond the store root the operator passed).  Rendering
twice yields identical bytes — pinned by ``tests/test_report.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.plotting import AsciiPlot, escape
from repro.report.campaign import Campaign, CampaignGroup, build_campaign

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.stats import ConfidenceInterval

_STYLE = """
body { font-family: sans-serif; margin: 2em auto; max-width: 62em;
       color: #1a1a1a; }
h1 { border-bottom: 2px solid #444; padding-bottom: 0.2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #bbb; }
table { border-collapse: collapse; margin: 1em 0; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.6em; text-align: right; }
th { background: #f0f0f0; }
td.name, th.name { text-align: left; }
.figures { display: flex; flex-wrap: wrap; gap: 1em; }
.provenance { background: #f8f8f8; border: 1px solid #ddd; padding: 1em;
              font-size: 0.85em; }
.provenance code { word-break: break-all; }
.warn { color: #a40000; font-weight: bold; }
""".strip()


def _ci(value: "ConfidenceInterval", fmt: str = "%.4g") -> str:
    return "%s ± %s" % (fmt % value.mean, fmt % value.half_width)


def _svg_figure(
    title: str,
    ylabel: str,
    group: CampaignGroup,
    values: dict[tuple[str, float], float],
) -> str | None:
    """One metric-vs-rate figure with a line per protocol, or None."""
    plot = AsciiPlot(title=title, xlabel="Offered rate (Kbit/s)", ylabel=ylabel)
    for protocol in group.protocols:
        xs = [r for r in group.rates if (protocol, r) in values]
        if not xs:
            continue
        plot.add_series(protocol, xs, [values[(protocol, x)] for x in xs])
    if not plot.series:
        return None
    return plot.render_svg()


def _group_figures(group: CampaignGroup) -> list[str]:
    aggregates = group.aggregates()
    latencies = group.latency_cis()
    figures = []
    for title, ylabel, values in (
        (
            "Delivery ratio vs offered rate",
            "Delivery ratio",
            {pt: agg.delivery_ratio.mean for pt, agg in aggregates.items()},
        ),
        (
            "Energy goodput vs offered rate",
            "Energy goodput (bit/J)",
            {pt: agg.energy_goodput.mean for pt, agg in aggregates.items()},
        ),
        (
            "Mean latency vs offered rate",
            "Mean latency (s)",
            {pt: ci.mean for pt, ci in latencies.items()},
        ),
    ):
        svg = _svg_figure(title, ylabel, group, values)
        if svg is not None:
            figures.append(svg)
    return figures


def _group_ci_table(group: CampaignGroup) -> str:
    aggregates = group.aggregates()
    latencies = group.latency_cis()
    rows = [
        "<tr><th class=\"name\">Protocol</th><th>Rate (Kbit/s)</th>"
        "<th>Runs</th><th>Delivery ratio</th><th>Energy goodput (bit/J)</th>"
        "<th>E_network (J)</th><th>Transmit (J)</th><th>Control pkts</th>"
        "<th>Mean latency (s)</th></tr>"
    ]
    for (protocol, rate), agg in sorted(aggregates.items()):
        latency = latencies.get((protocol, rate))
        rows.append(
            "<tr><td class=\"name\">%s</td><td>%s</td><td>%d</td>"
            "<td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
            "<td>%s</td></tr>"
            % (
                escape(protocol),
                "%.4g" % rate,
                agg.runs,
                _ci(agg.delivery_ratio, "%.3f"),
                _ci(agg.energy_goodput),
                _ci(agg.e_network),
                _ci(agg.transmit_energy),
                _ci(agg.control_packets),
                _ci(latency) if latency is not None else "—",
            )
        )
    return "<table>%s</table>" % "".join(rows)


def _block_table(
    block: str,
    per_point: dict[tuple[str, float], dict[str, "ConfidenceInterval"]],
) -> str:
    """One dynamics/traffic/channel table: rows per point, cols per metric."""
    metrics = sorted({m for cis in per_point.values() for m in cis})
    rows = [
        "<tr><th class=\"name\">Protocol</th><th>Rate (Kbit/s)</th>%s</tr>"
        % "".join("<th>%s</th>" % escape(m) for m in metrics)
    ]
    for (protocol, rate), cis in sorted(per_point.items()):
        cells = "".join(
            "<td>%s</td>" % (_ci(cis[m]) if m in cis else "—")
            for m in metrics
        )
        rows.append(
            "<tr><td class=\"name\">%s</td><td>%s</td>%s</tr>"
            % (escape(protocol), "%.4g" % rate, cells)
        )
    return "<h3>%s metrics</h3><table>%s</table>" % (
        escape(block.capitalize()),
        "".join(rows),
    )


def _fingerprint_rows(fingerprint: dict | None) -> str:
    if fingerprint is None:
        return "<p>No scenario fingerprint recorded for these entries.</p>"
    import json

    return "<p>Scenario fingerprint:</p><pre><code>%s</code></pre>" % escape(
        json.dumps(fingerprint, sort_keys=True, indent=2)
    )


def _provenance(campaign: Campaign) -> str:
    parts = [
        '<div class="provenance"><h2>Provenance</h2><table>',
        '<tr><td class="name">Store root</td><td class="name">%s</td></tr>'
        % escape(campaign.root),
        '<tr><td class="name">Store backend</td><td class="name">%s</td></tr>'
        % escape(campaign.backend),
        '<tr><td class="name">Cache format version</td><td>%d</td></tr>'
        % campaign.cache_format_version,
        '<tr><td class="name">Decoded runs</td><td>%d</td></tr>'
        % campaign.total_runs,
        '<tr><td class="name">Stabilized route sets</td><td>%d</td></tr>'
        % campaign.routes_count,
        '<tr><td class="name">Campaign digest</td>'
        '<td class="name"><code>%s</code></td></tr>'
        % escape(campaign.campaign_digest),
    ]
    for kind, count in sorted(campaign.quarantined.items()):
        if count:
            parts.append(
                '<tr><td class="name">Quarantined (%s)</td>'
                '<td class="warn">%d</td></tr>' % (escape(kind), count)
            )
    if campaign.corrupt_entries:
        parts.append(
            '<tr><td class="name">Corrupt entries</td>'
            '<td class="warn">%d</td></tr>' % campaign.corrupt_entries
        )
    if campaign.undecodable_entries:
        parts.append(
            '<tr><td class="name">Undecodable entries</td>'
            '<td class="warn">%d</td></tr>' % campaign.undecodable_entries
        )
    if campaign.manifest is not None:
        counts = campaign.manifest.get("counts", {})
        parts.append(
            '<tr><td class="name">Manifest</td><td class="name">%s</td></tr>'
            % escape(str(campaign.manifest.get("path")))
        )
        parts.append(
            '<tr><td class="name">Manifest cells</td><td class="name">'
            "%d done, %d failed, %d pending</td></tr>"
            % (
                counts.get("done", 0),
                counts.get("failed", 0),
                counts.get("pending", 0),
            )
        )
    parts.append("</table>")
    for group in campaign.groups:
        parts.append(
            '<h3>Group <code>%s</code> — %s</h3>'
            % (escape(group.group_id), escape(group.name))
        )
        parts.append(
            "<p>%d runs · protocols: %s · rates: %s · seeds: %s</p>"
            % (
                len(group.cells),
                escape(", ".join(group.protocols)),
                escape(", ".join("%.4g" % r for r in group.rates)),
                escape(", ".join(str(s) for s in group.seeds)),
            )
        )
        parts.append(_fingerprint_rows(group.fingerprint))
    parts.append("</div>")
    return "".join(parts)


def render_html(campaign: Campaign) -> str:
    """The full report document (a UTF-8 HTML string, ready to write)."""
    body = [
        "<h1>Campaign report</h1>",
        "<p>%d run(s) across %d scenario group(s), rendered from the "
        "result store at <code>%s</code>.  Every figure and table below "
        "is computed from the digest-verified cached results; the "
        "provenance section identifies exactly which campaign this is.</p>"
        % (campaign.total_runs, len(campaign.groups), escape(campaign.root)),
    ]
    if not campaign.groups:
        body.append(
            '<p class="warn">The store holds no decodable runs — '
            "nothing to plot.</p>"
        )
    for group in campaign.groups:
        body.append(
            "<h2>%s <small><code>%s</code></small></h2>"
            % (escape(group.name), escape(group.group_id))
        )
        figures = _group_figures(group)
        if figures:
            body.append(
                '<div class="figures">%s</div>' % "".join(figures)
            )
        body.append(_group_ci_table(group))
        for block, per_point in sorted(group.metric_blocks().items()):
            body.append(_block_table(block, per_point))
    body.append(_provenance(campaign))
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        "<title>Campaign report</title>"
        "<style>%s</style></head><body>%s</body></html>\n"
        % (_STYLE, "".join(body))
    )


def generate_report(
    cache_dir,
    out_path,
    manifest_path=None,
    backend: str | None = None,
) -> Campaign:
    """Build and write one report: store (+ manifest) in, HTML file out.

    The engine behind ``repro report`` and ``repro sweep --report``.
    Opens the store read-only in spirit (maintenance-path iteration only)
    with backend auto-detection, so pointing it at a sqlite campaign or a
    legacy JSON directory both just work.  Returns the built
    :class:`Campaign` so callers can log the digest.
    """
    from pathlib import Path

    from repro.experiments.resilience import SweepManifest
    from repro.experiments.store import ResultStore

    store = ResultStore(cache_dir, backend=backend)
    manifest = (
        SweepManifest.load(manifest_path) if manifest_path is not None else None
    )
    campaign = build_campaign(store, manifest=manifest)
    Path(out_path).write_text(render_html(campaign), encoding="utf-8")
    return campaign
