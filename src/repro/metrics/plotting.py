"""Terminal (ASCII) and inline-SVG line plots for the paper's figures.

The paper's evaluation figures are line charts — metric vs offered rate,
one series per protocol.  This renderer draws them in a terminal
(:meth:`AsciiPlot.render`) so the benchmark suite can reproduce
*figures*, not just tables, without any plotting dependency, and as
self-contained SVG markup (:meth:`AsciiPlot.render_svg`) for the HTML
campaign reports in :mod:`repro.report` — same series, same bounds, no
matplotlib, no external resources, byte-deterministic output.

Usage::

    plot = AsciiPlot(title="Fig. 9", xlabel="Rate (Kbit/s)",
                     ylabel="Energy goodput (bit/J)")
    plot.add_series("TITAN-PC", xs, ys)
    print(plot.render())        # terminal
    svg = plot.render_svg()     # embeddable <svg>...</svg> string
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from html import escape as _html_escape

#: Text escaping for SVG and HTML: ``&``, ``<`` and ``>`` become entities,
#: quotes stay as they are (escaped text never lands in an attribute).
escape = partial(_html_escape, quote=False)

#: Marker cycle for distinguishing series.
MARKERS = "*+ox#@%&"

#: Fill cycle for SVG series (colorblind-safe-ish, fixed so output is
#: deterministic across runs and machines).
SVG_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


@dataclass
class _Series:
    label: str
    xs: list[float]
    ys: list[float]
    marker: str


@dataclass
class AsciiPlot:
    """A minimal multi-series scatter/line plot rendered with characters."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    width: int = 64
    height: int = 18
    series: list[_Series] = field(default_factory=list)

    def add_series(self, label: str, xs, ys) -> None:
        """Add one labelled line; x/y sequences must be equal length."""
        xs, ys = list(xs), list(ys)
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have the same length")
        if not xs:
            raise ValueError("series needs at least one point")
        marker = MARKERS[len(self.series) % len(MARKERS)]
        self.series.append(_Series(label, xs, ys, marker))

    # ------------------------------------------------------------------
    def _bounds(self) -> tuple[float, float, float, float]:
        xs = [x for s in self.series for x in s.xs]
        ys = [y for s in self.series for y in s.ys]
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(ys), max(ys)
        if x_max == x_min:
            x_max = x_min + 1.0
        if y_max == y_min:
            y_max = y_min + 1.0
        # Pad the y range so extremes don't sit on the frame.
        pad = 0.05 * (y_max - y_min)
        return x_min, x_max, y_min - pad, y_max + pad

    def render(self) -> str:
        """Draw the plot into a string."""
        if not self.series:
            raise ValueError("nothing to plot")
        x_min, x_max, y_min, y_max = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]

        def place(x: float, y: float, marker: str) -> None:
            col = round((x - x_min) / (x_max - x_min) * (self.width - 1))
            row = round((y - y_min) / (y_max - y_min) * (self.height - 1))
            grid[self.height - 1 - row][col] = marker

        for series in self.series:
            points = sorted(zip(series.xs, series.ys))
            # Interpolated segments make trends readable.
            for (x1, y1), (x2, y2) in zip(points, points[1:]):
                steps = max(
                    2,
                    round((x2 - x1) / (x_max - x_min) * self.width),
                )
                for step in range(steps + 1):
                    t = step / steps
                    place(x1 + t * (x2 - x1), y1 + t * (y2 - y1), ".")
            for x, y in points:
                place(x, y, series.marker)

        lines = []
        if self.title:
            lines.append(self.title.center(self.width + 10))
        y_top = "%.3g" % y_max
        y_bottom = "%.3g" % y_min
        label_width = max(len(y_top), len(y_bottom), 6)
        for row_index, row in enumerate(grid):
            if row_index == 0:
                label = y_top.rjust(label_width)
            elif row_index == self.height - 1:
                label = y_bottom.rjust(label_width)
            else:
                label = " " * label_width
            lines.append("%s |%s" % (label, "".join(row)))
        lines.append(" " * label_width + " +" + "-" * self.width)
        x_left = "%.3g" % x_min
        x_right = "%.3g" % x_max
        gap = self.width - len(x_left) - len(x_right)
        lines.append(
            " " * (label_width + 2) + x_left + " " * max(gap, 1) + x_right
        )
        if self.xlabel:
            lines.append((" " * (label_width + 2))
                         + self.xlabel.center(self.width))
        legend = "   ".join(
            "%s %s" % (s.marker, s.label) for s in self.series
        )
        lines.append("")
        lines.append("  legend: " + legend)
        if self.ylabel:
            lines.insert(1 if self.title else 0, "  y: " + self.ylabel)
        return "\n".join(lines)


    # ------------------------------------------------------------------
    def render_svg(self, width: int = 640, height: int = 360) -> str:
        """Draw the plot as a standalone ``<svg>`` element (a string).

        Shares :meth:`_bounds` and the series list with the ASCII
        renderer, so both views of a figure agree.  The markup is fully
        self-contained — inline styling, generic font stack, fixed
        :data:`SVG_COLORS` palette, coordinates formatted with ``%.2f``
        — so embedding it in an HTML report adds zero external
        references and the bytes are identical for identical data.
        """
        if not self.series:
            raise ValueError("nothing to plot")
        x_min, x_max, y_min, y_max = self._bounds()
        left, right, top, bottom = 64.0, 16.0, 28.0, 46.0
        plot_w = width - left - right
        plot_h = height - top - bottom

        def sx(x: float) -> str:
            return "%.2f" % (left + (x - x_min) / (x_max - x_min) * plot_w)

        def sy(y: float) -> str:
            return "%.2f" % (
                top + plot_h - (y - y_min) / (y_max - y_min) * plot_h
            )

        # No xmlns: HTML5 parsers place inline <svg> in the SVG namespace
        # automatically, and omitting it keeps the report free of even
        # cosmetic URL strings (CI greps the file for http(s)://).
        parts = [
            '<svg width="%d" height="%d"'
            ' viewBox="0 0 %d %d" role="img">' % (width, height, width, height),
            '<rect width="%d" height="%d" fill="#ffffff"/>' % (width, height),
        ]
        if self.title:
            parts.append(
                '<text x="%.2f" y="18" text-anchor="middle"'
                ' font-family="sans-serif" font-size="13"'
                ' font-weight="bold">%s</text>'
                % (left + plot_w / 2, escape(self.title))
            )
        # Axes frame + ticks (4 intervals each way, evenly spaced).
        parts.append(
            '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f"'
            ' fill="none" stroke="#444444" stroke-width="1"/>'
            % (left, top, plot_w, plot_h)
        )
        for step in range(5):
            t = step / 4.0
            x_val = x_min + t * (x_max - x_min)
            y_val = y_min + t * (y_max - y_min)
            parts.append(
                '<text x="%s" y="%.2f" text-anchor="middle"'
                ' font-family="sans-serif" font-size="10"'
                ' fill="#444444">%s</text>'
                % (sx(x_val), top + plot_h + 14, escape("%.3g" % x_val))
            )
            parts.append(
                '<text x="%.2f" y="%s" text-anchor="end"'
                ' font-family="sans-serif" font-size="10"'
                ' fill="#444444" dy="3">%s</text>'
                % (left - 6, sy(y_val), escape("%.3g" % y_val))
            )
            if 0 < step < 4:
                parts.append(
                    '<line x1="%.2f" y1="%s" x2="%.2f" y2="%s"'
                    ' stroke="#dddddd" stroke-width="1"/>'
                    % (left, sy(y_val), left + plot_w, sy(y_val))
                )
        if self.xlabel:
            parts.append(
                '<text x="%.2f" y="%.2f" text-anchor="middle"'
                ' font-family="sans-serif" font-size="11">%s</text>'
                % (left + plot_w / 2, height - 6.0, escape(self.xlabel))
            )
        if self.ylabel:
            parts.append(
                '<text x="12" y="%.2f" text-anchor="middle"'
                ' font-family="sans-serif" font-size="11"'
                ' transform="rotate(-90 12 %.2f)">%s</text>'
                % (top + plot_h / 2, top + plot_h / 2, escape(self.ylabel))
            )
        for index, series in enumerate(self.series):
            color = SVG_COLORS[index % len(SVG_COLORS)]
            points = sorted(zip(series.xs, series.ys))
            coords = " ".join("%s,%s" % (sx(x), sy(y)) for x, y in points)
            if len(points) > 1:
                parts.append(
                    '<polyline points="%s" fill="none" stroke="%s"'
                    ' stroke-width="1.5"/>' % (coords, color)
                )
            for x, y in points:
                parts.append(
                    '<circle cx="%s" cy="%s" r="3" fill="%s"/>'
                    % (sx(x), sy(y), color)
                )
        # Legend: one row per series, top-right inside the frame.
        for index, series in enumerate(self.series):
            color = SVG_COLORS[index % len(SVG_COLORS)]
            row_y = top + 12.0 + 14.0 * index
            parts.append(
                '<rect x="%.2f" y="%.2f" width="10" height="10"'
                ' fill="%s"/>' % (left + plot_w - 110, row_y - 9, color)
            )
            parts.append(
                '<text x="%.2f" y="%.2f" font-family="sans-serif"'
                ' font-size="10">%s</text>'
                % (left + plot_w - 96, row_y, escape(series.label))
            )
        parts.append("</svg>")
        return "".join(parts)


def figure_from_sweep(
    title: str,
    xlabel: str,
    ylabel: str,
    rates: list[float],
    series: dict[str, list[float]],
) -> str:
    """Convenience: render one paper figure from sweep results."""
    plot = AsciiPlot(title=title, xlabel=xlabel, ylabel=ylabel)
    for label, values in series.items():
        plot.add_series(label, rates, values)
    return plot.render()
