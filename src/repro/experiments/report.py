"""Result container and text formatting for the paper's artefacts."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FigureResult:
    """One regenerated paper artefact.

    ``rows`` is the figure's series in the paper's x-axis order;
    ``summary`` holds the headline scalars with paper reference values.
    """

    figure_id: str
    title: str
    columns: list[str]
    rows: list[list]
    summary: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def to_text(self) -> str:
        """Render the figure as an aligned text table."""
        lines = [f"== {self.figure_id}: {self.title} ==", format_table(self.columns, self.rows)]
        if self.summary:
            lines.append("summary: " + ", ".join(f"{k}={v:.3g}" for k, v in self.summary.items()))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (the ``repro all --out`` artefact)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "summary": self.summary,
            "notes": self.notes,
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width text table (no external deps)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.rjust(widths[i]) if _num(row[i]) else c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(out)


def _fmt(c) -> str:
    if isinstance(c, float):
        return f"{c:.3f}" if abs(c) < 100 else f"{c:.1f}"
    return str(c)


def _num(c: str) -> bool:
    try:
        float(c)
        return True
    except ValueError:
        return False


def bar_chart(
    labels: list[str],
    values: list[float],
    width: int = 48,
    unit: str = "",
    baseline: float | None = None,
) -> str:
    """ASCII horizontal bar chart (the paper's figures are bar charts).

    Negative values extend left of the axis; ``baseline`` draws a marker
    column (e.g. 100 for percent-of-reference plots).
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not values:
        return ""
    lo = min(0.0, min(values))
    hi = max(0.0, max(values), baseline or 0.0)
    span = (hi - lo) or 1.0
    lw = max(len(lab) for lab in labels)
    out = []
    for label, v in zip(labels, values):
        left = round((min(v, 0) - lo) / span * width)
        zero = round((0 - lo) / span * width)
        right = round((max(v, 0) - lo) / span * width)
        bar = [" "] * (width + 1)
        for i in range(left, zero):
            bar[i] = "#"
        for i in range(zero, right):
            bar[i] = "#"
        if baseline is not None:
            bpos = min(width, round((baseline - lo) / span * width))
            if bar[bpos] == " ":
                bar[bpos] = "|"
        out.append(f"{label.rjust(lw)} {''.join(bar)} {v:.2f}{unit}")
    return "\n".join(out)
