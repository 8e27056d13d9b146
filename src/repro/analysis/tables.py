"""ASCII tables and series: the rendering layer shared by the CLI,
examples, and EXPERIMENTS.md.

The paper has no measured tables (it is a position paper); the harness
prints one table per experiment in a stable format so outputs can be
diffed across runs and quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Sequence


@dataclass
class Table:
    """A simple column-aligned table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        cells = [[_fmt(value) for value in row] for row in self.rows]
        headers = [str(column) for column in self.columns]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for row in cells:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def render_series(
    title: str, points: Iterable, x_label: str = "x", y_label: str = "y",
    width: int = 40,
) -> str:
    """An ASCII 'figure': x → y with a proportional bar, for the
    experiments whose natural form is a curve rather than a table."""
    pts = [(x, float(y)) for x, y in points]
    lines = [f"== {title} ==", f"{x_label:>12} | {y_label}"]
    if not pts:
        return "\n".join(lines + ["(no data)"])
    top = max((y for _x, y in pts), default=0.0)
    for x, y in pts:
        bar = "#" * (int(width * y / top) if top > 0 else 0)
        lines.append(f"{str(x):>12} | {y:10.3g} {bar}")
    return "\n".join(lines)
