"""Plain-text reporting helpers shared by the benchmark harness."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 float_format: str = "{:.3f}") -> str:
    """Render a list of rows as an aligned plain-text table.

    Floats are formatted with ``float_format``; all other values with
    ``str``.  The result is what the benchmark scripts print so that the
    reproduced tables/figures can be compared against the paper.
    """
    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered_rows: List[List[str]] = [[render(v) for v in row] for row in rows]
    rendered_headers = [str(h) for h in headers]
    widths = [len(h) for h in rendered_headers]
    for row in rendered_rows:
        if len(row) != len(rendered_headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(rendered_headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [format_line(rendered_headers),
             format_line(["-" * w for w in widths])]
    lines.extend(format_line(row) for row in rendered_rows)
    return "\n".join(lines)


def normalize_to(values: Mapping[str, float], reference_key: str) -> Dict[str, float]:
    """Normalize a mapping of measurements to one reference entry.

    The paper reports energies normalized to the baseline; this helper makes
    those normalizations explicit and guards against a zero reference.
    """
    if reference_key not in values:
        raise KeyError(f"reference key {reference_key!r} not present in values")
    reference = float(values[reference_key])
    if reference == 0.0:
        raise ZeroDivisionError("reference value is zero; cannot normalize")
    return {key: float(value) / reference for key, value in values.items()}
