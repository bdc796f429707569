"""Plain-text table formatting for the harness."""

from repro.stats.breakdown import CATEGORIES


def format_table(headers, rows, title=None):
    """Render a plain-text table with right-aligned numeric columns."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in text_rows:
        lines.append(
            "  ".join(
                cell.rjust(widths[i]) if _numeric(row[i]) else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def format_breakdown_table(results, base=None, title=None):
    """One row per run: normalized time plus category fractions.

    ``base`` defaults to the first result; normalization is relative to it.
    """
    if not results:
        return title or ""
    base = base or results[0]
    headers = ["run", "norm_time"] + list(CATEGORIES)
    rows = []
    for result in results:
        fractions = result.aggregate_breakdown().fractions()
        norm = result.normalized_to(base)
        rows.append(
            [result.label, f"{norm:.3f}"] + [f"{fractions[c]:.3f}" for c in CATEGORIES]
        )
    return format_table(headers, rows, title=title)


def _fmt(cell):
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def _numeric(text):
    try:
        float(text)
    except ValueError:
        return False
    return True
