"""Terminal rendering of the paper's stacked-bar figures.

Figure 3/4/6 of the paper are stacked bars of normalized execution time.
:func:`stacked_bars` renders the same thing in plain text: one bar per
run, length proportional to normalized time, partitioned into breakdown
categories by per-category glyphs.
"""

from repro.stats.breakdown import CATEGORIES

#: glyph per category, in stacking order (compute first, like the paper)
GLYPHS = {
    "compute": "#",
    "sync": "%",
    "read_inval": "R",
    "read_other": "r",
    "write_inval": "W",
    "write_other": "w",
    "synch_wb": "b",
    "read_wb": "d",
    "wb_full": "f",
    "dsi": "s",
}


def stacked_bar(fractions, scale, width):
    """One bar: ``fractions`` of a total that is ``scale`` of full width."""
    total_chars = int(round(scale * width))
    bar = []
    remaining = total_chars
    for category in CATEGORIES:
        share = fractions.get(category, 0.0)
        chars = int(round(share * total_chars))
        chars = min(chars, remaining)
        bar.append(GLYPHS[category] * chars)
        remaining -= chars
    if remaining > 0 and total_chars > 0:
        # rounding slack goes to the largest category
        largest = max(CATEGORIES, key=lambda c: fractions.get(c, 0.0))
        bar.append(GLYPHS[largest] * remaining)
    return "".join(bar)


def stacked_bars(results, base=None, width=60, title=None):
    """Render runs as stacked bars normalized to ``base`` (default: first).

    >>> # doctest-free: see tests/test_stats.py
    """
    if not results:
        return title or ""
    base = base or results[0]
    label_width = max(len(r.label) for r in results)
    lines = []
    if title:
        lines.append(title)
    for result in results:
        scale = result.normalized_to(base)
        fractions = result.aggregate_breakdown().fractions()
        bar = stacked_bar(fractions, scale, width)
        lines.append(f"{result.label.ljust(label_width)} |{bar} {scale:.2f}")
    legend = "  ".join(f"{GLYPHS[c]}={c}" for c in CATEGORIES)
    lines.append(f"[{legend}]")
    return "\n".join(lines)


def bar_chart(labels_values, width=50, title=None):
    """Simple horizontal bar chart for (label, value) pairs."""
    if not labels_values:
        return title or ""
    peak = max(value for _label, value in labels_values) or 1
    label_width = max(len(str(label)) for label, _value in labels_values)
    lines = []
    if title:
        lines.append(title)
    for label, value in labels_values:
        chars = int(round(width * value / peak))
        lines.append(f"{str(label).ljust(label_width)} |{'#' * chars} {value}")
    return "\n".join(lines)
