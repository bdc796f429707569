"""Render the declarative transition tables into docs/PROTOCOL.md.

The tables in :mod:`repro.coherence.cache_table` and
:mod:`repro.coherence.dir_table` are the protocol's specification; this
module renders them to markdown so the document can never drift from the
code.  ``python -m repro.coherence.docgen`` rewrites the generated block
in place; ``tests/test_protocol_doc.py`` asserts the committed document
matches a fresh render.
"""

from pathlib import Path

from repro.coherence.cache_table import cache_table
from repro.coherence.dir_table import dir_table
from repro.coherence.table import ERROR
from repro.coherence.variants import all_variants

BEGIN = "<!-- BEGIN GENERATED TABLES (python -m repro.coherence.docgen) -->"
END = "<!-- END GENERATED TABLES -->"

#: The variants whose full tables are rendered: the two consistency
#: models with every DSI feature on (their tables are supersets of the
#: leaner variants' — knobs only remove rows or downgrade their kinds),
#: plus the Tardis family, whose tables are disjoint from the DSI grid.
REFERENCE_LABELS = (
    "SC+DSI(V)+FIFO+TO+MIG",
    "WC+DSI(V)+FIFO+TO+MIG",
    "SC+TARDIS",
    "WC+TARDIS",
)


def _by_label(label):
    for variant in all_variants():
        if variant.describe() == label:
            return variant
    raise LookupError(f"no variant labelled {label!r}")


def _cell(text):
    return text.replace("|", "\\|").replace("\n", " ")


def _render_row(row):
    guards = ", ".join(row.guards) if row.guards else "—"
    if row.error is not None:
        effect = f"**error**: {row.error}"
        nxt = "—"
    else:
        effect = ", ".join(a.value for a in row.actions) if row.actions \
            else "—"
        nxt = row.next_state.name if row.next_state is not None else "(same)"
    note = row.doc or ""
    return (
        f"| {row.state.name} | {row.event.name} | {_cell(guards)} "
        f"| {_cell(effect)} | {nxt} | {row.kind} | {_cell(note)} |"
    )


def _render_table(table, title):
    lines = [
        f"#### {title}",
        "",
        "| state | event | guards | actions | next | kind | note |",
        "|---|---|---|---|---|---|---|",
    ]
    lines += [_render_row(row) for row in table.transitions]
    lines.append("")
    return lines


def _render_summary():
    lines = [
        "#### Variant summary",
        "",
        "| variant | cache rows | dir rows | NORMAL | error rows |",
        "|---|---|---|---|---|",
    ]
    for variant in all_variants():
        cache = cache_table(variant)
        directory = dir_table(variant)
        rows = cache.transitions + directory.transitions
        normal = sum(1 for t in rows if t.kind == "normal")
        errors = sum(1 for t in rows if t.kind == ERROR)
        lines.append(
            f"| {variant.describe()} | {len(cache.transitions)} "
            f"| {len(directory.transitions)} | {normal} | {errors} |"
        )
    lines.append("")
    return lines


def render():
    """The full generated block, marker lines included."""
    lines = [
        BEGIN,
        "",
        "Rendered from `repro/coherence/cache_table.py` and",
        "`repro/coherence/dir_table.py` — edit those, then run",
        "`python -m repro.coherence.docgen`.  Row kinds: **normal** rows",
        "must be reached by `dsi-sim check-protocol` (CI fails",
        "otherwise); **multiblock** rows need several distinct blocks in",
        "flight, beyond the 1-block model; **defensive** rows guard",
        "against orderings the FIFO network and in-order processor",
        "cannot produce; **error** rows assert impossible inputs.",
        "",
        "These generated tables are the *single source* of the protocol:",
        "the state-space checker walks them row by row, and the",
        "controllers' compiled dispatch (`repro/coherence/compile.py`)",
        "lowers exactly the same rows into integer-indexed decision",
        "trees, so a table edit changes both at once.",
        "`tests/test_table_oracle.py` checks that every compiled cell",
        "picks the row the table picks, for every variant and guard",
        "valuation (see docs/PERFORMANCE.md).",
        "",
    ]
    for label in REFERENCE_LABELS:
        variant = _by_label(label)
        lines += _render_table(
            cache_table(variant), f"Cache controller — {label}"
        )
        lines += _render_table(
            dir_table(variant), f"Directory controller — {label}"
        )
    lines += _render_summary()
    lines.append(END)
    return "\n".join(lines)


def inject(document):
    """Replace the generated block inside ``document``; raises if the
    markers are missing or out of order."""
    start = document.index(BEGIN)
    end = document.index(END) + len(END)
    if end <= start:
        raise ValueError("generated-block markers out of order")
    return document[:start] + render() + document[end:]


def default_path():
    return Path(__file__).resolve().parents[3] / "docs" / "PROTOCOL.md"


def main(path=None):
    path = Path(path) if path is not None else default_path()
    document = path.read_text(encoding="utf-8")
    updated = inject(document)
    if updated != document:
        path.write_text(updated, encoding="utf-8")
        print(f"rewrote generated tables in {path}")
    else:
        print(f"{path} already up to date")


if __name__ == "__main__":
    main()
