"""docs/PROTOCOL.md drift check: the generated transition tables in the
document must match a fresh render of the spec.  Fails with the
regeneration command whenever a table edit isn't propagated."""

from repro.coherence import docgen


def test_generated_tables_match_spec():
    path = docgen.default_path()
    document = path.read_text(encoding="utf-8")
    assert docgen.BEGIN in document and docgen.END in document
    assert docgen.inject(document) == document, (
        "docs/PROTOCOL.md is stale - run: python -m repro.coherence.docgen"
    )


def test_inject_replaces_only_the_generated_block():
    before = "prose above\n" + docgen.BEGIN + "\nold\n" + docgen.END + "\nprose below\n"
    after = docgen.inject(before)
    assert after.startswith("prose above\n")
    assert after.endswith("\nprose below\n")
    assert "\nold\n" not in after
    assert docgen.render() in after


def test_render_is_deterministic():
    assert docgen.render() == docgen.render()


def test_rendered_block_states_single_source_of_truth():
    """The generated block must tell readers that the tables drive both
    the state-space checker and the compiled dispatch layer, and name
    the oracle that holds the compiled dispatch to the tables."""
    text = docgen.render()
    assert "single source" in text
    assert "repro/coherence/compile.py" in text
    assert "tests/test_table_oracle.py" in text
    document = docgen.default_path().read_text(encoding="utf-8")
    assert "single source" in document


def test_render_covers_tardis_tables():
    """The Tardis family renders alongside the DSI reference variants,
    and its tables are invalidation-free: every INV/INV_ACK row is an
    **error** assertion (the home never invalidates) — WB_REQ is the
    only reclaim traffic."""
    text = docgen.render()
    for label in ("SC+TARDIS", "WC+TARDIS"):
        assert f"Cache controller — {label}" in text
        assert f"Directory controller — {label}" in text
        assert f"| {label} |" in text  # variant summary row
    start = text.index("Cache controller — SC+TARDIS")
    end = text.index("#### Variant summary")
    tardis_block = text[start:end]
    assert "WB_REQ" in tardis_block
    inv_rows = [
        line
        for line in tardis_block.splitlines()
        if "| INV |" in line or "| INV_ACK" in line
    ]
    assert inv_rows, "INV inputs must be asserted impossible, not absent"
    assert all("**error**" in line for line in inv_rows)
