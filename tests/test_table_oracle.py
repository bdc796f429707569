"""Table-level oracle for the compiled dispatch.

``repro.coherence.compile`` lowers each transition table into per-cell
decision trees that the controllers walk instead of scanning guarded
rows.  Here every variant's two tables are compiled with a context
class of plain guard properties that log their reads, and for every
``(state, event)`` cell and every valuation of the guards its rows read,
``CompiledTable.decide`` must

* pick the row ``TransitionTable.decide`` picks, or raise a
  ``ProtocolError`` with the same message; and
* read each guard at most once, in the order the interpreter first
  reads it (the directory's lazy classification guard has side effects,
  so where it fires matters).
"""

import itertools

import pytest

from repro.coherence.cache_table import cache_table
from repro.coherence.compile import (
    CACHE_EVENTS,
    CACHE_STATES,
    DIR_EVENTS,
    DIR_STATES,
    compile_table,
)
from repro.coherence.dir_table import dir_table
from repro.coherence.variants import all_variants
from repro.errors import ProtocolError

SIDES = (
    (cache_table, CACHE_STATES, CACHE_EVENTS),
    (dir_table, DIR_STATES, DIR_EVENTS),
)


def _ctx_class(guards):
    """A context class with one logging property per guard name."""

    class Ctx:
        __slots__ = ("_values", "_reads")

        def __init__(self, values):
            self._values = values
            self._reads = []

    for name in guards:

        def read(ctx, name=name):
            ctx._reads.append(name)
            return ctx._values[name]

        setattr(Ctx, name, property(read))
    return Ctx


def _outcome(decide, *args):
    try:
        return decide(*args), None
    except ProtocolError as exc:
        return None, str(exc)


def check_table(table, states, events):
    """Compare the compiled table with ``table.decide`` on every cell and
    guard valuation.  Returns ``(valuations, mismatches)``."""
    cells = {}
    for row in table.transitions:
        cells.setdefault((row.state, row.event), []).append(row)
    Ctx = _ctx_class({guard for row in table.transitions for guard in row.guards})
    actions = {action: None for row in table.transitions for action in row.actions}
    compiled = compile_table(table, states, events, Ctx, actions)
    valuations = 0
    mismatches = []
    for state_idx, state in enumerate(states):
        for event_idx, event in enumerate(events):
            rows = cells.get((state, event), ())
            guards = sorted({guard for row in rows for guard in row.guards})
            for bits in itertools.product((False, True), repeat=len(guards)):
                valuations += 1
                values = dict(zip(guards, bits))
                want_ctx, got_ctx = Ctx(values), Ctx(values)
                want, want_error = _outcome(table.decide, state, event, want_ctx)
                got, got_error = _outcome(compiled.decide, state_idx, event_idx, got_ctx)
                picked = got.source if got is not None else None
                first_reads = list(dict.fromkeys(want_ctx._reads))
                if picked is not want or got_error != want_error or got_ctx._reads != first_reads:
                    mismatches.append(
                        f"{table.name}[{table.variant.describe()}] {state.name}/{event.name} "
                        f"{values}: compiled {got or got_error!r} reading {got_ctx._reads}, "
                        f"table {want or want_error!r} reading {want_ctx._reads}"
                    )
    return valuations, mismatches


@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: v.describe())
def test_compiled_dispatch_matches_the_table(variant):
    for build, states, events in SIDES:
        valuations, mismatches = check_table(build(variant), states, events)
        assert mismatches == []
        # One valuation per cell at least, more where a cell branches.
        assert valuations > len(states) * len(events)
