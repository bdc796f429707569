"""Build-time lowering of transition tables to integer-indexed dispatch.

:class:`~repro.coherence.table.TransitionTable` stays the single source
of truth — the state-space checker, the documentation generator and the
table tests all keep interpreting it directly.  This module lowers a
validated table, once per variant, into the structures the controllers'
hot path wants:

* a dense ``state_idx * n_events + event_idx`` cell array (list indexing,
  no ``(state, event)`` tuple hashing);
* per-cell **guard-outcome decision trees**: the interpreter's
  first-matching-row scan is pre-resolved so each distinct guard is
  evaluated at most once per dispatch, through its prebound property
  ``fget`` (no ``getattr`` string lookups), in exactly the order the
  interpreter would first touch it — guards with lazy side effects (the
  directory's classification) therefore fire where the table's row
  order puts them;
* :class:`CompiledRow` leaves carrying prebound action functions and the
  precomputed ``state.value`` / ``event.value`` / next-state strings the
  observability probes and error messages need, so no enum attribute is
  read per dispatch.

``CompiledTable.decide`` picks the row ``TransitionTable.decide`` picks
and raises the *same* :class:`ProtocolError` messages (they are
precomputed per cell).  ``tests/test_table_oracle.py`` checks both, and
the guard reads, for every variant, cell and guard valuation.
"""

from operator import attrgetter

from repro.coherence.events import CacheEvent, CacheState, DirEvent, DirState
from repro.errors import ProtocolError

#: canonical index spaces (enum declaration order)
CACHE_STATES = tuple(CacheState)
CACHE_EVENTS = tuple(CacheEvent)
DIR_STATES = tuple(DirState)
DIR_EVENTS = tuple(DirEvent)

CACHE_STATE_INDEX = {state: i for i, state in enumerate(CACHE_STATES)}
CACHE_EVENT_INDEX = {event: i for i, event in enumerate(CACHE_EVENTS)}
DIR_STATE_INDEX = {state: i for i, state in enumerate(DIR_STATES)}
DIR_EVENT_INDEX = {event: i for i, event in enumerate(DIR_EVENTS)}


class CompiledRow:
    """One lowered transition: prebound actions + precomputed strings."""

    __slots__ = ("source", "actions", "fns", "next_state", "result", "error",
                 "kind", "state_name", "event_name", "next_name", "txn_kind")

    def __init__(self, transition, action_map):
        self.source = transition
        self.actions = transition.actions
        self.fns = tuple(action_map[action] for action in transition.actions)
        self.next_state = transition.next_state
        self.result = transition.result
        self.error = transition.error
        self.kind = transition.kind
        self.state_name = transition.state.value
        self.event_name = transition.event.value
        self.next_name = (transition.next_state or transition.state).value
        self.txn_kind = None  # annotated by the directory compiler

    def __repr__(self):
        return f"CompiledRow({self.source!r})"


class _Fail:
    """Decision leaf of a ``(state, event)`` cell with no rows: raises."""

    __slots__ = ("message",)

    def __init__(self, message):
        self.message = message


def _guard_fn(ctx_cls, name):
    """Prebound guard evaluator: the property's raw fget when available
    (both controllers' contexts use lazy properties), else attrgetter."""
    attr = getattr(ctx_cls, name, None)
    if isinstance(attr, property):
        return attr.fget
    return attrgetter(name)


def _build_tree(rows, row_map, guard_fns):
    """Pre-resolve one cell's guarded row scan into a decision tree.

    Nodes are ``(guard_fn, if_true, if_false)`` tuples; leaves are
    :class:`CompiledRow` (first matching row).  The tree evaluates
    exactly the guards the interpreter would newly evaluate, in the same
    order: walk rows top-down, a row whose guards are all known-true
    wins, a known-false guard skips the row, and the first *unknown*
    guard of the first still-alive row becomes the next node.  The
    cell's last row is unguarded (``TransitionTable.validate``), so every
    walk ends at a row.
    """

    def build(known):
        for row in rows:
            branch_guard = None
            failed = False
            for guard in row.guards:
                value = known.get(guard)
                if value is None:
                    branch_guard = guard
                    break
                if not value:
                    failed = True
                    break
            if failed:
                continue
            if branch_guard is None:
                return row_map[row]
            if_true = build({**known, branch_guard: True})
            if_false = build({**known, branch_guard: False})
            return (guard_fns[branch_guard], if_true, if_false)

    return build({})


class CompiledTable:
    """Integer-indexed dispatch structures for one transition table."""

    __slots__ = ("table", "name", "variant", "n_events", "_cells", "_row_map")

    def __init__(self, table, states, events, ctx_cls, action_map):
        self.table = table
        self.name = table.name
        self.variant = table.variant
        events = tuple(events)
        self.n_events = len(events)
        self._row_map = {t: CompiledRow(t, action_map) for t in table.transitions}
        guard_names = {g for t in table.transitions for g in t.guards}
        guard_fns = {name: _guard_fn(ctx_cls, name) for name in guard_names}
        prefix = f"{table.name}[{table.variant.describe()}]"
        self._cells = []
        for state in states:
            for event in events:
                rows = table._index.get((state, event))
                if rows is None:
                    self._cells.append(_Fail(
                        f"{prefix}: no transition for event {event.value} "
                        f"in state {state.value}"
                    ))
                    continue
                self._cells.append(_build_tree(rows, self._row_map, guard_fns))

    # ------------------------------------------------------------------
    def decide(self, state_idx, event_idx, ctx):
        """Hot path: list indexing + the cell's pre-resolved guard tree."""
        node = self._cells[state_idx * self.n_events + event_idx]
        while node.__class__ is tuple:
            node = node[1] if node[0](ctx) else node[2]
        if node.__class__ is _Fail:
            raise ProtocolError(node.message)
        return node


def compile_table(table, states, events, ctx_cls, action_map, annotate=None):
    """Lower ``table`` over the given state/event index spaces.

    ``ctx_cls`` supplies the guard properties, ``action_map`` the symbolic
    action -> unbound method mapping; ``annotate(transition, row)`` lets a
    controller attach precomputed per-row metadata (e.g. the directory's
    ``txn_kind`` probe label).
    """
    compiled = CompiledTable(table, states, events, ctx_cls, action_map)
    if annotate is not None:
        for transition, row in compiled._row_map.items():
            annotate(transition, row)
    return compiled
