"""Declarative transition tables and their interpreter.

A :class:`TransitionTable` maps ``(state, event)`` to an ordered list of
guarded :class:`Transition` rows.  ``decide()`` returns the first row
whose guards all hold — guards are attribute names evaluated against a
*context* object (the controllers use lazy properties; the state-space
checker uses plain attributes), so the same table drives both.

Rows carry:

* ``actions`` — symbolic :class:`~repro.coherence.events.CacheAction` /
  ``DirAction`` members, executed in order by the controller's dispatch
  map;
* ``next_state`` — the declared destination (None when the destination is
  decided by a replayed request, e.g. the directory's late-writeback
  restart);
* ``result`` — the value handed back to the processor (hit/done/wait);
* ``error`` — instead of actions: reaching this row is a protocol
  violation and the interpreter raises :class:`ProtocolError`;
* ``kind`` — NORMAL rows must be reachable (the checker warns otherwise),
  DEFENSIVE rows guard against inputs the system cannot produce — message
  orderings ruled out by per-(src, dst) FIFO delivery, or request
  sequences ruled out by the in-order, load-blocking processor — and
  document how the controller would recover if a future network or core
  relaxed those guarantees; ERROR rows assert impossible inputs.

``validate()`` re-expresses the structural invariants the runtime
:class:`~repro.protocol.monitor.CoherenceMonitor` checks dynamically —
totality over declared inputs, determinism of guard chains, single-writer
destinations — as *table-level* assertions checked at build time.
"""

from repro.errors import ProtocolError

NORMAL = "normal"
#: normal behaviour, but only reachable with several distinct blocks —
#: the 1-block state-space checker does not require coverage of these.
MULTIBLOCK = "multiblock"
DEFENSIVE = "defensive"
ERROR = "error"


class Transition:
    """One guarded row of a transition table."""

    __slots__ = ("state", "event", "guards", "actions", "next_state", "result",
                 "error", "kind", "doc")

    def __init__(self, state, event, guards=(), actions=(), next_state=None,
                 result=None, error=None, kind=NORMAL, doc=""):
        self.state = state
        self.event = event
        self.guards = tuple(guards)
        self.actions = tuple(actions)
        self.next_state = next_state
        self.error = error
        self.result = result
        self.kind = ERROR if error is not None else kind
        self.doc = doc

    @property
    def key(self):
        return (self.state, self.event, self.guards)

    def matches(self, ctx):
        for guard in self.guards:
            if not getattr(ctx, guard):
                return False
        return True

    def __repr__(self):
        guard = "&".join(self.guards) or "-"
        return (
            f"Transition({self.state.value}, {self.event.value}, [{guard}] -> "
            f"{self.next_state.value if self.next_state else '·'})"
        )


class TransitionTable:
    """Immutable, validated set of transitions for one protocol variant."""

    def __init__(self, name, variant, transitions):
        self.name = name
        self.variant = variant
        self.transitions = tuple(transitions)
        self._index = {}
        for t in self.transitions:
            self._index.setdefault((t.state, t.event), []).append(t)
        self.validate()

    # ------------------------------------------------------------------
    def decide(self, state, event, ctx):
        """First matching row for (state, event) under ``ctx``'s guards
        (a cell ends in an unguarded row, so one always matches)."""
        rows = self._index.get((state, event))
        if rows is None:
            raise ProtocolError(
                f"{self.name}[{self.variant.describe()}]: no transition for "
                f"event {event.value} in state {state.value}"
            )
        for row in rows:
            if row.matches(ctx):
                return row

    def rows(self, state=None, event=None):
        out = []
        for t in self.transitions:
            if state is not None and t.state is not state:
                continue
            if event is not None and t.event is not event:
                continue
            out.append(t)
        return out

    def events(self):
        return {t.event for t in self.transitions}

    def states(self):
        return {t.state for t in self.transitions}

    # ------------------------------------------------------------------
    # Structural invariants (the monitor's rules, asserted on the table)
    # ------------------------------------------------------------------
    def validate(self):
        self._assert_unique_rows()
        self._assert_deterministic_guard_chains()
        self._assert_error_rows_pure()

    def _assert_unique_rows(self):
        seen = set()
        for t in self.transitions:
            if t.key in seen:
                raise AssertionError(f"{self.name}: duplicate row {t!r}")
            seen.add(t.key)

    def _assert_deterministic_guard_chains(self):
        """Within a (state, event) cell, guards must narrow monotonically
        and end in the one unguarded row: a row after it could never fire
        (an unreachable transition by construction), and without it some
        guard valuation would match no row at all."""
        for (state, event), rows in self._index.items():
            for i, row in enumerate(rows):
                if not row.guards and i != len(rows) - 1:
                    raise AssertionError(
                        f"{self.name}: unguarded row for ({state.value}, "
                        f"{event.value}) shadows {len(rows) - 1 - i} later row(s)"
                    )
            if rows[-1].guards:
                raise AssertionError(
                    f"{self.name}: ({state.value}, {event.value}) ends in a "
                    f"guarded row; its last row must be unguarded"
                )

    def _assert_error_rows_pure(self):
        for t in self.transitions:
            if t.error is not None and (t.actions or t.next_state is not None):
                raise AssertionError(
                    f"{self.name}: error row {t!r} must not carry actions"
                )


class CoverageTracker:
    """Which rows fired — the checker's unreachable-transition warning."""

    def __init__(self, table):
        self.table = table
        self.fired = {}

    def hit(self, row):
        self.fired[row.key] = self.fired.get(row.key, 0) + 1

    def uncovered(self, kinds=(NORMAL,)):
        return [
            t for t in self.table.transitions
            if t.kind in kinds and t.key not in self.fired
        ]


def rows(state_or_states, event_or_events, *args, **kwargs):
    """Cross-product row builder: ``rows((S, T), (WB, REPL), ...)``."""
    states = state_or_states if isinstance(state_or_states, tuple) else (state_or_states,)
    events = event_or_events if isinstance(event_or_events, tuple) else (event_or_events,)
    return [
        Transition(state, event, *args, **kwargs)
        for state in states
        for event in events
    ]
