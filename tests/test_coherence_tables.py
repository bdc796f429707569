"""Structural tests for the declarative transition tables.

The tables are validated at construction (uniqueness, deterministic
guard chains, pure error rows); these tests build every variant x bug
combination, check the structural invariants hold, and pin down the
variant-conditional rows that the state-space checker's coverage pass
relies on (a row misclassified NORMAL fails CI as unreachable, a row
misclassified DEFENSIVE silently loses coverage).
"""

import dataclasses

import pytest

from repro.coherence.cache_table import build_cache_table, cache_table
from repro.coherence.dir_table import build_dir_table, dir_table
from repro.coherence.events import (
    CacheEvent,
    CacheState,
    DirEvent,
    DirState,
)
from repro.coherence.table import DEFENSIVE, ERROR, MULTIBLOCK, NORMAL, TransitionTable
from repro.coherence.variants import Bugs, NO_BUGS, enumerate_variants
from repro.config import IdentifyScheme

ALL_VARIANTS = tuple(enumerate_variants(False)) + tuple(enumerate_variants(True))
ALL_BUGS = (
    NO_BUGS,
    Bugs(fifo_overflow_ignores_mshr=True),
    Bugs(notification_consumed_as_ack=True),
)


def by_label(label):
    for variant in ALL_VARIANTS:
        if variant.describe() == label:
            return variant
    raise AssertionError(f"no variant labelled {label!r}")


def find_rows(table, state, event):
    return [t for t in table.transitions if t.state is state and t.event is event]


def the_row(table, state, event, guards=()):
    (row,) = [t for t in find_rows(table, state, event) if t.guards == tuple(guards)]
    return row


class TestConstruction:
    @pytest.mark.parametrize("bugs", ALL_BUGS, ids=lambda b: repr(b))
    def test_every_variant_builds_and_validates(self, bugs):
        for variant in ALL_VARIANTS:
            cache = build_cache_table(variant, bugs)
            directory = build_dir_table(variant, bugs)
            # validate() ran in the constructor; spot-check the index too.
            assert cache.transitions and directory.transitions
            cache.validate()
            directory.validate()

    def test_cell_ending_in_a_guarded_row_refused(self):
        """Each cell ends in an unguarded row, so some row always matches:
        a table whose (E, EVICT) cell lost its fallback row is refused."""
        variant = by_label("SC")
        table = cache_table(variant)
        fallback = the_row(table, CacheState.E, CacheEvent.EVICT)
        rows = [row for row in table.transitions if row is not fallback]
        with pytest.raises(AssertionError, match=r"\(E, Evict\) ends in a guarded row"):
            TransitionTable(table.name, variant, rows)

    def test_tables_are_memoized(self):
        variant = ALL_VARIANTS[0]
        assert cache_table(variant) is cache_table(variant)
        assert dir_table(variant) is dir_table(variant)
        assert cache_table(variant, ALL_BUGS[1]) is not cache_table(variant)

    def test_every_row_documented(self):
        for variant in ALL_VARIANTS:
            for table in (cache_table(variant), dir_table(variant)):
                for row in table.transitions:
                    assert row.doc or row.error, f"undocumented row {row!r}"

    def test_kinds_are_known(self):
        kinds = {NORMAL, MULTIBLOCK, DEFENSIVE, ERROR}
        for variant in ALL_VARIANTS:
            for table in (cache_table(variant), dir_table(variant)):
                assert {row.kind for row in table.transitions} <= kinds

    def test_error_rows_have_error_kind(self):
        for variant in ALL_VARIANTS:
            for table in (cache_table(variant), dir_table(variant)):
                for row in table.transitions:
                    assert (row.kind == ERROR) == (row.error is not None)


class TestVariantConditionalRows:
    """Rows whose presence or kind depends on the variant knobs."""

    def test_sc_has_no_wc_only_states(self):
        table = cache_table(by_label("SC"))
        for row in table.transitions:
            if row.state is CacheState.E_A:
                assert row.error is not None
        dtable = dir_table(by_label("SC"))
        assert not find_rows(dtable, DirState.B_WCP, DirEvent.LAST_ACK)

    def test_tearoff_states_only_with_tearoff(self):
        plain = cache_table(by_label("SC+DSI(V)"))
        assert not [t for t in plain.transitions if t.state is CacheState.T]
        tearoff = cache_table(by_label("WC+DSI(V)+TO"))
        assert [t for t in tearoff.transitions if t.state is CacheState.T]

    def test_load_waiter_rows_defensive_under_sc(self):
        """SC stores block the processor, so nothing can load under an
        outstanding write; under WC the rows are required coverage."""
        sc = cache_table(by_label("SC"))
        wc = cache_table(by_label("WC"))
        for state in (CacheState.IM_D, CacheState.SM_WI):
            assert the_row(sc, state, CacheEvent.LOAD).kind == DEFENSIVE
            assert the_row(wc, state, CacheEvent.LOAD).kind == NORMAL

    def test_marked_shared_sync_defensive_with_tearoff(self):
        """With tear-off, marked read fills land in T, so a marked
        tracked S copy never forms."""
        plain = cache_table(by_label("SC+DSI(V)"))
        tearoff = cache_table(by_label("SC+DSI(V)+TO"))
        assert the_row(plain, CacheState.S, CacheEvent.SI_SYNC).kind == NORMAL
        assert the_row(tearoff, CacheState.S, CacheEvent.SI_SYNC).kind == DEFENSIVE

    def test_owner_re_request_rows_defensive(self):
        """Per-pair FIFO delivers a WB before any later request from the
        same node, so the late-writeback wait (B_WB) never engages."""
        for label in ("SC", "WC+DSI(V)+FIFO+TO+MIG"):
            table = dir_table(by_label(label))
            for row in table.transitions:
                if "owner_is_requester" in row.guards:
                    assert row.kind == DEFENSIVE, row
                if row.state is DirState.B_WB and row.error is None:
                    assert row.kind == DEFENSIVE, row

    def test_upgrade_defer_kind_tracks_consistency(self):
        """B_WRITE can defer an UPGRADE only under SC (under WC,
        shared-state writes run through B_WCP instead)."""
        sc = dir_table(by_label("SC"))
        wc = dir_table(by_label("WC"))
        assert the_row(sc, DirState.B_WRITE, DirEvent.UPGRADE).kind == NORMAL
        assert the_row(wc, DirState.B_WRITE, DirEvent.UPGRADE).kind == DEFENSIVE
        assert the_row(sc, DirState.B_READ, DirEvent.UPGRADE).kind == DEFENSIVE
        assert the_row(wc, DirState.B_WCP, DirEvent.UPGRADE).kind == NORMAL

    def test_states_scheme_makes_tracked_regrant_defensive(self):
        """Under the additional-states scheme a post-reclaim read of a
        just-written block always classifies as a tear-off grant."""
        states = dir_table(by_label("WC+DSI(S)+TO"))
        version = dir_table(by_label("WC+DSI(V)+TO"))
        assert the_row(states, DirState.B_READ, DirEvent.LAST_ACK).kind \
            == DEFENSIVE
        assert the_row(version, DirState.B_READ, DirEvent.LAST_ACK).kind \
            == NORMAL

    def test_migratory_gates_clean_owner_rows(self):
        plain = dir_table(by_label("SC+DSI(V)"))
        mig = dir_table(by_label("SC+DSI(V)+MIG"))
        row = ("from_owner",)
        assert the_row(plain, DirState.EXCL, DirEvent.REPL, row).kind == DEFENSIVE
        assert the_row(mig, DirState.EXCL, DirEvent.REPL, row).kind == NORMAL

    def test_bug_rows_replace_fix_rows(self):
        variant = by_label("SC+DSI(V)+FIFO")
        fixed = cache_table(variant)
        buggy = cache_table(variant, Bugs(fifo_overflow_ignores_mshr=True))
        fixed_row = the_row(fixed, CacheState.IM_D, CacheEvent.SI_OVERFLOW)
        buggy_row = the_row(buggy, CacheState.IM_D, CacheEvent.SI_OVERFLOW)
        assert not fixed_row.actions and fixed_row.next_state is None
        assert buggy_row.actions and buggy_row.next_state is CacheState.I

    def test_notification_as_ack_rows_only_with_bug(self):
        variant = by_label("SC+DSI(V)+TO")
        fixed = dir_table(variant)
        buggy = dir_table(variant, Bugs(notification_consumed_as_ack=True))

        def pending_rows(table):
            return [
                t for t in table.transitions
                if t.guards == ("from_pending",)
                and t.event in (DirEvent.WB, DirEvent.REPL, DirEvent.SI_NOTIFY)
            ]

        assert not pending_rows(fixed)
        assert pending_rows(buggy)


class TestDecide:
    def test_guard_chain_first_match(self):
        table = cache_table(by_label("SC"))

        class Ctx:
            dirty = True

        row = table.decide(CacheState.E, CacheEvent.EVICT, Ctx())
        assert row.guards == ("dirty",)
        Ctx.dirty = False
        row = table.decide(CacheState.E, CacheEvent.EVICT, Ctx())
        assert row.guards == ()

    def test_variant_row_sets_differ(self):
        """Knobs add/remove whole rows rather than branching in actions."""
        keys = {}
        for variant in ALL_VARIANTS:
            keys.setdefault(
                (frozenset(t.key for t in cache_table(variant).transitions),
                 frozenset(t.key for t in dir_table(variant).transitions)),
                variant,
            )
        # Far fewer distinct shapes than variants, but more than a handful:
        # the knobs genuinely reshape the tables.
        assert 8 <= len(keys) <= len(ALL_VARIANTS)


class TestBugsDataclass:
    def test_bug_knobs_are_boolean_and_default_off(self):
        for field in dataclasses.fields(Bugs):
            assert field.type in ("bool", bool)
            assert getattr(NO_BUGS, field.name) is False

    def test_variant_labels_unique(self):
        labels = [v.describe() for v in ALL_VARIANTS]
        assert len(labels) == len(set(labels)) == 44

    def test_identify_schemes_enumerated(self):
        schemes = {v.identify for v in ALL_VARIANTS}
        assert schemes == set(IdentifyScheme)
