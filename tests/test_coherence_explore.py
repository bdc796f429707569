"""Tests for the exhaustive protocol state-space checker.

Two kinds of evidence that the checker actually checks something:

* clean variants explore to quiescence with zero violations and full
  coverage of their NORMAL rows (the per-variant CI sweep extends this
  to every combination — the DSI knob grid plus the Tardis family —
  via ``dsi-sim check-protocol``);
* re-introducing any of the historical races through the ``Bugs`` knobs
  makes the checker produce a counterexample trace again.
"""

from repro.coherence.explore import Checker, check_variant, default_configs
from repro.coherence.variants import Bugs, enumerate_variants

ALL_VARIANTS = tuple(enumerate_variants(False)) + tuple(enumerate_variants(True))


def by_label(label):
    for variant in ALL_VARIANTS:
        if variant.describe() == label:
            return variant
    raise AssertionError(f"no variant labelled {label!r}")


class TestCleanVariants:
    def test_sc_base_protocol_clean_and_fully_covered(self):
        report = check_variant(by_label("SC"))
        assert report.violation is None, report.violation
        assert not report.uncovered_cache and not report.uncovered_dir
        assert report.ok
        assert report.states > 5_000

    def test_wc_base_protocol_clean_and_fully_covered(self):
        """WC needs the asymmetric 3-node configuration for the
        three-party upgrade/INV re-grant race."""
        assert default_configs(by_label("WC")) == ((2, 3), (3, (2, 1, 1)))
        report = check_variant(by_label("WC"))
        assert report.ok, (report.violation, report.uncovered_cache,
                           report.uncovered_dir)

    def test_dsi_variant_clean(self):
        report = check_variant(
            by_label("SC+DSI(V)+TO"), configs=((2, 3),)
        )
        assert report.violation is None, (report.violation, report.trace)


class TestHistoricalRaceFifoOverflow:
    """Race 1 (fixed in the FIFO-overflow work): an overflow victim was
    invalidated even with a transaction in flight, yanking the fill that
    a stale FIFO entry pointed at and wedging the MSHR forever."""

    VARIANT = "SC+DSI(V)+FIFO"
    CONFIGS = ((2, (2, 2)),)

    def test_checker_rediscovers_the_race(self):
        report = check_variant(
            by_label(self.VARIANT),
            bugs=Bugs(fifo_overflow_ignores_mshr=True),
            configs=self.CONFIGS,
            require_coverage=False,
        )
        assert report.violation is not None
        assert "stuck transaction" in report.violation
        assert report.trace, "violation must come with a counterexample"
        assert any("fifo-overflow" in step for step in report.trace)

    def test_fixed_protocol_has_no_race(self):
        report = check_variant(
            by_label(self.VARIANT),
            configs=self.CONFIGS,
            require_coverage=False,
        )
        assert report.violation is None, (report.violation, report.trace)


class TestHistoricalRaceNotificationAsAck:
    """Race 2 (fixed in the seed): a crossing replacement/SI notification
    from a node the transaction was waiting on was consumed as an ack
    substitute, letting the real INV_ACK alias into the next transaction."""

    VARIANT = "SC+DSI(V)+TO"
    CONFIGS = ((2, 3),)

    def test_checker_rediscovers_the_race(self):
        report = check_variant(
            by_label(self.VARIANT),
            bugs=Bugs(notification_consumed_as_ack=True),
            configs=self.CONFIGS,
            require_coverage=False,
        )
        assert report.violation is not None
        assert "acknowledgment" in report.violation
        assert report.trace
        # The counterexample ends with the real, now-unexpected ack.
        assert "INV_ACK" in report.trace[-1]

    def test_fixed_protocol_has_no_race(self):
        report = check_variant(
            by_label(self.VARIANT),
            configs=self.CONFIGS,
            require_coverage=False,
        )
        assert report.violation is None, (report.violation, report.trace)


class TestHistoricalRaceSiNoticeBehindInvAck:
    """Race 3 (the pinned WC + STATES + tear-off coherence-order
    violation): a sync-point flush invalidates frames immediately but
    delays the SI_NOTIFY sends behind the flush cost, so a racing INV was
    acknowledged *without data* ahead of the dirty notice — the home
    completed the racing transaction with its stale memory copy and
    dropped the late notice as stale, losing the final write.  The
    explorer only sees the race because the model holds flushed notices
    at the node until an explicit notice-send move."""

    VARIANT = "WC+DSI(S)+TO"
    CONFIGS = ((2, 3),)

    def test_checker_rediscovers_the_race(self):
        report = check_variant(
            by_label(self.VARIANT),
            bugs=Bugs(si_notice_behind_inv_ack=True),
            configs=self.CONFIGS,
            require_coverage=False,
        )
        assert report.violation is not None
        assert "data-value" in report.violation
        assert report.trace
        assert any("sync-flush" in step for step in report.trace)
        assert any("INV_ACK" in step for step in report.trace)
        # The write is only lost once the stale notice is finally applied.
        assert "SI_NOTIFY" in report.trace[-1]

    def test_fixed_protocol_has_no_race(self):
        report = check_variant(
            by_label(self.VARIANT),
            configs=self.CONFIGS,
            require_coverage=False,
        )
        assert report.violation is None, (report.violation, report.trace)

    def test_race_not_specific_to_tearoff(self):
        """The underlying data loss needs only DSI + a dirty s-marked
        copy: plain SC + STATES reproduces it too."""
        report = check_variant(
            by_label("SC+DSI(S)"),
            bugs=Bugs(si_notice_behind_inv_ack=True),
            configs=((2, 3),),
            require_coverage=False,
        )
        assert report.violation is not None
        assert "data-value" in report.violation


class TestCheckerMechanics:
    def test_ops_budget_tuple_must_match_nodes(self):
        variant = by_label("SC")
        try:
            Checker(variant, nodes=2, ops=(3, 3, 3))
        except ValueError as err:
            assert "does not match" in str(err)
        else:
            raise AssertionError("mismatched ops budget accepted")

    def test_asymmetric_budgets_shrink_the_space(self):
        variant = by_label("SC")
        full = Checker(variant, nodes=2, ops=2).run()
        lean = Checker(variant, nodes=2, ops=(2, 1)).run()
        assert 0 < lean.states < full.states

    def test_trace_reconstruction_reaches_initial_state(self):
        """Every counterexample is a full path from the initial state."""
        report = check_variant(
            by_label("SC+DSI(V)+TO"),
            bugs=Bugs(notification_consumed_as_ack=True),
            configs=((2, 3),),
            require_coverage=False,
        )
        # First steps must be processor ops (nothing else can move first).
        assert report.trace[0].startswith("n")
        assert all(isinstance(step, str) for step in report.trace)

    def test_default_configs_sc_single(self):
        assert default_configs(by_label("SC+DSI(S)")) == ((2, 3),)

    def test_max_states_cap_raises(self):
        try:
            Checker(by_label("SC"), nodes=2, ops=3, max_states=100).run()
        except RuntimeError as err:
            assert "state-space bound exceeded" in str(err)
        else:
            raise AssertionError("state cap not enforced")
