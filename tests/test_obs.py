"""Instrumentation layer: probes, span stitching, samplers, equivalence.

The central contract of ``repro.obs`` is *zero observable effect on the
simulation*: a machine run with an :class:`~repro.obs.Instrument`
attached must produce a record identical to one run without.  The
equivalence tests here enforce that for SC and for the full
WC + tear-off + version + FIFO stack.
"""

import pytest

from conftest import seg_addr, tiny_config, two_proc_program
from repro.config import Consistency, IdentifyScheme, SIMechanism
from repro.obs import Histogram, Instrument, TimeSeries
from repro.obs.spans import LANE_PROC, SpanTracker
from repro.system import Machine


def sharing_program(rounds=3):
    def build(b0, b1, ctx):
        addr = seg_addr(0)
        for _ in range(rounds):
            ctx.barrier_all()
            b0.write(addr)
            ctx.barrier_all()
            b1.read(addr)
        ctx.barrier_all()

    return two_proc_program(build)


def instrumented_run(config=None, program=None):
    instrument = Instrument()
    machine = Machine(
        config or tiny_config(), program or sharing_program(), instrument=instrument
    )
    result = machine.run()
    return instrument, result


def dsi_fifo_config():
    return tiny_config(
        consistency=Consistency.WC,
        identify=IdentifyScheme.VERSION,
        tearoff=True,
        si_mechanism=SIMechanism.FIFO,
        fifo_entries=4,
    )


class TestEquivalence:
    """Instrumented and bare runs are measurement-identical."""

    def _records(self, config):
        program = sharing_program()
        bare = Machine(config, program).run()
        _, observed = instrumented_run(config, sharing_program())
        return bare, observed

    def test_sc_equivalent(self):
        bare, observed = self._records(tiny_config())
        assert bare.to_dict() == observed.to_dict()

    def test_dsi_fifo_equivalent(self):
        bare, observed = self._records(dsi_fifo_config())
        assert bare.to_dict() == observed.to_dict()


class TestAnalyticsEquivalence:
    """The analytics consumer layer keeps the equivalence contract: it
    reads probe arguments and never touches simulator state, so a run
    with an AnalyticsInstrument is measurement-identical to a bare one —
    while still running the full quiesce-time audit."""

    def _records(self, config):
        from repro.obs import AnalyticsInstrument

        program = sharing_program()
        bare = Machine(config, program).run()
        instrument = AnalyticsInstrument()
        observed = Machine(config, sharing_program(), instrument=instrument).run()
        return bare, observed, instrument

    def test_sc_equivalent(self):
        bare, observed, instrument = self._records(tiny_config())
        assert bare.to_dict() == observed.to_dict()
        assert instrument.audit_result["messages"]["sends"] > 0
        assert instrument.audit_result["coherence"]["blocks"] > 0

    def test_dsi_fifo_equivalent(self):
        bare, observed, instrument = self._records(dsi_fifo_config())
        assert bare.to_dict() == observed.to_dict()
        assert instrument.audit_result["messages"]["sends"] > 0

    def test_audit_off_leaves_no_ledger(self):
        from repro.obs import AnalyticsInstrument

        instrument = AnalyticsInstrument(audit=False)
        Machine(tiny_config(), sharing_program(), instrument=instrument).run()
        assert instrument.ledger is None
        assert instrument.audit_result == {}
        assert instrument.classifier.blocks  # classification still ran


class TestCausalEquivalence:
    """The causal tracer keeps the equivalence contract too: txn ids are
    allocated inside the instrument (never on the bare path), every
    override is super()-first and read-only, so a run with a
    CausalInstrument stays bit-identical to a bare one — including under
    the direct-execution fast path, where retired private hits fire no
    probes and surface as cache-hit cycles in bulk."""

    def _records(self, config):
        from repro.obs import CausalInstrument

        program = sharing_program()
        bare = Machine(config, program).run()
        instrument = CausalInstrument()
        observed = Machine(config, sharing_program(), instrument=instrument).run()
        return bare, observed, instrument

    def test_sc_equivalent(self):
        bare, observed, instrument = self._records(tiny_config())
        assert bare.to_dict() == observed.to_dict()
        assert instrument.accounting is not None  # conservation enforced

    def test_dsi_fifo_equivalent(self):
        bare, observed, instrument = self._records(dsi_fifo_config())
        assert bare.to_dict() == observed.to_dict()

    def test_fastpath_equivalent(self):
        # check_invariants=False is what arms the direct-execution fast
        # path (tiny_config turns it on, which disables the batcher).
        config = tiny_config(check_invariants=False)
        assert not config.check_invariants
        bare, observed, instrument = self._records(config)
        assert bare.to_dict() == observed.to_dict()
        assert instrument.accounting is not None

    def test_fastpath_and_interpreter_report_same_totals(self):
        from repro.obs import CausalInstrument

        totals = []
        for check in (True, False):
            instrument = CausalInstrument()
            Machine(
                tiny_config(check_invariants=check),
                sharing_program(),
                instrument=instrument,
            ).run()
            totals.append(instrument.accounting["categories"])
        assert totals[0] == totals[1]


class TestProbes:
    def test_message_counts_match_network_counters(self):
        instrument, result = instrumented_run()
        total = sum(result.messages.network.values()) + sum(
            result.messages.local.values()
        )
        assert instrument.counts["message_send"] == total
        assert instrument.counts["message_receive"] == total
        assert sum(instrument.message_kinds.values()) == total

    def test_cache_fill_counts_misses(self):
        instrument, result = instrumented_run()
        fills = result.misses.read_misses + result.misses.write_misses
        assert instrument.counts["cache_fill"] == fills

    def test_mshr_open_close_balanced(self):
        instrument, _ = instrumented_run()
        assert instrument.counts["mshr_open"] > 0
        assert instrument.counts["mshr_open"] == instrument.counts["mshr_close"]

    def test_self_invalidate_probe(self):
        instrument, result = instrumented_run(dsi_fifo_config(), sharing_program())
        assert instrument.counts["self_invalidate"] == result.misses.self_invalidations

    def test_fifo_probes_fire_under_fifo_mechanism(self):
        instrument, _ = instrumented_run(dsi_fifo_config(), sharing_program())
        assert instrument.counts["fifo_push"] > 0
        assert instrument.fifo_series

    def test_wb_probes_fire_under_wc(self):
        instrument, _ = instrumented_run(
            tiny_config(consistency=Consistency.WC), sharing_program()
        )
        assert instrument.counts["wb_fill"] > 0
        assert instrument.counts["wb_fill"] == instrument.counts["wb_drain"]

    def test_sync_probes_balanced(self):
        instrument, _ = instrumented_run()
        assert instrument.counts["sync_enter"] > 0
        assert instrument.counts["sync_enter"] == instrument.counts["sync_exit"]

    def test_inv_round_trips(self):
        instrument, result = instrumented_run()
        assert instrument.counts["inv_sent"] > 0
        assert instrument.counts["inv_sent"] == instrument.counts["inv_acked"]
        assert instrument.counts["inv_sent"] == (
            result.messages.network.get("INV", 0) + result.messages.local.get("INV", 0)
        )

    def test_machine_without_instrument_has_no_obs(self):
        machine = Machine(tiny_config(), sharing_program())
        assert machine.instrument is None
        assert machine.network.obs is None
        assert all(c.obs is None for c in machine.controllers)
        assert all(d.obs is None for d in machine.directories)


class TestSpans:
    def test_miss_spans_have_positive_duration(self):
        instrument, _ = instrumented_run()
        miss_spans = instrument.spans.by_category("miss")
        assert miss_spans
        assert all(s.duration >= 0 for s in miss_spans)
        assert any(s.duration > 0 for s in miss_spans)

    def test_all_spans_closed_at_end(self):
        instrument, _ = instrumented_run()
        assert instrument.spans.open_count() == 0

    def test_latency_histograms_fed(self):
        instrument, _ = instrumented_run()
        for category in ("miss", "dir", "sync"):
            assert instrument.latency[category].count > 0

    def test_dir_spans_on_directory_lane(self):
        from repro.obs.spans import LANE_DIR

        instrument, _ = instrumented_run()
        assert all(s.lane == LANE_DIR for s in instrument.spans.by_category("dir"))

    def test_rebind_to_other_machine_rejected(self):
        instrument, _ = instrumented_run()
        with pytest.raises(ValueError):
            Machine(tiny_config(), sharing_program(), instrument=instrument)


class TestSpanTracker:
    def test_begin_end_round_trip(self):
        tracker = SpanTracker()
        tracker.begin("k", "miss", "read", LANE_PROC, 0, 10)
        span = tracker.end("k", 25)
        assert span.duration == 15
        assert tracker.spans == [span]

    def test_begin_is_idempotent_keeps_earliest(self):
        tracker = SpanTracker()
        tracker.begin("k", "dir", "read", LANE_PROC, 0, 10)
        tracker.begin("k", "dir", "read", LANE_PROC, 0, 50)
        assert tracker.end("k", 60).start == 10

    def test_end_without_begin_is_none(self):
        assert SpanTracker().end("missing", 5) is None

    def test_max_spans_drops_and_counts(self):
        tracker = SpanTracker(max_spans=2)
        for i in range(4):
            tracker.begin(i, "miss", "m", LANE_PROC, 0, i)
            tracker.end(i, i + 1)
        assert len(tracker.spans) == 2
        assert tracker.dropped == 2


class TestSamplers:
    def test_time_series_records_level_changes(self):
        series = TimeSeries("fifo")
        series.record(0, 1)
        series.record(10, 2)
        series.record(20, 0)
        assert series.value_at(5) == 1
        assert series.value_at(10) == 2
        assert series.value_at(25) == 0
        assert series.last == 0

    def test_same_cycle_updates_collapse(self):
        series = TimeSeries("wb")
        series.record(5, 1)
        series.record(5, 3)
        assert len(series) == 1
        assert series.value_at(5) == 3

    def test_time_weighted_histogram(self):
        series = TimeSeries("dir")
        series.record(0, 1)  # level 1 for 90 cycles
        series.record(90, 10)  # level 10 for 10 cycles
        hist = series.histogram(end_time=100)
        assert hist.mean() == pytest.approx((1 * 90 + 10 * 10) / 100)

    def test_max_points_bounds_memory(self):
        series = TimeSeries("ni", max_points=3)
        for t in range(10):
            series.record(t, t)
        assert len(series) == 3
        assert series.dropped == 7

    def test_empty_series(self):
        series = TimeSeries("empty")
        assert len(series) == 0
        assert series.last == 0
        assert series.value_at(100) == 0
        hist = series.histogram(end_time=50)
        assert hist.count == 0 and hist.mean() == 0.0
        data = series.as_dict(end_time=50)
        assert data["points"] == 0 and data["count"] == 0

    def test_all_samples_at_identical_timestamp(self):
        # Every change lands in one cycle: each level's held-time weight
        # is zero, so the histogram takes the degenerate path and weights
        # the final level once instead of reporting nothing.
        series = TimeSeries("burst")
        series.record(7, 1)
        series.record(7, 5)
        series.record(7, 2)
        assert len(series) == 1  # same-cycle updates collapse
        hist = series.histogram(end_time=7)
        assert hist.count == 1
        assert hist.mean() == 2

    def test_zero_duration_tail_sample(self):
        # The last sample lands exactly at end_time: it held for zero
        # cycles and must not contribute weight, but the earlier levels
        # still integrate normally.
        series = TimeSeries("tail")
        series.record(0, 4)
        series.record(10, 9)
        hist = series.histogram(end_time=10)
        assert hist.weight == 10
        assert hist.mean() == pytest.approx(4.0)

    def test_end_time_before_samples_degenerates(self):
        series = TimeSeries("late")
        series.record(100, 3)
        hist = series.histogram(end_time=100)
        assert hist.count == 1
        assert hist.mean() == 3

    def test_histogram_percentiles(self):
        hist = Histogram("lat")
        for value in range(1, 101):
            hist.add(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(99) == 99
        assert hist.percentiles() == {"p50": 50, "p90": 90, "p99": 99}

    def test_histogram_as_dict(self):
        hist = Histogram("lat")
        hist.add(10)
        hist.add(30)
        data = hist.as_dict()
        assert data["count"] == 2
        assert data["min"] == 10 and data["max"] == 30
        assert data["mean"] == pytest.approx(20.0)


class TestSeriesTables:
    def test_all_counter_groups_present(self):
        instrument, _ = instrumented_run(dsi_fifo_config(), sharing_program())
        tables = instrument.series_tables()
        assert set(tables) == {
            "fifo_occupancy",
            "write_buffer_depth",
            "directory_occupancy",
            "ni_queue_depth",
        }
        assert tables["fifo_occupancy"]
        assert tables["write_buffer_depth"]
        assert tables["directory_occupancy"]

    def test_directory_occupancy_returns_to_zero(self):
        instrument, _ = instrumented_run()
        for series in instrument.dir_series.values():
            assert series.last == 0
