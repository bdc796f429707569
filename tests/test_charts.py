"""ASCII chart rendering and occupancy reporting."""

import pytest

from conftest import seg_addr, tiny_config
from repro.stats.ascii_chart import GLYPHS, bar_chart, stacked_bar, stacked_bars
from repro.stats.breakdown import CATEGORIES, Breakdown
from repro.stats.counters import MessageCounters, MissCounters
from repro.stats.record import RunRecord
from repro.system import Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program


def result_with(label, exec_time, **cycles):
    breakdown = Breakdown()
    for category, amount in cycles.items():
        breakdown.add(category, amount)
    return RunRecord(
        label=label,
        workload="w",
        exec_time=exec_time,
        per_proc_time=[exec_time],
        breakdowns=[breakdown],
        messages=MessageCounters(),
        misses=MissCounters(),
        events_fired=0,
        dir_busy_cycles=exec_time // 4,
    )


class TestStackedBar:
    def test_all_categories_have_glyphs(self):
        assert set(GLYPHS) == set(CATEGORIES)

    def test_bar_length_scales(self):
        fractions = {"compute": 1.0}
        assert len(stacked_bar(fractions, scale=1.0, width=40)) == 40
        assert len(stacked_bar(fractions, scale=0.5, width=40)) == 20

    def test_categories_partition_bar(self):
        fractions = {"compute": 0.5, "sync": 0.5}
        bar = stacked_bar(fractions, scale=1.0, width=20)
        assert bar == "#" * 10 + "%" * 10

    def test_rounding_slack_absorbed(self):
        fractions = {"compute": 1 / 3, "sync": 1 / 3, "read_other": 1 / 3}
        bar = stacked_bar(fractions, scale=1.0, width=40)
        assert len(bar) == 40

    def test_zero_scale(self):
        assert stacked_bar({"compute": 1.0}, scale=0.0, width=40) == ""


class TestStackedBars:
    def test_normalized_lengths(self):
        base = result_with("SC", 100, compute=40, read_other=60)
        dsi = result_with("DSI", 50, compute=40, read_other=10)
        text = stacked_bars([base, dsi], width=40)
        lines = text.splitlines()
        assert "1.00" in lines[0]
        assert "0.50" in lines[1]

    def test_legend_present(self):
        text = stacked_bars([result_with("SC", 10, compute=10)])
        assert "#=compute" in text

    def test_empty(self):
        assert stacked_bars([], title="t") == "t"

    def test_title(self):
        text = stacked_bars([result_with("SC", 10, compute=10)], title="em3d")
        assert text.splitlines()[0] == "em3d"


class TestBarChart:
    def test_peak_fills_width(self):
        text = bar_chart([("a", 10), ("b", 5)], width=20)
        lines = text.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_empty(self):
        assert bar_chart([], title="x") == "x"

    def test_zero_values(self):
        text = bar_chart([("a", 0)])
        assert "a" in text


class TestOccupancyReporting:
    def test_dir_busy_cycles_collected(self):
        program = Program(
            "p",
            [TraceBuilder().read(seg_addr(1)).build(), TraceBuilder().build()],
        )
        result = Machine(tiny_config(), program).run()
        # One GETS = one directory job of 10 cycles.
        assert result.dir_busy_cycles == 10

    def test_ni_busy_cycles_collected(self):
        program = Program(
            "p",
            [TraceBuilder().read(seg_addr(1)).build(), TraceBuilder().build()],
        )
        result = Machine(tiny_config(), program).run()
        # GETS injection (3) + DATA response injection (11).
        assert result.ni_busy_cycles == 14

    def test_local_traffic_skips_ni(self):
        program = Program("p", [TraceBuilder().read(seg_addr(0)).build()])
        result = Machine(tiny_config(n_procs=1), program).run()
        assert result.ni_busy_cycles == 0
        assert result.dir_busy_cycles == 10

    def test_dir_occupancy_fraction(self):
        base = result_with("SC", 100, compute=100)
        assert base.dir_occupancy() == pytest.approx(0.25)

    def test_dir_occupancy_empty(self):
        empty = result_with("SC", 0)
        assert empty.dir_occupancy() == 0.0
