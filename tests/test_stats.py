"""Statistics: counters, run records, table formatting."""

import pytest

from repro.stats.breakdown import Breakdown
from repro.stats.counters import MessageCounters, MissCounters
from repro.stats.record import RunRecord
from repro.stats.report import format_breakdown_table, format_table


def make_result(label="SC", exec_time=100, invs=5, total=20):
    messages = MessageCounters()
    for _ in range(invs):
        messages.count("INV", True, False)
    for _ in range(total - invs):
        messages.count("GETS", True, False)
    misses = MissCounters()
    misses.bump("read_hits", 90)
    misses.bump("read_misses", 10)
    breakdown = Breakdown()
    breakdown.add("compute", exec_time // 2)
    breakdown.add("read_other", exec_time - exec_time // 2)
    return RunRecord(
        label=label,
        workload="test",
        exec_time=exec_time,
        per_proc_time=[exec_time],
        breakdowns=[breakdown],
        messages=messages,
        misses=misses,
        events_fired=42,
    )


class TestMessageCounters:
    def test_network_and_local_separated(self):
        counters = MessageCounters()
        counters.count("GETS", True, False)
        counters.count("GETS", False, False)
        assert counters.network["GETS"] == 1
        assert counters.local["GETS"] == 1
        assert counters.total_network() == 1

    def test_data_blocks_counted_network_only(self):
        counters = MessageCounters()
        counters.count("DATA", True, True)
        counters.count("DATA", False, True)
        assert counters.data_blocks_sent == 1

    def test_as_dict(self):
        counters = MessageCounters()
        counters.count("INV", True, False)
        data = counters.as_dict()
        assert data["invalidations"] == 1
        assert data["total_network"] == 1

    def test_as_dict_round_trip(self):
        counters = MessageCounters()
        counters.count("GETS", True, False)
        counters.count("GETS", False, False)
        counters.count("INV", True, False)
        counters.count("DATA", True, True)
        data = counters.as_dict()

        rebuilt = MessageCounters()
        rebuilt.network.update(data["network"])
        rebuilt.local.update(data["local"])
        assert rebuilt.as_dict() == data
        assert rebuilt.total_network() == counters.total_network()
        assert rebuilt.invalidations() == counters.invalidations()

    def test_as_dict_json_serializable(self):
        import json

        counters = MessageCounters()
        counters.count("UPGRADE", True, False)
        assert json.loads(json.dumps(counters.as_dict())) == counters.as_dict()


class TestMissCounters:
    def test_miss_rate(self):
        misses = MissCounters()
        misses.bump("read_hits", 3)
        misses.bump("read_misses", 1)
        assert misses.miss_rate() == pytest.approx(0.25)

    def test_miss_rate_empty(self):
        assert MissCounters().miss_rate() == 0.0

    def test_bump_amount(self):
        misses = MissCounters()
        misses.bump("self_invalidations", 5)
        assert misses.self_invalidations == 5


class TestRunResult:
    def test_normalized(self):
        base = make_result(exec_time=200)
        fast = make_result(exec_time=100)
        assert fast.normalized_to(base) == 0.5

    def test_aggregate_breakdown(self):
        result = make_result(exec_time=100)
        assert result.aggregate_breakdown().total() == 100


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        # numeric column right-aligned
        assert lines[2].endswith(" 1")

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_breakdown_table(self):
        base = make_result(label="SC", exec_time=200)
        dsi = make_result(label="DSI", exec_time=150)
        text = format_breakdown_table([base, dsi])
        assert "1.000" in text and "0.750" in text

    def test_format_breakdown_empty(self):
        assert format_breakdown_table([], title="t") == "t"

    def test_floats_formatted(self):
        text = format_table(["v"], [[0.123456]])
        assert "0.123" in text
