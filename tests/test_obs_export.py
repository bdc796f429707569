"""Exporters: Perfetto trace JSON, metrics dump, ASCII timeline."""

import json

from conftest import seg_addr, tiny_config, two_proc_program
from repro.obs import (
    Instrument,
    ascii_timeline,
    metrics_dict,
    to_perfetto,
    write_metrics,
    write_perfetto,
)
from repro.obs.export import PID_DIR, PID_NET, PID_PROC
from repro.stats.tracer import MessageTracer
from repro.system import Machine
from test_obs import dsi_fifo_config, sharing_program


def traced_instrument(config=None):
    instrument = Instrument()
    Machine(config or tiny_config(), sharing_program(), instrument=instrument).run()
    return instrument


class TestPerfetto:
    def test_every_event_carries_schema_keys(self):
        trace = to_perfetto(traced_instrument())
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            assert {"ph", "ts", "pid", "tid"} <= set(event)

    def test_phases_cover_slices_counters_instants_metadata(self):
        trace = to_perfetto(traced_instrument(dsi_fifo_config()))
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"M", "X", "C", "i"} <= phases

    def test_lane_pids(self):
        trace = to_perfetto(traced_instrument())
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert {PID_PROC, PID_DIR, PID_NET} <= pids

    def test_slices_have_positive_duration(self):
        trace = to_perfetto(traced_instrument())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices
        assert all(e["dur"] >= 1 for e in slices)

    def test_counter_tracks_present(self):
        trace = to_perfetto(traced_instrument(dsi_fifo_config()))
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        assert "fifo_occupancy" in counters
        assert "write_buffer_depth" in counters
        assert "directory_occupancy" in counters

    def test_thread_names_for_every_node(self):
        config = tiny_config()
        trace = to_perfetto(traced_instrument(config))
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        for node in range(config.n_processors):
            assert f"proc {node}" in names
            assert f"dir {node}" in names

    def test_max_instants_bounds_messages(self):
        instrument = traced_instrument()
        trace = to_perfetto(instrument, max_instants=5)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 5
        assert trace["otherData"]["messages_dropped"] >= len(instrument.messages) - 5

    def test_instants_are_the_message_log(self):
        def build(b0, b1, ctx):
            ctx.barrier_all()
            b0.write(seg_addr(0)).write(seg_addr(1))
            ctx.barrier_all()
            b1.read(seg_addr(0)).read(seg_addr(1))
            ctx.barrier_all()

        block = seg_addr(0) >> 5
        instrument = Instrument(messages=MessageTracer(blocks=[block]))
        Machine(tiny_config(), two_proc_program(build), instrument=instrument).run()
        log = instrument.messages.events
        assert 0 < len(log) < instrument.counts["message_send"]  # the filter left some out
        instants = [e for e in to_perfetto(instrument)["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(instrument.messages)
        assert all(e["args"]["block"] == block for e in instants)
        assert [(e["ts"], e["name"], e["args"]["src"], e["args"]["dst"]) for e in instants] == [
            (m.time, m.kind, m.src, m.dst) for m in log
        ]

    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_perfetto(traced_instrument(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded["otherData"]["sim_cycles"] > 0


class TestFlows:
    """Flow arrows linking each miss slice to the directory slice that
    served it (request) and back (response)."""

    def _flows(self, config=None):
        trace = to_perfetto(traced_instrument(config))
        events = trace["traceEvents"]
        return trace, [e for e in events if e["ph"] in ("s", "f")]

    def test_flows_present_and_paired(self):
        trace, flows = self._flows()
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts
        assert starts == finishes
        assert trace["otherData"]["flows"] == len(starts)

    def test_finish_events_bind_to_enclosing_slice(self):
        _, flows = self._flows()
        for event in flows:
            if event["ph"] == "f":
                assert event["bp"] == "e"

    def test_anchors_fall_within_their_slices(self):
        # Chrome drops a flow whose anchor lies outside the slice it
        # binds to, so every "s"/"f" ts must land inside a slice on the
        # same pid/tid.
        trace = to_perfetto(traced_instrument())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        for event in trace["traceEvents"]:
            if event["ph"] not in ("s", "f"):
                continue
            assert any(
                s["pid"] == event["pid"]
                and s["tid"] == event["tid"]
                and s["ts"] <= event["ts"] < s["ts"] + s["dur"]
                for s in slices
            ), f"flow anchor {event} outside every slice"

    def test_request_and_response_named(self):
        _, flows = self._flows(dsi_fifo_config())
        names = {e["name"] for e in flows}
        assert names == {"request", "response"}


class TestMetrics:
    def test_schema(self):
        metrics = metrics_dict(traced_instrument(dsi_fifo_config()))
        assert set(metrics) >= {
            "sim_cycles",
            "probe_counts",
            "message_kinds",
            "span_latency",
            "series",
            "spans_recorded",
            "spans_dropped",
            "messages_dropped",
        }
        assert metrics["sim_cycles"] > 0
        assert metrics["probe_counts"]["message_send"] > 0
        assert metrics["span_latency"]["miss"]["count"] > 0
        assert set(metrics["series"]) == {
            "fifo_occupancy",
            "write_buffer_depth",
            "directory_occupancy",
            "ni_queue_depth",
        }

    def test_probe_counts_zero_filled(self):
        from repro.obs.instrument import PROBE_TYPES

        # SC without DSI never fires the FIFO or tear-off probes, but the
        # keys must still be present (as zero) so diffs of two dumps can
        # tell "never fired" apart from "does not exist".
        metrics = metrics_dict(traced_instrument())
        assert set(PROBE_TYPES) <= set(metrics["probe_counts"])
        assert metrics["probe_counts"]["fifo_overflow"] == 0
        assert metrics["probe_counts"]["cache_fill_tearoff"] == 0
        assert metrics["probe_counts"]["dir_grant"] > 0

    def test_dropped_summary(self):
        metrics = metrics_dict(traced_instrument())
        assert metrics["dropped"] == {
            "message_events": 0,
            "spans": 0,
            "series_points": 0,
        }

    def test_json_serializable(self):
        metrics = metrics_dict(traced_instrument())
        assert json.loads(json.dumps(metrics)) == metrics

    def test_write_metrics_merges_extra(self, tmp_path):
        path = tmp_path / "metrics.json"
        payload = write_metrics(
            traced_instrument(), str(path), extra={"workload": "test"}
        )
        assert payload["workload"] == "test"
        assert json.loads(path.read_text()) == payload


class TestAsciiTimeline:
    def test_renders_rows_per_lane(self):
        text = ascii_timeline(traced_instrument())
        lines = text.splitlines()
        assert "timeline:" in lines[0]
        assert any(line.startswith("proc0") for line in lines)
        assert all("|" in line for line in lines[1:])

    def test_empty_instrument(self):
        assert ascii_timeline(Instrument()) == "(no spans recorded)"

    def test_width_respected(self):
        text = ascii_timeline(traced_instrument(), width=40)
        for line in text.splitlines()[1:]:
            bar = line.split("|")[1]
            assert len(bar) == 40
