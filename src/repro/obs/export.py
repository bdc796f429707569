"""Exporters: Perfetto/Chrome trace JSON, metrics dump, ASCII timeline.

The Perfetto export follows the Chrome trace-event format (the
``traceEvents`` array of ``{"ph", "ts", "pid", "tid", ...}`` objects)
which both ``chrome://tracing`` and https://ui.perfetto.dev load
directly.  One simulated cycle maps to one microsecond of trace time.

Lanes: every processor gets a thread under the "processors" process,
every directory a thread under "directories", the network one thread of
its own; counter tracks (FIFO occupancy, write-buffer depth, directory
occupancy, NI queue depth) render above them.
"""

import json

from repro.obs.instrument import PROBE_TYPES
from repro.obs.spans import LANE_DIR, LANE_NET, LANE_PROC

#: Synthetic pids for the three lane groups.
PID_PROC = 1
PID_DIR = 2
PID_NET = 3

_LANE_PID = {LANE_PROC: PID_PROC, LANE_DIR: PID_DIR, LANE_NET: PID_NET}


def _meta(pid, tid, name, kind):
    # tid defaults to 0 so every event carries the full ph/ts/pid/tid
    # schema (CI validates this uniformly).
    return {
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": 0 if tid is None else tid,
        "name": kind,
        "args": {"name": name},
    }


def _flow(name, flow_id, ph, ts, pid, tid):
    event = {
        "name": name,
        "cat": "flow",
        "ph": ph,
        "id": flow_id,
        "ts": ts,
        "pid": pid,
        "tid": tid,
    }
    if ph == "f":
        event["bp"] = "e"  # bind to the enclosing slice, not the next one
    return event


def _flow_events(instrument, max_flows=20_000):
    """Flow arrows linking each miss slice to the directory slice that
    served it: a ``request`` arrow (miss start → dir start) and a
    ``response`` arrow (dir grant → miss completion).

    Matching prefers the causal ``txn`` id both spans carry (the
    transaction id propagated end-to-end through every message); spans
    without one fall back to (requester, block) with the directory span
    starting inside the miss span — the same containment a real request
    obeys.  Chrome's format requires the "s"/"f" anchors to fall
    *within* their bound slices, so arrows anchor at slice starts and at
    ``end - 1`` (every exported slice has ``dur >= 1``).
    """
    misses = {}
    miss_by_txn = {}
    for span in instrument.finished_spans():
        if span.category == "miss":
            misses.setdefault((span.node, span.args.get("block")), []).append(span)
            txn = span.args.get("txn")
            if txn is not None:
                miss_by_txn[txn] = span
    for candidates in misses.values():
        candidates.sort(key=lambda s: s.start)
    events = []
    flow_id = 0
    for span in instrument.finished_spans():
        if span.category != "dir":
            continue
        txn = span.args.get("txn")
        miss = miss_by_txn.get(txn) if txn is not None else None
        if miss is None:
            requester = span.args.get("requester")
            candidates = misses.get((requester, span.args.get("block")))
            if requester is None or not candidates:
                continue
            miss = next(
                (m for m in candidates if m.start <= span.start <= m.end), None
            )
        if miss is None or flow_id // 2 >= max_flows:
            continue
        events.append(_flow("request", flow_id, "s", miss.start, PID_PROC, miss.node))
        events.append(_flow("request", flow_id, "f", span.start, PID_DIR, span.node))
        flow_id += 1
        events.append(
            _flow("response", flow_id, "s", max(span.end - 1, span.start), PID_DIR, span.node)
        )
        events.append(
            _flow("response", flow_id, "f", max(miss.end - 1, miss.start), PID_PROC, miss.node)
        )
        flow_id += 1
    return events


def to_perfetto(instrument, max_instants=20_000):
    """Render an :class:`~repro.obs.instrument.Instrument` as a Chrome
    trace-event dict (``json.dump`` it to get a loadable ``trace.json``).

    The message instants are the run's message log
    (``instrument.messages``), of which ``max_instants`` bounds how many
    are drawn (sends can dwarf everything else); spans and counter tracks
    are always complete.
    """
    events = [
        _meta(PID_PROC, None, "processors", "process_name"),
        _meta(PID_DIR, None, "directories", "process_name"),
        _meta(PID_NET, None, "network", "process_name"),
        _meta(PID_NET, 0, "messages", "thread_name"),
    ]
    for node in range(instrument.n_processors):
        events.append(_meta(PID_PROC, node, f"proc {node}", "thread_name"))
        events.append(_meta(PID_DIR, node, f"dir {node}", "thread_name"))
    # Spans as complete ("X") slices.  Zero-length directory grants are
    # clamped to one cycle so they stay visible.
    for span in instrument.finished_spans():
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start,
                "dur": max(span.duration, 1),
                "pid": _LANE_PID[span.lane],
                "tid": span.node,
                "args": {str(k): v for k, v in span.args.items()},
            }
        )
    # Counter tracks.
    for group, table in instrument.series_tables().items():
        for node, series in sorted(table.items()):
            for time, value in zip(series.times, series.values):
                events.append(
                    {
                        "name": group,
                        "ph": "C",
                        "ts": time,
                        "pid": _LANE_PID[LANE_DIR if group == "directory_occupancy" else LANE_PROC],
                        "tid": node,
                        "id": node,
                        "args": {f"node{node}": value},
                    }
                )
    # Flow arrows stitching request/response across lanes.
    flows = _flow_events(instrument)
    events.extend(flows)
    # The run's message log as instant events on the network lane.
    log = instrument.messages
    for message in log.events[:max_instants]:
        events.append(
            {
                "name": message.kind,
                "cat": "message",
                "ph": "i",
                "s": "t",
                "ts": message.time,
                "pid": PID_NET,
                "tid": 0,
                "args": {
                    "src": message.src,
                    "dst": message.dst,
                    "block": message.block,
                    "network": not message.local,
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "dsi-sim",
            "sim_cycles": instrument.now,
            "flows": len(flows) // 2,
            "spans_dropped": instrument.spans.dropped,
            "messages_dropped": log.dropped + max(len(log) - max_instants, 0),
        },
    }


def write_perfetto(instrument, path, max_instants=20_000):
    """Write ``path`` as Chrome trace-event JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_perfetto(instrument, max_instants=max_instants), handle)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metrics_dict(instrument):
    """JSON-serializable metrics summary of one instrumented run."""
    end = instrument.now
    series = {
        group: {str(node): s.as_dict(end_time=end) for node, s in sorted(table.items())}
        for group, table in instrument.series_tables().items()
    }
    # Zero-fill the full probe inventory so a diff of two metrics dumps
    # distinguishes "never fired" from "does not exist".
    probe_counts = {name: 0 for name in PROBE_TYPES}
    probe_counts.update(instrument.counts)
    return {
        "sim_cycles": end,
        "probe_counts": probe_counts,
        "message_kinds": dict(instrument.message_kinds),
        "span_latency": {
            category: hist.as_dict() for category, hist in instrument.latency.items()
        },
        "series": series,
        "spans_recorded": len(instrument.spans.spans),
        "spans_dropped": instrument.spans.dropped,
        "messages_dropped": instrument.messages.dropped,
        "dropped": {
            "message_events": instrument.messages.dropped,
            "spans": instrument.spans.dropped,
            "series_points": sum(
                series_obj.dropped
                for table in instrument.series_tables().values()
                for series_obj in table.values()
            ),
        },
    }


def write_why(report, path):
    """Write a ``why_report`` payload (see :mod:`repro.obs.causal`) as
    stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def write_metrics(instrument, path, extra=None):
    """Write the metrics dump; ``extra`` merges in run context (workload,
    protocol, wall time) from the caller."""
    payload = metrics_dict(instrument)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return payload


# ----------------------------------------------------------------------
# ASCII timeline
# ----------------------------------------------------------------------
_DENSITY = " .:-=+*#%@"


def ascii_timeline(instrument, width=72, categories=("miss", "sync")):
    """A terminal-width density timeline: one row per lane, each column a
    bucket of simulated time shaded by how much of it the lane spent
    inside a span of the selected categories."""
    spans = [s for s in instrument.finished_spans() if s.category in categories]
    end = max((s.end for s in spans), default=instrument.now) or 1
    lanes = {}
    for span in spans:
        lanes.setdefault((span.lane, span.node), []).append(span)
    if not lanes:
        return "(no spans recorded)"
    bucket = end / width
    lines = [
        f"timeline: 0 .. {end} cycles, {bucket:.0f} cycles/column "
        f"(categories: {', '.join(categories)})"
    ]
    for (lane, node), lane_spans in sorted(lanes.items()):
        fill = [0.0] * width
        for span in lane_spans:
            lo = min(int(span.start / bucket), width - 1)
            hi = min(int(max(span.end - 1, span.start) / bucket), width - 1)
            for col in range(lo, hi + 1):
                col_start = col * bucket
                col_end = col_start + bucket
                overlap = min(span.end, col_end) - max(span.start, col_start)
                fill[col] += max(overlap, 0) / bucket
        row = "".join(
            _DENSITY[min(int(f * (len(_DENSITY) - 1)), len(_DENSITY) - 1)] for f in fill
        )
        lines.append(f"{lane}{node:<4d} |{row}|")
    return "\n".join(lines)
