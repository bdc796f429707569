"""The harness observatory: a schema-versioned event stream for sweeps.

A :class:`~repro.harness.runpool.RunPool` sweep narrates itself as one
stream of events, all emitted by the parent process:

Event stream
    One JSON object per harness happening: ``sweep_begin``/``sweep_end``
    bracket each batch, and each spec gets ``run_queued`` and then one
    terminal ``run_cached``/``run_finished``/``run_failed``.  A
    ``run_finished`` event names the worker pid that ran the spec and
    the host time it started there (both come back with the record).
    Every event carries ``schema == TELEMETRY_SCHEMA_VERSION`` and is
    validated on emission.

Sinks
    :class:`JsonlSink` (``--log FILE``) writes one line per event to a
    fresh FILE, flushed immediately so a crashed sweep still leaves a
    readable log; :class:`VerboseSink` renders the ``--verbose`` lines
    from the same events.  :class:`TelemetryHub` stamps a total-order
    ``seq`` and the active sweep id and hands each event to the sinks.
    Telemetry never influences results: profiling wraps the run in
    ``cProfile`` without touching the simulation, and no setting enters
    the result cache's code fingerprint (``tests/test_telemetry.py``
    checks both).

Post-hoc analysis
    :func:`load_log` + :func:`sweep_report` power ``dsi-sim report``:
    worker utilization, queue-wait vs execute time, cache-hit breakdown
    and top-K stragglers.  :func:`reconcile` cross-checks a log against
    :meth:`~repro.harness.runpool.RunPool.manifest`: every spec exactly
    once, zero lost events.

Host profiling
    ``--profile cprofile`` wraps each executed run and writes a per-run
    ``pstats`` sidecar keyed by the RunSpec content hash
    (:func:`profile_sidecar`); :func:`profile_table` merges any number
    of sidecars into one top-N hot-function table for ``dsi-sim
    report``.
"""

import json
import os
import pstats
import sys
import time
import uuid

from repro.errors import ConfigError, ReproError
from repro.stats.report import format_table

#: Version of the harness event-stream layout.  Bump on any field
#: rename/removal; adding optional fields is compatible.
TELEMETRY_SCHEMA_VERSION = 2

#: Fields every event carries (``seq`` and ``sweep`` are stamped by the
#: hub, so pre-hub events legitimately lack them).
COMMON_FIELDS = ("schema", "type", "ts")

#: Required type-specific fields, per event type.  This *is* the schema:
#: :func:`validate_event` checks membership and presence against it.
EVENT_FIELDS = {
    "sweep_begin": ("sweep", "specs", "pending", "jobs", "fingerprint"),
    "run_queued": ("sweep", "spec_key", "workload", "label"),
    "run_cached": (
        "sweep", "spec_key", "workload", "label", "cache_kb", "net",
        "exec_time", "wall_time_s",
    ),
    "run_finished": (
        "sweep", "spec_key", "workload", "label", "cache_kb", "net",
        "exec_time", "wall_time_s", "sim_cycles_per_s", "profile",
        "worker", "started",
    ),
    "run_failed": ("sweep", "spec_key", "workload", "label", "error", "traceback"),
    "sweep_end": ("sweep", "executed", "cache_hits", "failed", "wall_s"),
}

#: Event types that terminate a spec's life in a sweep (reconciliation
#: demands exactly one of these per spec per sweep).
TERMINAL_TYPES = ("run_cached", "run_finished", "run_failed")


class TelemetryError(ReproError):
    """A harness telemetry event or log failed schema validation."""


def make_event(type_, **fields):
    """A new event of ``type_``, stamped with schema version and wall
    clock.  Field *presence* is checked at emission/validation time, so
    builders can stay minimal (the hub adds ``sweep`` and ``seq``)."""
    if type_ not in EVENT_FIELDS:
        raise TelemetryError(f"unknown telemetry event type {type_!r}")
    event = {"schema": TELEMETRY_SCHEMA_VERSION, "type": type_, "ts": time.time()}
    event.update(fields)
    return event


def validate_event(event):
    """Raise :class:`TelemetryError` unless ``event`` is schema-valid;
    returns the event for chaining."""
    if not isinstance(event, dict):
        raise TelemetryError(f"telemetry event is not an object: {event!r}")
    type_ = event.get("type")
    if type_ not in EVENT_FIELDS:
        raise TelemetryError(f"unknown telemetry event type {type_!r}")
    if event.get("schema") != TELEMETRY_SCHEMA_VERSION:
        raise TelemetryError(
            f"telemetry schema {event.get('schema')!r} != {TELEMETRY_SCHEMA_VERSION}"
            f" on {type_} event"
        )
    missing = [
        field
        for field in COMMON_FIELDS + EVENT_FIELDS[type_]
        if field not in event
    ]
    if missing:
        raise TelemetryError(f"{type_} event missing {missing}")
    if not isinstance(event["ts"], (int, float)):
        raise TelemetryError(f"{type_} event ts is not a number: {event['ts']!r}")
    if "seq" in event and (not isinstance(event["seq"], int) or event["seq"] < 0):
        raise TelemetryError(f"{type_} event seq invalid: {event['seq']!r}")
    return event


def load_log(path):
    """Read one JSONL telemetry log, validating every line; returns the
    event list in file order."""
    events, problems = load_log_lenient(path)
    if problems:
        raise TelemetryError(problems[0])
    return events


def load_log_lenient(path):
    """Read a JSONL telemetry log, keeping every valid line.

    Returns ``(events, problems)``: schema-valid events in file order,
    plus one human-readable string per malformed or invalid line.  A log
    from a crashed or still-running sweep legitimately ends mid-line, so
    consumers (``dsi-sim report``) analyze the valid prefix and surface
    the damage instead of refusing the whole file."""
    events = []
    problems = []
    try:
        with open(path, "rb") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line.decode("utf-8"))
                except ValueError as exc:  # UnicodeDecodeError included
                    problems.append(f"{path}:{lineno}: not JSON: {exc}")
                    continue
                try:
                    events.append(validate_event(event))
                except TelemetryError as exc:
                    problems.append(f"{path}:{lineno}: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read telemetry log {path}: {exc}") from exc
    return events, problems


def profile_sidecar(profile_dir, spec_key):
    """The per-run pstats path for a spec: content-addressed by the
    RunSpec hash, so re-profiled runs of the same spec overwrite in
    place and the parent can name a worker's sidecar without a
    round-trip."""
    return os.path.join(profile_dir, spec_key[:32] + ".pstats")


def make_profile_dir(path):
    """Create the sidecar directory, failing with a one-line
    :class:`ConfigError` naming ``path`` when it cannot be written —
    the pool calls this before any spec runs."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create profile directory {path}: {exc.strerror or exc}"
        ) from None
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write profile directory {path}: permission denied")


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TelemetryConfig:
    """Harness telemetry settings carried by a RunPool.

    ``log_path`` and ``profile`` each independently activate telemetry.
    None of these fields may influence simulation results — the result
    cache's code fingerprint deliberately ignores them, and
    ``tests/test_telemetry.py`` checks records identical with and
    without telemetry.
    """

    def __init__(self, log_path=None, profile=None, profile_dir=None):
        if profile not in (None, "cprofile"):
            raise ConfigError(f"unknown profiler {profile!r}; have: cprofile")
        self.log_path = log_path
        self.profile = profile
        self.profile_dir = profile_dir or (
            (log_path + ".profiles") if (profile and log_path) else
            ("dsi-profiles" if profile else None)
        )

    @property
    def active(self):
        return bool(self.log_path or self.profile)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TelemetrySink:
    """Consumes validated events; ``close`` flushes/releases resources."""

    def handle(self, event):
        raise NotImplementedError

    def close(self):
        pass


class JsonlSink(TelemetrySink):
    """One JSON line per event, flushed eagerly: a killed sweep still
    leaves every emitted event on disk.  An unwritable ``path`` fails
    here, with a one-line :class:`ConfigError`, before any spec runs."""

    def __init__(self, path):
        self.path = path
        try:
            self._handle = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(
                f"cannot write telemetry log {path}: {exc.strerror or exc}"
            ) from None

    def handle(self, event):
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self):
        if not self._handle.closed:
            self._handle.close()


class VerboseSink(TelemetrySink):
    """The ``--verbose`` stderr lines, derived from the event stream."""

    def __init__(self, stream=None):
        self.stream = stream
        self._runs = 0

    def _out(self):
        return self.stream if self.stream is not None else sys.stderr

    def handle(self, event):
        type_ = event["type"]
        if type_ == "run_failed":
            print(
                f"[FAIL] {event['workload']:10s} {event['label']:12s} "
                f"{event['error']}",
                file=self._out(), flush=True,
            )
            return
        if type_ not in ("run_finished", "run_cached"):
            return
        if type_ == "run_finished":
            self._runs += 1
            tag = f"run {self._runs}"
        else:
            tag = "hit"
        wall = event["wall_time_s"] or 0.0
        print(
            f"[{tag}] {event['workload']:10s} {event['label']:12s} "
            f"cache={event['cache_kb']}KB net={event['net']} "
            f"exec={event['exec_time']} ({wall:.1f}s)",
            file=self._out(), flush=True,
        )


# ----------------------------------------------------------------------
# Hub: parent-side fan-out
# ----------------------------------------------------------------------
class TelemetryHub:
    """Hands every event to the sinks, in emission order.

    Only the parent process emits, so this is a plain single-threaded
    fan-out: ``emit`` stamps the total-order ``seq`` and the active
    sweep id, validates, and calls each sink.
    """

    def __init__(self, sinks=()):
        self.sinks = list(sinks)
        self.errors = []
        self._seq = 0
        self._sweep = None
        self._closed = False

    def begin_sweep(self, sweep_id):
        self._sweep = sweep_id

    def end_sweep(self):
        self._sweep = None

    def emit(self, event):
        event = dict(event)
        if self._sweep is not None:
            event.setdefault("sweep", self._sweep)
        event["seq"] = self._seq
        self._seq += 1
        validate_event(event)
        for sink in self.sinks:
            try:
                sink.handle(event)
            except Exception as exc:  # a sink must never kill the sweep
                self.errors.append(exc)

    def close(self):
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:  # pragma: no cover - defensive
                self.errors.append(exc)


def new_sweep_id():
    return uuid.uuid4().hex[:12]


# ----------------------------------------------------------------------
# Post-hoc: reconciliation, sweep report
# ----------------------------------------------------------------------
def reconcile(events, manifest):
    """Cross-check a telemetry log against ``RunPool.manifest()``.

    Returns a list of problem strings; empty means the log and the
    manifest agree exactly: every manifest run appears in the log once
    with the same disposition (cached vs finished), and no terminal
    event lacks a manifest row (zero lost events)."""
    problems = []
    log_terminal = {}
    for event in events:
        if event["type"] in TERMINAL_TYPES:
            log_terminal.setdefault(event["spec_key"][:16], []).append(event["type"])
    manifest_by_key = {}
    for entry in manifest["runs"]:
        manifest_by_key.setdefault(entry["key"], []).append(
            "run_cached" if entry["cached"] else "run_finished"
        )
    for key, dispositions in sorted(manifest_by_key.items()):
        # Failures never reach the manifest (no record was served), so
        # they only terminate the spec — they don't have to match a row.
        logged = sorted(t for t in log_terminal.get(key, []) if t != "run_failed")
        if sorted(dispositions) != logged:
            problems.append(
                f"spec {key}: manifest says {sorted(dispositions)}, log says {logged}"
            )
    for key in sorted(set(log_terminal) - set(manifest_by_key)):
        served = [t for t in log_terminal[key] if t != "run_failed"]
        if served:
            problems.append(f"spec {key}: in log ({served}) but not in manifest")
    return problems


def sweep_report(events):
    """Post-hoc analysis of one telemetry log (``dsi-sim report``).

    Aggregates every sweep in the log: totals, cache-hit breakdown,
    queue-wait vs execute time per run, per-worker utilization, and the
    top stragglers by wall time."""
    sweeps = {}
    runs = {}
    for event in events:
        type_ = event["type"]
        sweep = event.get("sweep")
        if type_ == "sweep_begin":
            sweeps[sweep] = {
                "sweep": sweep,
                "begin_ts": event["ts"],
                "end_ts": None,
                "specs": event["specs"],
                "jobs": event["jobs"],
                "fingerprint": event["fingerprint"],
                "executed": 0,
                "cache_hits": 0,
                "failed": 0,
                "wall_s": None,
            }
        elif type_ == "sweep_end":
            entry = sweeps.setdefault(sweep, {"sweep": sweep, "begin_ts": None})
            entry.update(
                end_ts=event["ts"],
                executed=event["executed"],
                cache_hits=event["cache_hits"],
                failed=event["failed"],
                wall_s=event["wall_s"],
            )
        else:
            run = runs.setdefault(
                (sweep, event["spec_key"]),
                {
                    "sweep": sweep,
                    "spec_key": event["spec_key"],
                    "workload": event["workload"],
                    "label": event["label"],
                    "queued_ts": None,
                    "started_ts": None,
                    "end_ts": None,
                    "status": None,
                    "worker": None,
                    "wall_time_s": None,
                    "exec_time": None,
                    "sim_cycles_per_s": None,
                    "profile": None,
                },
            )
            if type_ == "run_queued":
                run["queued_ts"] = event["ts"]
            else:
                run["end_ts"] = event["ts"]
                run["status"] = type_[len("run_"):]
                run["wall_time_s"] = event.get("wall_time_s")
                run["exec_time"] = event.get("exec_time")
                run["sim_cycles_per_s"] = event.get("sim_cycles_per_s")
                run["profile"] = event.get("profile")
                run["worker"] = event.get("worker")
                run["started_ts"] = event.get("started")
    workers = {}
    run_list = []
    for run in runs.values():
        if run["queued_ts"] is not None and run["started_ts"] is not None:
            run["queue_wait_s"] = run["started_ts"] - run["queued_ts"]
        else:
            run["queue_wait_s"] = None
        if run["started_ts"] is not None and run["end_ts"] is not None:
            run["execute_s"] = run["end_ts"] - run["started_ts"]
        else:
            run["execute_s"] = None
        if run["worker"] is not None:
            state = workers.setdefault(
                run["worker"], {"worker": run["worker"], "runs": 0, "busy_s": 0.0}
            )
            state["runs"] += 1
            if run["wall_time_s"]:
                state["busy_s"] += run["wall_time_s"]
        run_list.append(run)
    run_list.sort(key=lambda r: (r["sweep"] or "", r["queued_ts"] or r["end_ts"] or 0))
    statuses = {}
    for run in run_list:
        statuses[run["status"]] = statuses.get(run["status"], 0) + 1
    wall = sum(s["wall_s"] or 0 for s in sweeps.values())
    served = statuses.get("finished", 0) + statuses.get("cached", 0)
    lanes = max((s.get("jobs") or 1) for s in sweeps.values()) if sweeps else 1
    for state in workers.values():
        state["utilization"] = (state["busy_s"] / wall) if wall else None
    executed = [r for r in run_list if r["status"] == "finished" and r["wall_time_s"]]
    stragglers = sorted(executed, key=lambda r: -r["wall_time_s"])
    waits = [r["queue_wait_s"] for r in run_list if r["queue_wait_s"] is not None]
    return {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "sweeps": [sweeps[k] for k in sweeps],
        "totals": {
            "events": len(events),
            "runs": len(run_list),
            "executed": statuses.get("finished", 0),
            "cached": statuses.get("cached", 0),
            "failed": statuses.get("failed", 0),
            "unterminated": statuses.get(None, 0),
            "cache_hit_ratio": (statuses.get("cached", 0) / served) if served else None,
            "wall_s": wall,
            "jobs": lanes,
            "sim_cycles": sum(r["exec_time"] or 0 for r in run_list),
        },
        "queue_wait": {
            "mean_s": (sum(waits) / len(waits)) if waits else None,
            "max_s": max(waits) if waits else None,
        },
        "workers": sorted(workers.values(), key=lambda w: w["worker"]),
        "runs": run_list,
        "stragglers": stragglers,
    }


def format_report(report, top=10):
    """Terminal rendering of :func:`sweep_report`."""
    totals = report["totals"]
    hit = (
        f"{totals['cache_hit_ratio']:.0%}"
        if totals["cache_hit_ratio"] is not None
        else "-"
    )
    lines = [
        f"sweeps: {len(report['sweeps'])}  runs: {totals['runs']} "
        f"({totals['executed']} executed, {totals['cached']} cached [{hit} hit], "
        f"{totals['failed']} failed)  wall: {totals['wall_s']:.1f}s",
    ]
    waits = report["queue_wait"]
    if waits["mean_s"] is not None:
        lines.append(
            f"queue wait: mean {waits['mean_s'] * 1000:.0f}ms, "
            f"max {waits['max_s'] * 1000:.0f}ms"
        )
    if report["workers"]:
        rows = [
            [
                w["worker"],
                w["runs"],
                f"{w['busy_s']:.1f}",
                f"{w['utilization']:.0%}" if w["utilization"] is not None else "-",
            ]
            for w in report["workers"]
        ]
        lines.append("")
        lines.append(
            format_table(
                ["worker", "runs", "busy_s", "util"],
                rows,
                title="worker utilization (busy wall-seconds / sweep wall)",
            )
        )
    stragglers = report["stragglers"][:top]
    if stragglers:
        rows = [
            [
                r["workload"],
                r["label"],
                f"{r['wall_time_s']:.2f}",
                f"{r['queue_wait_s'] * 1000:.0f}ms" if r["queue_wait_s"] is not None else "-",
                r["worker"] if r["worker"] is not None else "-",
            ]
            for r in stragglers
        ]
        lines.append("")
        lines.append(
            format_table(
                ["workload", "label", "wall_s", "queue_wait", "worker"],
                rows,
                title=f"top {len(stragglers)} stragglers (by wall time)",
            )
        )
    failed = [r for r in report["runs"] if r["status"] == "failed"]
    if failed:
        lines.append("")
        lines.append("failed runs:")
        for r in failed:
            lines.append(f"  {r['workload']}/{r['label']} (spec {r['spec_key'][:12]})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Profile aggregation
# ----------------------------------------------------------------------
def merge_profiles(paths):
    """One :class:`pstats.Stats` over every readable sidecar, or ``None``
    when nothing merged.  Returns ``(stats, merged_paths)``."""
    stats = None
    merged = []
    for path in paths:
        try:
            if stats is None:
                stats = pstats.Stats(path)
            else:
                stats.add(path)
        except (OSError, TypeError, ValueError):
            continue
        merged.append(path)
    return stats, merged


def profile_table(paths, top=15):
    """The merged top-``top`` hot functions across pstats sidecars.

    Returns ``(rows, merged_count)`` where each row is
    ``[function, ncalls, tottime_s, cumtime_s]`` sorted by cumulative
    time — the table ``dsi-sim report`` prints so perf PRs stop
    guessing where host time goes."""
    stats, merged = merge_profiles(paths)
    if stats is None:
        return [], 0
    rows = []
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        where = f"{os.path.basename(filename)}:{lineno}:{func}"
        rows.append([where, nc, tt, ct])
    rows.sort(key=lambda row: -row[3])
    rows = rows[:top]
    return [
        [name, ncalls, f"{tt:.3f}", f"{ct:.3f}"] for name, ncalls, tt, ct in rows
    ], len(merged)


def format_profile_table(rows, merged):
    if not rows:
        return "(no profile sidecars found)"
    return format_table(
        ["function", "ncalls", "tottime_s", "cumtime_s"],
        rows,
        title=f"merged host profile ({merged} sidecars, by cumulative time)",
    )
