"""The harness observatory: a schema-versioned event stream for sweeps.

The simulated machine has been deeply observable since the probe bus
(PR 2), but the harness *running* it was a black box: a
:class:`~repro.harness.runpool.RunPool` sweep was hundreds of worker
runs visible only as optional stderr lines.  This module is the
telemetry substrate underneath every harness verb:

Event stream
    One JSON object per harness happening — ``sweep_begin``/``sweep_end``
    bracketing each batch, ``run_queued``/``run_started``/``run_cached``/
    ``run_finished``/``run_failed`` per spec, and periodic ``heartbeat``
    events carrying live simulation counters sampled inside the worker
    (see :class:`HeartbeatSampler`).  Every event carries
    ``schema == TELEMETRY_SCHEMA_VERSION`` and is validated on emission.

Sinks
    :class:`JsonlSink` (``--log FILE``) writes one line per event to a
    fresh FILE, flushed immediately so a crashed sweep still leaves a
    readable log; :class:`VerboseSink` renders the classic ``--verbose``
    lines from the same events (one code path, single parent-side
    writer, so process-pool output never interleaves);
    :class:`LiveDashboard` (``--live``) repaints an in-place terminal
    view with per-worker lanes, aggregate simulation speed, cache hit
    ratio, an ETA and straggler flags.

Transport
    Workers ship events over a ``multiprocessing.Queue``; the parent's
    :class:`TelemetryHub` pumps the queue from a background thread,
    stamps a total-order ``seq`` and the active sweep id, and fans out
    to the sinks.  Telemetry never influences results: the sampler only
    *reads* machine counters, profiling wraps the worker in ``cProfile``
    without touching the simulation, and none of it enters the result
    cache's code fingerprint (``tests/test_telemetry.py`` and
    ``repro.harness.equivalence --telemetry`` prove both).

Post-hoc analysis
    :func:`load_log` + :func:`sweep_report` power ``dsi-sim report``:
    worker utilization, queue-wait vs execute time, cache-hit breakdown,
    top-K stragglers, and a Perfetto export of the harness spans
    (:func:`sweep_to_perfetto`) so a sweep renders as worker lanes.
    :func:`reconcile` cross-checks a log against
    :meth:`~repro.harness.runpool.RunPool.manifest` — every spec exactly
    once, zero lost events.

Host profiling
    ``--profile cprofile`` wraps each worker run and writes a per-run
    ``pstats`` sidecar keyed by the RunSpec content hash
    (:func:`profile_sidecar`); :func:`profile_table` merges any number
    of sidecars into one top-N hot-function table for ``dsi-sim
    report`` and ``dsi-sim bench``.
"""

import cProfile
import json
import multiprocessing
import os
import pstats
import sys
import threading
import time
import uuid

from repro.errors import ConfigError, ReproError
from repro.stats.ascii_chart import progress_bar
from repro.stats.report import format_table

#: Version of the harness event-stream layout.  Bump on any field
#: rename/removal; adding optional fields is compatible.
TELEMETRY_SCHEMA_VERSION = 1

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
    "run_started": ("sweep", "spec_key", "workload", "label", "worker"),
    "heartbeat": (
        "sweep", "spec_key", "worker", "sim_cycles", "events_fired",
        "ops_retired", "ops_total",
    ),
    "run_finished": (
        "sweep", "spec_key", "workload", "label", "cache_kb", "net",
        "exec_time", "wall_time_s", "sim_cycles_per_s", "profile",
    ),
    "run_failed": ("sweep", "spec_key", "workload", "label", "error", "traceback"),
    "sweep_end": ("sweep", "executed", "cache_hits", "failed", "wall_s"),
}

#: Event types that terminate a spec's life in a sweep (reconciliation
#: demands exactly one of these per spec per sweep).
TERMINAL_TYPES = ("run_cached", "run_finished", "run_failed")

#: Sentinel shipped through the worker queue to stop the pump thread.
_STOP = "__dsi_telemetry_stop__"


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
    if type_ == "heartbeat":
        for field in ("sim_cycles", "events_fired", "ops_retired", "ops_total"):
            value = event[field]
            if not isinstance(value, int) or value < 0:
                raise TelemetryError(f"heartbeat {field} invalid: {value!r}")
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


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TelemetryConfig:
    """Harness telemetry settings carried by a RunPool.

    ``log_path``/``live``/``profile`` each independently activate the
    hub; ``heartbeat_interval`` (host seconds) throttles the worker
    sampler (``None``/``0`` disables heartbeats).  None of these fields
    may influence simulation results — the result cache's code
    fingerprint deliberately ignores them, and the equivalence harness
    proves records identical with and without telemetry.
    """

    def __init__(self, log_path=None, live=False, profile=None, profile_dir=None,
                 heartbeat_interval=0.5, stream=None):
        if profile not in (None, "cprofile"):
            raise ConfigError(f"unknown profiler {profile!r}; have: cprofile")
        self.log_path = log_path
        self.live = live
        self.profile = profile
        self.profile_dir = profile_dir or (
            (log_path + ".profiles") if (profile and log_path) else
            ("dsi-profiles" if profile else None)
        )
        self.heartbeat_interval = heartbeat_interval
        self.stream = stream

    @property
    def active(self):
        return bool(self.log_path or self.live or self.profile)


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
    leaves every emitted event on disk, and because only the parent
    process writes, pool workers can never interleave lines."""

    def __init__(self, path):
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")

    def handle(self, event):
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self):
        if not self._handle.closed:
            self._handle.close()


class VerboseSink(TelemetrySink):
    """The classic ``--verbose`` stderr lines, re-derived from the event
    stream (the satellite fix for the raw ``print`` that used to live in
    ``RunPool._log``)."""

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


class LiveDashboard(TelemetrySink):
    """In-place terminal dashboard for a running sweep (``--live``).

    One lane per worker process (current run, live sim-cycle counter and
    per-worker simulation speed from consecutive heartbeats), aggregate
    progress, cache-hit ratio, an ETA extrapolated from completed wall
    times, and straggler flagging (a run exceeding
    ``straggler_factor`` x the mean completed wall time).  On a TTY the
    frame repaints in place via ANSI cursor movement; otherwise a plain
    progress line is printed at most every ``interval`` seconds.
    """

    def __init__(self, stream=None, interval=0.25, straggler_factor=2.5,
                 clock=time.monotonic, width=68):
        self.stream = stream
        self.interval = interval
        self.straggler_factor = straggler_factor
        self.clock = clock
        self.width = width
        self._painted_lines = 0
        self._last_paint = 0.0
        # sweep state
        self.total = 0
        self.finished = 0
        self.cached = 0
        self.failed = 0
        self.wall_times = []
        self.running = {}  # spec_key -> {workload,label,ts,worker}
        self.workers = {}  # pid -> {"hb": last heartbeat, "rate": cycles/s}
        self.jobs = 1
        self._t0 = None

    def _out(self):
        return self.stream if self.stream is not None else sys.stderr

    # -- state ----------------------------------------------------------
    def handle(self, event):
        type_ = event["type"]
        if type_ == "sweep_begin":
            self.total += event["specs"]
            self.jobs = max(self.jobs, event["jobs"])
            if self._t0 is None:
                self._t0 = event["ts"]
        elif type_ == "run_started":
            self.running[event["spec_key"]] = event
            self.workers.setdefault(event["worker"], {"hb": None, "rate": None})
        elif type_ == "heartbeat":
            state = self.workers.setdefault(event["worker"], {"hb": None, "rate": None})
            last = state["hb"]
            if (
                last is not None
                and last["spec_key"] == event["spec_key"]
                and event["ts"] > last["ts"]
            ):
                state["rate"] = (
                    (event["sim_cycles"] - last["sim_cycles"])
                    / (event["ts"] - last["ts"])
                )
            state["hb"] = event
        elif type_ == "run_cached":
            self.cached += 1
        elif type_ == "run_finished":
            self.finished += 1
            started = self.running.pop(event["spec_key"], None)
            if started is not None:
                worker = self.workers.get(started["worker"])
                if worker is not None and worker["hb"] is not None \
                        and worker["hb"]["spec_key"] == event["spec_key"]:
                    worker["rate"] = None
            if event["wall_time_s"]:
                self.wall_times.append(event["wall_time_s"])
        elif type_ == "run_failed":
            self.failed += 1
            self.running.pop(event["spec_key"], None)
        self.repaint(final=(type_ == "sweep_end"), now=event["ts"])

    # -- rendering ------------------------------------------------------
    def _mean_wall(self):
        return sum(self.wall_times) / len(self.wall_times) if self.wall_times else None

    def eta_seconds(self, now):
        """Remaining runs x mean completed wall time / worker lanes."""
        mean = self._mean_wall()
        done = self.finished + self.cached + self.failed
        remaining = max(self.total - done, 0)
        if mean is None or not remaining:
            return None
        return remaining * mean / max(min(self.jobs, remaining), 1)

    def is_straggler(self, started_ts, now):
        mean = self._mean_wall()
        if mean is None or len(self.wall_times) < 3:
            return False
        return (now - started_ts) > self.straggler_factor * mean

    def render(self, now=None):
        """The current frame as text (pure; exercised directly by tests)."""
        now = self.clock() if now is None else now
        done = self.finished + self.cached + self.failed
        served = self.finished + self.cached
        hit = f"{self.cached / served:.0%}" if served else "-"
        eta = self.eta_seconds(now)
        eta_text = f"ETA {eta:.0f}s" if eta is not None else "ETA -"
        fraction = done / self.total if self.total else 0.0
        lines = [
            f"sweep {progress_bar(fraction, width=24)} {done}/{self.total} "
            f"done  {len(self.running)} running  {self.cached} cached "
            f"(hit {hit})  {self.failed} failed  {eta_text}"
        ]
        agg = sum(w["rate"] for w in self.workers.values() if w["rate"])
        by_worker = {}
        for spec_key, started in self.running.items():
            by_worker[started["worker"]] = (spec_key, started)
        for pid in sorted(self.workers):
            state = self.workers[pid]
            spec_key, started = by_worker.get(pid, (None, None))
            hb = state["hb"]
            if started is None and (hb is None or hb["spec_key"] not in self.running):
                label, bar, cyc, elapsed, flag = "idle", progress_bar(0.0, 10), "-", "", ""
            else:
                if started is None:
                    started = self.running.get(hb["spec_key"], hb)
                label = (
                    f"{started.get('workload', '?')}/{started.get('label', '?')}"
                    if "workload" in started else hb["spec_key"][:12]
                )
                ops_fraction = 0.0
                cyc = "-"
                if hb is not None and hb["spec_key"] == spec_key:
                    if hb["ops_total"]:
                        ops_fraction = hb["ops_retired"] / hb["ops_total"]
                    cyc = _kilo(hb["sim_cycles"])
                bar = progress_bar(ops_fraction, 10)
                elapsed = f"{now - started['ts']:5.1f}s" if "ts" in started else ""
                flag = (
                    "  !straggler"
                    if "ts" in started and self.is_straggler(started["ts"], now)
                    else ""
                )
            rate = f"{_kilo(state['rate'])} cyc/s" if state["rate"] else ""
            lines.append(
                f"  w{pid:<8} {label:<28.28s} {bar} {cyc:>8} {rate:>12} "
                f"{elapsed}{flag}"
            )
        mean = self._mean_wall()
        tail = f"aggregate {_kilo(agg)} cyc/s" if agg else "aggregate -"
        if mean is not None:
            tail += f", mean run {mean:.1f}s"
        lines.append(f"  {tail}")
        return "\n".join(lines)

    def repaint(self, final=False, now=None):
        out = self._out()
        tty = getattr(out, "isatty", lambda: False)()
        host_now = self.clock()
        if not final and host_now - self._last_paint < self.interval:
            return
        self._last_paint = host_now
        if tty:
            frame = self.render(now=now)
            if self._painted_lines:
                out.write(f"\x1b[{self._painted_lines}F\x1b[J")
            out.write(frame + "\n")
            self._painted_lines = frame.count("\n") + 1
        else:
            done = self.finished + self.cached + self.failed
            out.write(
                f"# sweep {done}/{self.total} done, {self.cached} cached, "
                f"{self.failed} failed\n"
            )
        out.flush()
        if final:
            self._painted_lines = 0

    def close(self):
        if self._painted_lines:
            self.repaint(final=True)


def _kilo(value):
    if value is None:
        return "-"
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 1_000:
        return f"{value / 1_000:.0f}k"
    return f"{value:.0f}" if isinstance(value, float) else str(value)


# ----------------------------------------------------------------------
# Hub: parent-side fan-out with worker-queue pump
# ----------------------------------------------------------------------
class TelemetryHub:
    """Serializes all telemetry through one writer.

    ``emit`` validates, stamps the total-order ``seq`` and the active
    sweep id, and fans out to every sink under a lock — the parent
    thread, the queue pump and (in serial mode) the in-process worker
    all funnel through here, which is what makes the JSONL log and the
    verbose stream flush-safe under process-pool interleaving.
    """

    def __init__(self, sinks=()):
        self.sinks = list(sinks)
        self.errors = []
        self._seq = 0
        self._sweep = None
        self._lock = threading.Lock()
        self._queue = None
        self._pump = None
        self._closed = False

    # -- sweep bracketing ---------------------------------------------
    def begin_sweep(self, sweep_id):
        self._sweep = sweep_id

    def end_sweep(self):
        self._sweep = None

    # -- emission ------------------------------------------------------
    def emit(self, event):
        with self._lock:
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

    # -- worker transport ----------------------------------------------
    def worker_queue(self):
        """The ``multiprocessing.Queue`` workers emit into; starts the
        pump thread on first use (and again after a ``stop_pump``)."""
        if self._queue is None:
            self._queue = multiprocessing.Queue()
        if self._pump is None:
            self._pump = threading.Thread(
                target=self._pump_loop, name="telemetry-pump", daemon=True
            )
            self._pump.start()
        return self._queue

    def _pump_loop(self):
        while True:
            item = self._queue.get()
            if item == _STOP:
                return
            try:
                self.emit(item)
            except Exception as exc:
                self.errors.append(exc)

    def stop_pump(self):
        """Drain the worker queue to the last enqueued event and park the
        pump.  Called after the process pool has shut down, so every
        worker byte is already in the pipe and FIFO order guarantees the
        sentinel is read last."""
        if self._pump is not None:
            self._queue.put(_STOP)
            self._pump.join(timeout=60)
            if self._pump.is_alive():  # pragma: no cover - defensive
                self.errors.append(TelemetryError("telemetry pump failed to stop"))
            self._pump = None

    def close(self):
        if self._closed:
            return
        self._closed = True
        self.stop_pump()
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:  # pragma: no cover - defensive
                self.errors.append(exc)


def new_sweep_id():
    return uuid.uuid4().hex[:12]


# ----------------------------------------------------------------------
# Worker side: heartbeat sampling and profiling
# ----------------------------------------------------------------------
class HeartbeatSampler:
    """Samples live machine counters from a side thread while a spec runs.

    :meth:`attach` is the zero-overhead-when-disabled hook invoked by
    :meth:`repro.harness.runspec.RunSpec.execute` (guarded by
    ``observer is not None``, mirroring the probe bus's ``self.obs is
    not None`` idiom).  The sampler thread only *reads* the machine —
    ``Machine.progress()`` returns plain counter values — so the
    simulation's event stream, timing and results are untouched; a run
    shorter than one interval simply emits no heartbeats.
    """

    def __init__(self, emit, spec_key, worker=None, interval=0.5):
        self.emit = emit
        self.spec_key = spec_key
        self.worker = worker if worker is not None else os.getpid()
        self.interval = interval
        self.heartbeats = 0
        self._machine = None
        self._stop = threading.Event()
        self._thread = None

    # -- RunSpec.execute observer protocol ------------------------------
    def attach(self, machine):
        self._machine = machine
        if self.interval and self.interval > 0:
            self._thread = threading.Thread(
                target=self._loop, name="dsi-heartbeat", daemon=True
            )
            self._thread.start()

    def detach(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._machine = None

    # -- sampling -------------------------------------------------------
    def sample(self):
        """Emit one heartbeat from the current machine counters (called
        from the sampler thread; also directly by tests)."""
        machine = self._machine
        if machine is None:
            return None
        progress = machine.progress()
        event = make_event(
            "heartbeat",
            spec_key=self.spec_key,
            worker=self.worker,
            **progress,
        )
        self.emit(event)
        self.heartbeats += 1
        return event

    def _loop(self):
        while not self._stop.wait(self.interval):
            try:
                self.sample()
            except Exception:  # pragma: no cover - a dying machine mid-read
                return


class WorkerTelemetry:
    """Per-process worker half of the observatory.

    Installed in every pool worker by the ``RunPool`` initializer (and
    parent-side for serial runs): emits ``run_started``, attaches a
    :class:`HeartbeatSampler`, and optionally wraps the run in
    ``cProfile``, dumping a pstats sidecar keyed by the spec hash.
    """

    def __init__(self, emit, heartbeat_interval=0.5, profile=None, profile_dir=None):
        self.emit = emit
        self.heartbeat_interval = heartbeat_interval
        self.profile = profile
        self.profile_dir = profile_dir

    def start_run(self, spec):
        self.emit(
            make_event(
                "run_started",
                spec_key=spec.key(),
                workload=spec.workload,
                label=spec.config.describe(),
                worker=os.getpid(),
            )
        )
        sampler = None
        if self.heartbeat_interval:
            sampler = HeartbeatSampler(
                self.emit, spec.key(), interval=self.heartbeat_interval
            )
        profiler = None
        if self.profile == "cprofile":
            profiler = cProfile.Profile()
            profiler.enable()
        return sampler, profiler

    def end_run(self, spec, sampler, profiler):
        """Stop instruments and write the profile sidecar; returns the
        sidecar path (``None`` when not profiling)."""
        if profiler is not None:
            profiler.disable()
        if sampler is not None:
            sampler.detach()
        if profiler is None:
            return None
        os.makedirs(self.profile_dir, exist_ok=True)
        path = profile_sidecar(self.profile_dir, spec.key())
        profiler.dump_stats(path)
        return path


# ----------------------------------------------------------------------
# Post-hoc: reconciliation, sweep report, Perfetto export, profiles
# ----------------------------------------------------------------------
def reconcile(events, manifest):
    """Cross-check a telemetry log against ``RunPool.manifest()``.

    Returns a list of problem strings; empty means the log and the
    manifest agree exactly: every manifest run appears in the log once
    with the same disposition (cached vs finished), no terminal event
    lacks a manifest row, and no heartbeat or start belongs to a spec
    that never terminated (zero lost events)."""
    problems = []
    log_terminal = {}
    started = set()
    sampled = set()
    for event in events:
        type_ = event["type"]
        if type_ in TERMINAL_TYPES:
            key = event["spec_key"][:16]
            log_terminal.setdefault(key, []).append(type_)
        elif type_ == "run_started":
            started.add(event["spec_key"][:16])
        elif type_ == "heartbeat":
            sampled.add(event["spec_key"][:16])
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
    terminated = set(log_terminal)
    for key in sorted(started - terminated):
        problems.append(f"spec {key}: run_started but never terminated")
    for key in sorted(sampled - terminated):
        problems.append(f"spec {key}: heartbeats but never terminated")
    return problems


def sweep_report(events):
    """Post-hoc analysis of one telemetry log (``dsi-sim report``).

    Aggregates every sweep in the log: totals, cache-hit breakdown,
    queue-wait vs execute time per run, per-worker utilization and
    heartbeat statistics, and the top stragglers by wall time."""
    sweeps = {}
    runs = {}
    heartbeats = 0
    workers = {}
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
        elif type_ in ("run_queued", "run_started", "run_cached",
                       "run_finished", "run_failed"):
            run = runs.setdefault(
                (sweep, event["spec_key"]),
                {
                    "sweep": sweep,
                    "spec_key": event["spec_key"],
                    "workload": event.get("workload"),
                    "label": event.get("label"),
                    "queued_ts": None,
                    "started_ts": None,
                    "end_ts": None,
                    "status": None,
                    "worker": None,
                    "wall_time_s": None,
                    "exec_time": None,
                    "sim_cycles_per_s": None,
                    "profile": None,
                    "heartbeats": 0,
                },
            )
            if event.get("workload"):
                run["workload"] = event["workload"]
                run["label"] = event.get("label", run["label"])
            if type_ == "run_queued":
                run["queued_ts"] = event["ts"]
            elif type_ == "run_started":
                run["started_ts"] = event["ts"]
                run["worker"] = event["worker"]
            else:
                run["end_ts"] = event["ts"]
                run["status"] = type_[len("run_"):]
                run["wall_time_s"] = event.get("wall_time_s")
                run["exec_time"] = event.get("exec_time")
                run["sim_cycles_per_s"] = event.get("sim_cycles_per_s")
                run["profile"] = event.get("profile")
        elif type_ == "heartbeat":
            heartbeats += 1
            run = runs.get((sweep, event["spec_key"]))
            if run is not None:
                run["heartbeats"] += 1
            state = workers.setdefault(
                event["worker"],
                {"worker": event["worker"], "runs": 0, "busy_s": 0.0,
                 "heartbeats": 0, "sim_cycles": 0},
            )
            state["heartbeats"] += 1
            state["sim_cycles"] = max(state["sim_cycles"], event["sim_cycles"])
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
                run["worker"],
                {"worker": run["worker"], "runs": 0, "busy_s": 0.0,
                 "heartbeats": 0, "sim_cycles": 0},
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
            "heartbeats": heartbeats,
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
        f"{totals['failed']} failed)  heartbeats: {totals['heartbeats']}  "
        f"wall: {totals['wall_s']:.1f}s",
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
                w["heartbeats"],
            ]
            for w in report["workers"]
        ]
        lines.append("")
        lines.append(
            format_table(
                ["worker", "runs", "busy_s", "util", "heartbeats"],
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
                r["heartbeats"],
            ]
            for r in stragglers
        ]
        lines.append("")
        lines.append(
            format_table(
                ["workload", "label", "wall_s", "queue_wait", "worker", "heartbeats"],
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


def sweep_to_perfetto(events):
    """Render harness telemetry as a Chrome/Perfetto trace dict: one
    lane per worker process (run slices + live sim-cycle counter track
    from heartbeats), a queue lane (queued -> started wait slices) and a
    cache lane (instant per hit), via the generic assembler in
    :mod:`repro.obs.export` — so a sweep renders with exactly the lane
    idiom the simulator traces use."""
    from repro.obs.export import PID_HARNESS, spans_to_perfetto

    report = sweep_report(events)
    t0 = min((e["ts"] for e in events), default=0.0)

    def us(ts):
        return int((ts - t0) * 1e6)

    worker_tid = {
        w["worker"]: tid for tid, w in enumerate(report["workers"], start=2)
    }
    threads = [(PID_HARNESS, 0, "harness", "queue"), (PID_HARNESS, 1, "harness", "cache")]
    for worker, tid in sorted(worker_tid.items(), key=lambda kv: kv[1]):
        threads.append((PID_HARNESS, tid, "harness", f"worker {worker}"))
    slices = []
    instants = []
    counters = []
    for run in report["runs"]:
        name = f"{run['workload']}/{run['label']}"
        if run["status"] == "cached":
            instants.append(("hit " + name, "cache", us(run["end_ts"]), PID_HARNESS, 1,
                             {"spec_key": run["spec_key"][:16]}))
            continue
        if run["queue_wait_s"] is not None:
            slices.append(
                ("wait " + name, "queue", us(run["queued_ts"]),
                 max(int(run["queue_wait_s"] * 1e6), 1), PID_HARNESS, 0,
                 {"spec_key": run["spec_key"][:16]}),
            )
        if run["started_ts"] is None or run["end_ts"] is None:
            continue
        tid = worker_tid.get(run["worker"], 0)
        slices.append(
            (name, "run" if run["status"] == "finished" else "failed",
             us(run["started_ts"]),
             max(int((run["end_ts"] - run["started_ts"]) * 1e6), 1),
             PID_HARNESS, tid,
             {
                 "spec_key": run["spec_key"][:16],
                 "status": run["status"],
                 "exec_time": run["exec_time"],
                 "heartbeats": run["heartbeats"],
             }),
        )
    for event in events:
        if event["type"] != "heartbeat":
            continue
        tid = worker_tid.get(event["worker"])
        if tid is None:
            continue
        counters.append(
            ("sim_cycles", us(event["ts"]), PID_HARNESS, tid,
             f"worker{event['worker']}", event["sim_cycles"]),
        )
    return spans_to_perfetto(
        threads, slices, counters=counters, instants=instants,
        other_data={
            "tool": "dsi-sim report",
            "runs": report["totals"]["runs"],
            "heartbeats": report["totals"]["heartbeats"],
        },
    )


def write_sweep_perfetto(events, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sweep_to_perfetto(events), handle)


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
    time — the table ``dsi-sim report``/``bench`` print so perf PRs stop
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
