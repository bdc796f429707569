"""Batch execution of :class:`~repro.harness.runspec.RunSpec` values.

Two layers:

:class:`ResultCache`
    A content-addressed on-disk cache.  Each record lands in
    ``<cache_dir>/<code fingerprint>/<spec key>.json`` — the fingerprint
    digests every source file of the ``repro`` package, so editing the
    simulator invalidates all cached results while repeated sweeps of an
    unchanged tree are pure cache hits.

:class:`RunPool`
    Executes a batch of specs: cache lookups first, then the misses via a
    ``concurrent.futures.ProcessPoolExecutor`` (``jobs`` workers; ``1``
    keeps the in-process serial path for debugging), writing fresh
    records back to the cache.  Worker processes memoize generated
    programs so a sweep of many configs over one workload builds the
    trace once per worker.

Every sweep narrates itself through the harness observatory
(:mod:`repro.harness.telemetry`): the pool emits
``sweep_begin``/``run_queued``/``run_cached``/``run_finished``/
``run_failed``/``sweep_end`` events parent-side, while pool workers ship
``run_started`` and periodic ``heartbeat`` events back over a
``multiprocessing.Queue`` installed by the executor initializer.  The
``--verbose`` stderr lines are one sink on that same stream, so logging
and structured telemetry cannot drift.  A failing or dying worker never
hangs the sweep: the pool drains every submitted future, emits one
``run_failed`` (with the remote traceback) per casualty, and re-raises
the first error only after the drain.
"""

import hashlib
import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import repro
from repro.harness.telemetry import (
    JsonlSink,
    LiveDashboard,
    TelemetryHub,
    VerboseSink,
    WorkerTelemetry,
    make_event,
    new_sweep_id,
    profile_sidecar,
)
from repro.stats.record import RunRecord

#: Per-process program memo: (workload, workload_args) -> Program.
#: Lives at module scope so pool workers reuse programs across tasks.
_PROGRAMS = {}

#: Per-worker telemetry half (run_started + heartbeats + profiling),
#: installed by :func:`_init_worker` in pool processes; ``None`` keeps
#: the zero-overhead bare path.
_WORKER_TELEMETRY = None


def execute_spec(spec, observer=None):
    """Build (or reuse) the program and run one spec, stamping run
    telemetry (wall time, simulated cycles per host second) into the
    record.  Top-level so the process pool can pickle it.  ``observer``
    passes through to :meth:`RunSpec.execute` (heartbeat sampling)."""
    key = (spec.workload, spec.workload_args)
    program = _PROGRAMS.get(key)
    if program is None:
        program = _PROGRAMS[key] = spec.build_program()
    started = time.time()
    record = spec.execute(program, observer=observer)
    record.set_timing(time.time() - started)
    return record


def _init_worker(queue, heartbeat_interval, profile, profile_dir):
    """Pool-worker initializer: installs the worker telemetry half,
    emitting into the parent's queue (``queue.put`` is the emit hook —
    the parent hub's pump thread stamps ``seq``/``sweep`` on arrival)."""
    global _WORKER_TELEMETRY
    _WORKER_TELEMETRY = WorkerTelemetry(
        queue.put,
        heartbeat_interval=heartbeat_interval,
        profile=profile,
        profile_dir=profile_dir,
    )


def _telemetry_execute(spec, telemetry=None):
    """Run one spec under the installed worker telemetry (if any):
    ``run_started``, a heartbeat sampler attached for the duration, and
    an optional cProfile sidecar.  Falls back to the bare path when
    telemetry is off, so untelemetered sweeps pay nothing."""
    telem = telemetry if telemetry is not None else _WORKER_TELEMETRY
    if telem is None:
        return execute_spec(spec)
    sampler, profiler = telem.start_run(spec)
    try:
        return execute_spec(spec, observer=sampler)
    finally:
        telem.end_run(spec, sampler, profiler)


_FINGERPRINTS = {}


def code_fingerprint():
    """Digest of every ``repro`` source file (cached per process).

    Any edit to the simulator, protocol, workloads or harness changes the
    fingerprint and thereby orphans all previously cached records.  The
    execution modes are folded in too: ``DSI_NO_FASTPATH`` forces every
    config onto the interpreted paths and ``DSI_MODE`` selects the
    transaction-retirement engine *after* spec construction, so two
    processes differing only in those variables must not share cache
    entries — they fingerprint (and therefore cache) separately.

    Telemetry settings (``--log``, ``--live``, ``--profile``) are
    deliberately *not* folded in: observability never affects
    simulation results (the equivalence harness proves it), so it must
    never bust the result cache.
    """
    mode = "reference" if os.environ.get("DSI_NO_FASTPATH") else "fast"
    engine = os.environ.get("DSI_MODE") or "default"
    fingerprint = _FINGERPRINTS.get((mode, engine))
    if fingerprint is None:
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        digest.update(f"execution-mode:{mode}\n".encode("utf-8"))
        digest.update(f"engine-mode:{engine}\n".encode("utf-8"))
        for root, dirs, files in sorted(os.walk(package_dir)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, package_dir).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        fingerprint = _FINGERPRINTS[(mode, engine)] = digest.hexdigest()
    return fingerprint


class ResultCache:
    """Content-addressed record store under one directory."""

    def __init__(self, root, fingerprint=None):
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()

    def path_for(self, spec):
        return os.path.join(self.root, self.fingerprint[:16], spec.key() + ".json")

    def get(self, spec):
        """The cached record for ``spec``, or None (corrupt files miss)."""
        try:
            with open(self.path_for(spec), "r", encoding="utf-8") as handle:
                return RunRecord.from_dict(json.load(handle)["record"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def put(self, spec, record):
        path = self.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"spec": spec.to_dict(), "record": record.to_dict()}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)  # atomic: concurrent sweeps never see partials


class RunPool:
    """Executes batches of specs with caching and parallel fan-out.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``, ``1`` runs
        every spec in-process (serial, debugger-friendly).
    cache_dir:
        Directory for the persistent result cache; ``None`` disables it.
    use_cache:
        ``False`` bypasses the cache entirely (no reads, no writes).
    verbose:
        Log one line per executed or cache-hit spec to stderr (a
        :class:`~repro.harness.telemetry.VerboseSink` on the event
        stream — the same events ``--log`` records).
    fingerprint:
        Override the code fingerprint (tests use this to simulate source
        changes).
    telemetry:
        A :class:`~repro.harness.telemetry.TelemetryConfig`; ``None`` or
        an inactive config means telemetry is off.  Activates the JSONL
        log, the live dashboard, worker heartbeats and host profiling.
        Never affects results or cache keys.
    """

    def __init__(self, jobs=None, cache_dir=None, use_cache=True, verbose=False,
                 fingerprint=None, telemetry=None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache = (
            ResultCache(cache_dir, fingerprint=fingerprint)
            if (cache_dir and use_cache)
            else None
        )
        self.verbose = verbose
        self.telemetry = telemetry if telemetry is not None and telemetry.active else None
        self.executed = 0
        self.cache_hits = 0
        self.failed = 0
        self._manifest = []
        sinks = []
        if self.telemetry is not None:
            if self.telemetry.log_path:
                sinks.append(JsonlSink(self.telemetry.log_path))
            if self.telemetry.live:
                sinks.append(LiveDashboard(stream=self.telemetry.stream))
        if verbose:
            stream = self.telemetry.stream if self.telemetry is not None else None
            sinks.append(VerboseSink(stream=stream))
        # A hub exists whenever anything observes the sweep — including
        # profile-only runs, whose run_started/heartbeat events still
        # need the pump even with no sink attached.
        self.hub = (
            TelemetryHub(sinks) if (sinks or self.telemetry is not None) else None
        )

    # ------------------------------------------------------------------
    def run_batch(self, specs):
        """Execute (or recall) every spec; returns {spec: RunRecord}.

        One telemetry sweep brackets the batch.  Worker failures do not
        abort the fan-out: every pending future is drained (each miss
        emitting ``run_failed``), ``sweep_end`` is always emitted, and
        the first error re-raises after the drain.
        """
        records = {}
        pending = []
        cached_records = []
        seen = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            cached = self.cache.get(spec) if self.cache else None
            if cached is not None:
                cached_records.append((spec, cached))
            else:
                pending.append(spec)
        base = (self.executed, self.cache_hits, self.failed)
        sweep_started = time.time()
        if self.hub is not None:
            self.hub.begin_sweep(new_sweep_id())
            self.hub.emit(
                make_event(
                    "sweep_begin",
                    specs=len(seen),
                    pending=len(pending),
                    jobs=self.jobs,
                    fingerprint=(
                        self.cache.fingerprint if self.cache else code_fingerprint()
                    )[:16],
                )
            )
        try:
            for spec, cached in cached_records:
                self.cache_hits += 1
                records[spec] = cached
                self._note(spec, cached, cached=True)
                self._emit_terminal("run_cached", spec, cached)
            if self.hub is not None:
                for spec in pending:
                    self.hub.emit(
                        make_event(
                            "run_queued",
                            spec_key=spec.key(),
                            workload=spec.workload,
                            label=spec.config.describe(),
                        )
                    )
            for spec, record in self._execute_all(pending):
                self.executed += 1
                self._note(spec, record, cached=False)
                self._emit_terminal("run_finished", spec, record)
                if self.cache:
                    self.cache.put(spec, record)
                records[spec] = record
        finally:
            if self.hub is not None:
                self.hub.emit(
                    make_event(
                        "sweep_end",
                        executed=self.executed - base[0],
                        cache_hits=self.cache_hits - base[1],
                        failed=self.failed - base[2],
                        wall_s=time.time() - sweep_started,
                    )
                )
                self.hub.end_sweep()
        return records

    def run(self, spec):
        """Convenience: a batch of one."""
        return self.run_batch([spec])[spec]

    def close(self):
        """Stop the telemetry pump and flush/close every sink (the JSONL
        log, the live dashboard's final frame).  Idempotent."""
        if self.hub is not None:
            self.hub.close()

    def manifest(self):
        """Run telemetry for everything this pool served, in service
        order: one entry per spec with its cache disposition, wall time
        and simulation speed (cached entries report the wall time of the
        run that originally produced them)."""
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "runs": [dict(entry) for entry in self._manifest],
        }

    # ------------------------------------------------------------------
    def _execute_all(self, pending):
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            yield from self._execute_serial(pending)
        else:
            yield from self._execute_parallel(pending)

    def _execute_serial(self, pending):
        telem = None
        if self.hub is not None and self.telemetry is not None:
            telem = WorkerTelemetry(
                self.hub.emit,
                heartbeat_interval=self.telemetry.heartbeat_interval,
                profile=self.telemetry.profile,
                profile_dir=self.telemetry.profile_dir,
            )
        for spec in pending:
            try:
                record = _telemetry_execute(spec, telemetry=telem)
            except Exception as exc:
                self.failed += 1
                self._emit_failure(spec, exc)
                raise
            yield spec, record

    def _execute_parallel(self, pending):
        workers = min(self.jobs, len(pending))
        initializer = None
        initargs = ()
        if self.hub is not None and self.telemetry is not None:
            initializer = _init_worker
            initargs = (
                self.hub.worker_queue(),
                self.telemetry.heartbeat_interval,
                self.telemetry.profile,
                self.telemetry.profile_dir,
            )
        first_error = None
        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=initializer, initargs=initargs
            ) as executor:
                futures = [
                    executor.submit(_telemetry_execute, spec) for spec in pending
                ]
                for spec, future in zip(pending, futures):
                    try:
                        record = future.result()
                    except Exception as exc:
                        # Drain every remaining future (a dead worker
                        # breaks them all) so no result — or telemetry
                        # byte — is lost before we re-raise.
                        self.failed += 1
                        self._emit_failure(spec, exc)
                        if first_error is None:
                            first_error = exc
                        continue
                    yield spec, record
        finally:
            # The executor has shut down: every worker write hit the
            # queue's pipe before this sentinel, so the pump drains
            # completely before parking.
            if self.hub is not None:
                self.hub.stop_pump()
        if first_error is not None:
            raise first_error

    # ------------------------------------------------------------------
    def _note(self, spec, record, cached):
        self._manifest.append(
            {
                "key": spec.key()[:16],
                "workload": spec.workload,
                "label": spec.config.describe(),
                "cached": cached,
                "exec_time": record.exec_time,
                "wall_time_s": record.wall_time_s,
                "sim_cycles_per_s": record.sim_cycles_per_s,
            }
        )

    def _profile_path(self, spec):
        if self.telemetry is None or not self.telemetry.profile:
            return None
        path = profile_sidecar(self.telemetry.profile_dir, spec.key())
        return path if os.path.exists(path) else None

    def _emit_terminal(self, type_, spec, record):
        if self.hub is None:
            return
        config = spec.config
        fields = {
            "spec_key": spec.key(),
            "workload": spec.workload,
            "label": config.describe(),
            "cache_kb": config.cache_size // 1024,
            "net": config.network_latency,
            "exec_time": record.exec_time,
            "wall_time_s": record.wall_time_s,
        }
        if type_ == "run_finished":
            fields["sim_cycles_per_s"] = record.sim_cycles_per_s
            fields["profile"] = self._profile_path(spec)
        self.hub.emit(make_event(type_, **fields))

    def _emit_failure(self, spec, exc):
        if self.hub is None:
            return
        tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        self.hub.emit(
            make_event(
                "run_failed",
                spec_key=spec.key(),
                workload=spec.workload,
                label=spec.config.describe(),
                error=f"{type(exc).__name__}: {exc}",
                traceback=tb,
            )
        )
