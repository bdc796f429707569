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
(:mod:`repro.harness.telemetry`).  Only the parent emits events:
``sweep_begin``/``run_queued``/``run_cached``/``run_finished``/
``run_failed``/``sweep_end``.  Workers emit nothing; the one pool task,
:func:`_run_task`, hands back the record together with the worker's
pid and start time, which the parent puts on ``run_finished``.  The
``--verbose`` stderr lines are one sink on that same stream, so logging
and structured telemetry cannot drift.  A failing or dying worker never
hangs the sweep: the pool drains every submitted future, emits one
``run_failed`` (with the remote traceback) per casualty, and re-raises
the first error only after the drain.
"""

import cProfile
import hashlib
import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import repro
from repro.harness.telemetry import (
    JsonlSink,
    TelemetryHub,
    VerboseSink,
    make_event,
    make_profile_dir,
    new_sweep_id,
    profile_sidecar,
)
from repro.stats.record import RunRecord

#: Per-process program memo: (workload, workload_args) -> Program.
#: Lives at module scope so pool workers reuse programs across tasks.
_PROGRAMS = {}


def execute_spec(spec, observer=None):
    """Build (or reuse) the program and run one spec, stamping its wall
    time and simulated cycles per host second into the record.
    ``observer`` passes through to :meth:`RunSpec.execute`; the pool
    never sets it.  The benchmark's layer tracer patches this module
    attribute, so it keeps its name and signature."""
    key = (spec.workload, spec.workload_args)
    program = _PROGRAMS.get(key)
    if program is None:
        program = _PROGRAMS[key] = spec.build_program()
    started = time.perf_counter()
    record = spec.execute(program, observer=observer)
    record.set_timing(time.perf_counter() - started)
    return record


def _run_task(spec, profile_dir=None):
    """The pool task, serial and parallel alike.  Top-level so the
    process pool can pickle it.

    Calls :func:`execute_spec` through this module's attribute at call
    time, so a patched ``runpool.execute_spec`` takes effect in forked
    workers too.  With ``profile_dir`` set, the run is wrapped in
    cProfile and its pstats sidecar written there.  Returns
    ``(record, pid, started)``: the worker's pid and the host time the
    task began."""
    started = time.time()
    if profile_dir is None:
        return execute_spec(spec), os.getpid(), started
    with cProfile.Profile() as profiler:
        record = execute_spec(spec)
    profiler.dump_stats(profile_sidecar(profile_dir, spec.key()))
    return record, os.getpid(), started


_FINGERPRINTS = {}


def code_fingerprint():
    """Digest of every ``repro`` source file (cached per process).

    Any edit to the simulator, protocol, workloads or harness changes the
    fingerprint and thereby orphans all previously cached records.  No
    environment variable is folded in: a
    :class:`~repro.config.SystemConfig` is a pure value, so a spec's key
    and the source alone decide its result.  Telemetry settings
    (``--log``, ``--profile``) never affect simulation results either
    (``tests/test_telemetry.py`` checks it), so they must never bust the
    result cache.
    """
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    fingerprint = _FINGERPRINTS.get(package_dir)
    if fingerprint is None:
        digest = hashlib.sha256()
        for root, dirs, files in sorted(os.walk(package_dir)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, package_dir).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        fingerprint = _FINGERPRINTS[package_dir] = digest.hexdigest()
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
        log and host profiling; an unwritable log path or profile
        directory raises :class:`~repro.errors.ConfigError` here, before
        any spec runs.  Never affects results or cache keys.
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
        self._profile_dir = None
        sinks = []
        if self.telemetry is not None:
            if self.telemetry.profile:
                self._profile_dir = self.telemetry.profile_dir
                make_profile_dir(self._profile_dir)
            if self.telemetry.log_path:
                sinks.append(JsonlSink(self.telemetry.log_path))
        if verbose:
            sinks.append(VerboseSink())
        self.hub = TelemetryHub(sinks) if sinks else None

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
        sweep_started = time.perf_counter()
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
            for spec, (record, worker, started) in self._execute_all(pending):
                self.executed += 1
                self._note(spec, record, cached=False)
                self._emit_terminal(
                    "run_finished", spec, record, worker=worker, started=started
                )
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
                        wall_s=time.perf_counter() - sweep_started,
                    )
                )
                self.hub.end_sweep()
        return records

    def run(self, spec):
        """Convenience: a batch of one."""
        return self.run_batch([spec])[spec]

    def close(self):
        """Flush and close every telemetry sink.  Idempotent."""
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
        for spec in pending:
            try:
                result = _run_task(spec, self._profile_dir)
            except Exception as exc:
                self.failed += 1
                self._emit_failure(spec, exc)
                raise
            yield spec, result

    def _execute_parallel(self, pending):
        first_error = None
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending))) as executor:
            futures = [
                executor.submit(_run_task, spec, self._profile_dir) for spec in pending
            ]
            for spec, future in zip(pending, futures):
                try:
                    result = future.result()
                except Exception as exc:
                    # Drain every remaining future (a dead worker breaks
                    # them all) so no result is lost before we re-raise.
                    self.failed += 1
                    self._emit_failure(spec, exc)
                    if first_error is None:
                        first_error = exc
                    continue
                yield spec, result
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

    def _emit_terminal(self, type_, spec, record, worker=None, started=None):
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
            fields["profile"] = (
                profile_sidecar(self._profile_dir, spec.key())
                if self._profile_dir else None
            )
            fields["worker"] = worker
            fields["started"] = started
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
