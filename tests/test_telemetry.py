"""The harness observatory: event schema, sinks, heartbeats, failure
drain, profiling sidecars, reporting, and cache neutrality."""

import io
import json
import multiprocessing
import os

import pytest

from repro.config import IdentifyScheme, SystemConfig
from repro.harness import runpool as runpool_mod
from repro.harness import telemetry as T
from repro.harness.runpool import RunPool
from repro.harness.runspec import RunSpec


def _specs(count=4):
    """The write_conflict micro-program under small config variations."""
    out = []
    for identify in (IdentifyScheme.NONE, IdentifyScheme.VERSION):
        for rounds in (1, 2):
            config = SystemConfig(n_processors=3, identify=identify, quantum=1)
            out.append(
                RunSpec.create(
                    "write_conflict", config, n_procs=3, conflict=True, rounds=rounds
                )
            )
    return out[:count]


def _poison_spec():
    """A spec whose workload does not exist: building it raises KeyError
    inside the (worker's) execute path, never at spec-construction time."""
    return RunSpec.create("no_such_workload", SystemConfig(n_processors=3, quantum=1))


def _types(events):
    return [event["type"] for event in events]


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
class TestEventSchema:
    def test_make_event_stamps_schema_and_ts(self):
        event = T.make_event(
            "run_queued", sweep="s", spec_key="k", workload="w", label="SC"
        )
        assert event["schema"] == T.TELEMETRY_SCHEMA_VERSION
        assert isinstance(event["ts"], float)
        assert T.validate_event(event) is event

    def test_unknown_type_rejected(self):
        with pytest.raises(T.TelemetryError):
            T.make_event("run_exploded")
        with pytest.raises(T.TelemetryError):
            T.validate_event({"schema": 1, "type": "run_exploded", "ts": 0.0})

    def test_missing_field_rejected(self):
        event = T.make_event("run_queued", sweep="s", spec_key="k", workload="w")
        with pytest.raises(T.TelemetryError, match="label"):
            T.validate_event(event)

    def test_wrong_schema_version_rejected(self):
        event = T.make_event(
            "run_queued", sweep="s", spec_key="k", workload="w", label="SC"
        )
        event["schema"] = T.TELEMETRY_SCHEMA_VERSION + 1
        with pytest.raises(T.TelemetryError, match="schema"):
            T.validate_event(event)

    def test_heartbeat_counters_must_be_non_negative_ints(self):
        fields = dict(
            sweep="s", spec_key="k", worker=1, sim_cycles=10,
            events_fired=20, ops_retired=3, ops_total=8,
        )
        T.validate_event(T.make_event("heartbeat", **fields))
        bad = dict(fields, sim_cycles=-1)
        with pytest.raises(T.TelemetryError, match="sim_cycles"):
            T.validate_event(T.make_event("heartbeat", **bad))
        bad = dict(fields, ops_total=1.5)
        with pytest.raises(T.TelemetryError, match="ops_total"):
            T.validate_event(T.make_event("heartbeat", **bad))

    def test_every_type_has_common_fields(self):
        for type_ in T.EVENT_FIELDS:
            assert "ts" in T.COMMON_FIELDS
            assert type_ in T.EVENT_FIELDS

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        sink = T.JsonlSink(path)
        events = [
            T.make_event(
                "sweep_begin", sweep="s", specs=2, pending=1, jobs=1, fingerprint="f" * 16
            ),
            T.make_event(
                "heartbeat", sweep="s", spec_key="k", worker=7,
                sim_cycles=100, events_fired=200, ops_retired=5, ops_total=10,
            ),
            T.make_event(
                "sweep_end", sweep="s", executed=1, cache_hits=1, failed=0, wall_s=0.5
            ),
        ]
        for event in events:
            sink.handle(event)
        sink.close()
        loaded = T.load_log(path)
        assert loaded == events

    def test_load_log_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 1, "type": "sweep_end", "ts": 0}\n')
        with pytest.raises(T.TelemetryError, match="bad.jsonl:1"):
            T.load_log(str(path))
        path.write_text("{not json\n")
        with pytest.raises(T.TelemetryError, match="not JSON"):
            T.load_log(str(path))


# ----------------------------------------------------------------------
# Sweep logging + reconciliation
# ----------------------------------------------------------------------
class TestSweepLog:
    def _run(self, tmp_path, jobs, specs=None, cache=True):
        specs = specs if specs is not None else _specs()
        log = str(tmp_path / f"sweep-{jobs}.jsonl")
        pool = RunPool(
            jobs=jobs,
            cache_dir=str(tmp_path / "cache") if cache else None,
            telemetry=T.TelemetryConfig(log_path=log, heartbeat_interval=0.01),
        )
        try:
            records = pool.run_batch(specs)
        finally:
            pool.close()
        return pool, records, T.load_log(log)

    def test_serial_sweep_reconciles_with_manifest(self, tmp_path):
        pool, records, events = self._run(tmp_path, jobs=1)
        assert T.reconcile(events, pool.manifest()) == []
        types = _types(events)
        assert types[0] == "sweep_begin" and types[-1] == "sweep_end"
        assert types.count("run_finished") == len(records)
        assert types.count("run_queued") == len(records)
        assert types.count("run_started") == len(records)

    def test_parallel_sweep_reconciles_with_manifest(self, tmp_path):
        pool, records, events = self._run(tmp_path, jobs=4)
        assert T.reconcile(events, pool.manifest()) == []
        assert _types(events).count("run_finished") == len(records)
        # seq is a total order stamped by the hub
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_cached_sweep_emits_run_cached_and_no_heartbeats(self, tmp_path):
        specs = _specs()
        cold_pool, _, _ = self._run(tmp_path, jobs=1)
        warm_log = str(tmp_path / "warm.jsonl")
        warm = RunPool(
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            telemetry=T.TelemetryConfig(log_path=warm_log, heartbeat_interval=0.01),
        )
        try:
            warm.run_batch(specs)
        finally:
            warm.close()
        events = T.load_log(warm_log)
        types = _types(events)
        assert warm.cache_hits == len(specs)
        assert types.count("run_cached") == len(specs)
        assert types.count("run_started") == 0
        assert types.count("heartbeat") == 0  # cached hits never run a sampler
        assert T.reconcile(events, warm.manifest()) == []
        begin = events[0]
        assert begin["type"] == "sweep_begin"
        assert begin["specs"] == len(specs) and begin["pending"] == 0

    def test_events_carry_sweep_id_and_schema(self, tmp_path):
        pool, _, events = self._run(tmp_path, jobs=1)
        sweeps = {event["sweep"] for event in events}
        assert len(sweeps) == 1
        assert all(event["schema"] == T.TELEMETRY_SCHEMA_VERSION for event in events)

    def test_two_batches_two_sweeps_one_log(self, tmp_path):
        specs = _specs()
        log = str(tmp_path / "multi.jsonl")
        pool = RunPool(
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            telemetry=T.TelemetryConfig(log_path=log),
        )
        try:
            pool.run_batch(specs)
            pool.run_batch(specs)  # warm: same stream, second sweep id
        finally:
            pool.close()
        events = T.load_log(log)
        assert len({event["sweep"] for event in events}) == 2
        assert T.reconcile(events, pool.manifest()) == []


class TestFailureDrain:
    def test_poisoned_spec_raises_after_drain_serial(self, tmp_path):
        log = str(tmp_path / "fail.jsonl")
        pool = RunPool(jobs=1, telemetry=T.TelemetryConfig(log_path=log))
        with pytest.raises(KeyError):
            pool.run_batch([_poison_spec()])
        pool.close()
        events = T.load_log(log)
        types = _types(events)
        assert types.count("run_failed") == 1
        assert types[-1] == "sweep_end"  # emitted even though the batch raised
        failed = next(e for e in events if e["type"] == "run_failed")
        assert "KeyError" in failed["error"]
        assert "no_such_workload" in failed["traceback"]
        assert pool.failed == 1

    def test_poisoned_spec_drains_parallel_pool(self, tmp_path):
        specs = _specs()
        log = str(tmp_path / "fail-par.jsonl")
        pool = RunPool(jobs=4, telemetry=T.TelemetryConfig(log_path=log))
        with pytest.raises(KeyError):
            pool.run_batch(specs + [_poison_spec()])
        pool.close()
        events = T.load_log(log)
        types = _types(events)
        # every healthy spec still finished: the failure did not abort the drain
        assert types.count("run_finished") == len(specs)
        assert types.count("run_failed") == 1
        assert pool.executed == len(specs)
        end = next(e for e in events if e["type"] == "sweep_end")
        assert end["executed"] == len(specs) and end["failed"] == 1
        assert T.reconcile(events, pool.manifest()) == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-death injection relies on fork inheritance",
    )
    def test_dead_worker_drains_without_hanging(self, tmp_path, monkeypatch):
        def die(spec, observer=None):
            os._exit(3)

        monkeypatch.setattr(runpool_mod, "execute_spec", die)
        log = str(tmp_path / "death.jsonl")
        pool = RunPool(jobs=2, telemetry=T.TelemetryConfig(log_path=log))
        with pytest.raises(Exception):  # BrokenProcessPool
            pool.run_batch(_specs(3))
        pool.close()
        events = T.load_log(log)
        types = _types(events)
        assert types.count("run_failed") == 3  # one per submitted spec
        assert types[-1] == "sweep_end"
        assert pool.failed == 3


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------
class TestHeartbeats:
    def test_sampler_reads_live_machine_counters(self):
        from repro.system import Machine

        spec = _specs(1)[0]
        machine = Machine(spec.config, spec.build_program())
        emitted = []
        sampler = T.HeartbeatSampler(emitted.append, spec.key(), worker=7, interval=0)
        sampler.attach(machine)  # interval 0: no thread, sample() drives it
        before = sampler.sample()
        machine.run()
        after = sampler.sample()
        sampler.detach()
        for event in (before, after):
            T.validate_event(dict(event, sweep="s", seq=0))
            assert event["worker"] == 7
        assert before["sim_cycles"] == 0 and before["ops_retired"] == 0
        assert after["sim_cycles"] > 0
        assert after["ops_retired"] == after["ops_total"]  # quiesced: exact
        assert after["events_fired"] > before["events_fired"]

    def test_sampler_thread_emits_during_run(self):
        from repro.system import Machine

        spec = _specs(1)[0]
        machine = Machine(spec.config, spec.build_program())
        emitted = []
        sampler = T.HeartbeatSampler(
            emitted.append, spec.key(), worker=1, interval=0.001
        )
        sampler.attach(machine)
        machine.run()
        # the machine is quiesced; give the thread a beat then stop it
        import time as _time

        deadline = _time.monotonic() + 2.0
        while not emitted and _time.monotonic() < deadline:
            _time.sleep(0.002)
        sampler.detach()
        assert emitted, "sampler thread never fired at a 1ms interval"
        assert all(event["type"] == "heartbeat" for event in emitted)

    def test_detach_is_idempotent(self):
        sampler = T.HeartbeatSampler(lambda e: None, "k", worker=1, interval=0)
        sampler.detach()
        sampler.detach()

    def test_zero_length_run_emits_no_heartbeats(self, tmp_path):
        # A trivial single-op program finishes far inside one heartbeat
        # interval: no heartbeats, but run_started/run_finished intact.
        spec = RunSpec.create(
            "write_conflict", SystemConfig(n_processors=2, quantum=1),
            n_procs=2, conflict=False, rounds=1,
        )
        log = str(tmp_path / "tiny.jsonl")
        pool = RunPool(
            jobs=1, telemetry=T.TelemetryConfig(log_path=log, heartbeat_interval=30.0)
        )
        try:
            pool.run(spec)
        finally:
            pool.close()
        types = _types(T.load_log(log))
        assert types.count("heartbeat") == 0
        assert types.count("run_started") == 1
        assert types.count("run_finished") == 1

    def test_machine_progress_shape(self):
        from repro.system import Machine

        spec = _specs(1)[0]
        machine = Machine(spec.config, spec.build_program())
        progress = machine.progress()
        assert set(progress) == {
            "sim_cycles", "events_fired", "ops_retired", "ops_total"
        }
        assert progress["ops_total"] > 0
        machine.run()
        assert machine.progress()["ops_retired"] == progress["ops_total"]


# ----------------------------------------------------------------------
# Results and cache must be telemetry-blind
# ----------------------------------------------------------------------
class TestTelemetryNeutrality:
    def test_records_identical_with_full_telemetry(self, tmp_path):
        specs = _specs()
        bare = RunPool(jobs=1, telemetry=T.TelemetryConfig()).run_batch(specs)
        observed_pool = RunPool(
            jobs=1,
            telemetry=T.TelemetryConfig(
                log_path=str(tmp_path / "log.jsonl"),
                profile="cprofile",
                profile_dir=str(tmp_path / "prof"),
                heartbeat_interval=0.001,
            ),
        )
        try:
            observed = observed_pool.run_batch(specs)
        finally:
            observed_pool.close()
        for spec in specs:
            assert observed[spec] == bare[spec]  # equality excludes wall time

    def test_cache_keys_identical_with_and_without_telemetry(self, tmp_path):
        spec = _specs(1)[0]
        bare = RunPool(jobs=1, cache_dir=str(tmp_path))
        observed = RunPool(
            jobs=1,
            cache_dir=str(tmp_path),
            telemetry=T.TelemetryConfig(
                log_path=str(tmp_path / "log.jsonl"),
                profile="cprofile",
                profile_dir=str(tmp_path / "prof"),
            ),
        )
        assert bare.cache.path_for(spec) == observed.cache.path_for(spec)
        bare.run(spec)
        try:
            observed.run(spec)
        finally:
            observed.close()
        assert observed.cache_hits == 1 and observed.executed == 0

    def test_environment_never_turns_telemetry_on(self, tmp_path, monkeypatch):
        # Only an explicit config (--log/--profile) turns telemetry on;
        # these variables name a log and a profiler but must do nothing.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DSI_LOG", str(tmp_path / "env.jsonl"))
        monkeypatch.setenv("DSI_PROFILE", "cprofile")
        pool = RunPool(jobs=1)
        assert pool.hub is None
        try:
            pool.run(_specs(1)[0])
        finally:
            pool.close()
        assert list(tmp_path.iterdir()) == []  # no log, no profile sidecars

    def test_unknown_profiler_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="cprofile"):
            T.TelemetryConfig(profile="perf")


# ----------------------------------------------------------------------
# Verbose sink (the old RunPool._log, now one sink on the event stream)
# ----------------------------------------------------------------------
class TestVerboseSink:
    def test_verbose_lines_come_from_the_event_stream(self, tmp_path):
        spec = _specs(1)[0]
        stream = io.StringIO()
        pool = RunPool(jobs=1, cache_dir=str(tmp_path), verbose=True)
        assert isinstance(pool.hub.sinks[0], T.VerboseSink)
        pool.hub.sinks[0].stream = stream
        pool.run(spec)
        line = stream.getvalue()
        assert line.startswith("[run 1] write_conflict")
        assert "cache=256KB" in line and "net=100" in line

        warm = RunPool(jobs=1, cache_dir=str(tmp_path), verbose=True)
        warm_stream = io.StringIO()
        warm.hub.sinks[0].stream = warm_stream
        warm.run(spec)
        assert warm_stream.getvalue().startswith("[hit] write_conflict")

    def test_failed_runs_logged(self):
        sink = T.VerboseSink(stream=io.StringIO())
        sink.handle(
            T.make_event(
                "run_failed", sweep="s", spec_key="k", workload="w", label="SC",
                error="KeyError: boom", traceback="tb",
            )
        )
        assert "[FAIL]" in sink.stream.getvalue()


# ----------------------------------------------------------------------
# Live dashboard (pure render; no tty needed)
# ----------------------------------------------------------------------
class TestLiveDashboard:
    def _feed(self, dash, events):
        for event in events:
            dash.handle(event)

    def test_render_tracks_sweep_state(self):
        dash = T.LiveDashboard(stream=io.StringIO(), interval=0, clock=lambda: 100.0)
        hb = dict(sweep="s", spec_key="k1", worker=11, sim_cycles=500,
                  events_fired=900, ops_retired=5, ops_total=10)
        self._feed(dash, [
            dict(T.make_event("sweep_begin", sweep="s", specs=3, pending=2, jobs=2,
                              fingerprint="f" * 16), ts=0.0),
            dict(T.make_event("run_cached", sweep="s", spec_key="k0", workload="w",
                              label="SC", cache_kb=16, net=100, exec_time=10,
                              wall_time_s=0.1), ts=0.5),
            dict(T.make_event("run_started", sweep="s", spec_key="k1", workload="w",
                              label="SC+DSI(V)", worker=11), ts=1.0),
            dict(T.make_event("heartbeat", **hb), ts=2.0),
            dict(T.make_event("heartbeat", **dict(hb, sim_cycles=1500)), ts=3.0),
        ])
        frame = dash.render(now=4.0)
        assert "1/3" in frame          # one of three specs done (the cached one)
        assert "1 running" in frame
        assert "1 cached" in frame
        assert "w/SC+DSI(V)" in frame  # the worker lane names its run
        assert "1k cyc/s" in frame     # (1500-500)/(3-2) = 1000 cycles/s
        assert dash.workers[11]["rate"] == pytest.approx(1000.0)

    def test_eta_and_straggler_flagging(self):
        dash = T.LiveDashboard(stream=io.StringIO(), interval=0, clock=lambda: 50.0)
        dash.total = 10
        dash.jobs = 2
        dash.finished = 4
        dash.wall_times = [1.0, 1.0, 1.0, 1.0]
        assert dash.eta_seconds(now=50.0) == pytest.approx(6 * 1.0 / 2)
        assert dash.is_straggler(started_ts=49.5, now=50.0) is False
        assert dash.is_straggler(started_ts=40.0, now=50.0) is True  # 10s >> 2.5x mean

    def test_non_tty_prints_plain_progress(self, tmp_path):
        stream = io.StringIO()
        pool = RunPool(
            jobs=1,
            telemetry=T.TelemetryConfig(live=True, stream=stream),
        )
        try:
            pool.run(_specs(1)[0])
        finally:
            pool.close()
        lines = stream.getvalue().splitlines()
        assert lines and all(line.startswith("# sweep") for line in lines)
        assert any("1/1 done" in line for line in lines)

    def test_render_handles_empty_state(self):
        dash = T.LiveDashboard(stream=io.StringIO(), clock=lambda: 0.0)
        assert "0/0" in dash.render(now=0.0)


# ----------------------------------------------------------------------
# Profiling sidecars
# ----------------------------------------------------------------------
class TestProfiling:
    def test_sidecars_written_and_merged(self, tmp_path):
        specs = _specs(2)
        profile_dir = str(tmp_path / "prof")
        pool = RunPool(
            jobs=1,
            telemetry=T.TelemetryConfig(
                log_path=str(tmp_path / "log.jsonl"),
                profile="cprofile",
                profile_dir=profile_dir,
            ),
        )
        try:
            pool.run_batch(specs)
        finally:
            pool.close()
        sidecars = [T.profile_sidecar(profile_dir, spec.key()) for spec in specs]
        assert all(os.path.exists(path) for path in sidecars)
        rows, merged = T.profile_table(sidecars, top=10)
        assert merged == 2
        assert rows and len(rows) <= 10
        functions = " ".join(row[0] for row in rows)
        assert "execute_spec" in functions
        text = T.format_profile_table(rows, merged)
        assert "merged host profile (2 sidecars" in text

    def test_run_finished_events_carry_sidecar_path(self, tmp_path):
        spec = _specs(1)[0]
        log = str(tmp_path / "log.jsonl")
        pool = RunPool(
            jobs=1,
            telemetry=T.TelemetryConfig(
                log_path=log, profile="cprofile", profile_dir=str(tmp_path / "prof")
            ),
        )
        try:
            pool.run(spec)
        finally:
            pool.close()
        finished = next(
            e for e in T.load_log(log) if e["type"] == "run_finished"
        )
        assert finished["profile"] and os.path.exists(finished["profile"])

    def test_unreadable_sidecars_are_skipped(self, tmp_path):
        bogus = tmp_path / "bogus.pstats"
        bogus.write_text("not a pstats file")
        rows, merged = T.profile_table([str(bogus), str(tmp_path / "missing.pstats")])
        assert rows == [] and merged == 0
        assert "no profile sidecars" in T.format_profile_table(rows, merged)


# ----------------------------------------------------------------------
# Post-hoc report + Perfetto export
# ----------------------------------------------------------------------
class TestSweepReport:
    def _events(self, tmp_path, jobs=2):
        specs = _specs()
        log = str(tmp_path / "report.jsonl")
        pool = RunPool(
            jobs=jobs,
            cache_dir=str(tmp_path / "cache"),
            telemetry=T.TelemetryConfig(log_path=log, heartbeat_interval=0.005),
        )
        try:
            pool.run_batch(specs)
            pool.run_batch(specs)
        finally:
            pool.close()
        return T.load_log(log), pool

    def test_report_totals_and_workers(self, tmp_path):
        events, pool = self._events(tmp_path)
        report = T.sweep_report(events)
        totals = report["totals"]
        assert totals["runs"] == 8
        assert totals["executed"] == 4 and totals["cached"] == 4
        assert totals["cache_hit_ratio"] == pytest.approx(0.5)
        assert totals["failed"] == 0
        assert report["workers"]  # at least one worker lane
        for worker in report["workers"]:
            assert worker["runs"] >= 0 and worker["busy_s"] >= 0
        for run in report["runs"]:
            if run["status"] == "finished":
                assert run["queue_wait_s"] is not None
                assert run["execute_s"] is not None and run["execute_s"] >= 0
        assert len(report["stragglers"]) == 4  # executed runs only, sorted
        walls = [r["wall_time_s"] for r in report["stragglers"]]
        assert walls == sorted(walls, reverse=True)

    def test_format_report_mentions_key_sections(self, tmp_path):
        events, _pool = self._events(tmp_path)
        text = T.format_report(T.sweep_report(events))
        assert "worker utilization" in text
        assert "stragglers" in text
        assert "50% hit" in text

    def test_perfetto_export_schema(self, tmp_path):
        events, _pool = self._events(tmp_path)
        trace = T.sweep_to_perfetto(events)
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        for event in trace["traceEvents"]:
            assert {"ph", "ts", "pid", "tid"} <= set(event)
            assert event["pid"] == 4  # PID_HARNESS
            if event["ph"] == "X":
                assert event["dur"] >= 1
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "queue" in names and "cache" in names
        assert any(name.startswith("worker ") for name in names)
        # run slices land on worker lanes; cached hits are instants
        assert any(e["ph"] == "i" for e in trace["traceEvents"])
        out = tmp_path / "trace.json"
        T.write_sweep_perfetto(events, str(out))
        assert json.loads(out.read_text())["traceEvents"]

    def test_reconcile_flags_lost_events(self, tmp_path):
        events, pool = self._events(tmp_path, jobs=1)
        manifest = pool.manifest()
        # drop one terminal event: reconciliation must notice
        dropped = next(e for e in events if e["type"] == "run_finished")
        remaining = [e for e in events if e is not dropped]
        problems = T.reconcile(remaining, manifest)
        assert problems and dropped["spec_key"][:16] in " ".join(problems)
        # and an orphan heartbeat (spec never terminated) is flagged too
        orphan = T.make_event(
            "heartbeat", sweep="s", spec_key="orphan" * 11, worker=1,
            sim_cycles=1, events_fired=1, ops_retired=0, ops_total=1,
        )
        problems = T.reconcile(events + [dict(orphan, seq=10_000)], manifest)
        assert any("never terminated" in p for p in problems)


class TestHub:
    def test_sink_errors_never_kill_the_sweep(self):
        class Boom(T.TelemetrySink):
            def handle(self, event):
                raise RuntimeError("sink died")

        hub = T.TelemetryHub([Boom()])
        hub.begin_sweep("s")
        hub.emit(T.make_event(
            "sweep_end", executed=0, cache_hits=0, failed=0, wall_s=0.0
        ))
        hub.close()
        assert len(hub.errors) == 1

    def test_close_is_idempotent(self, tmp_path):
        hub = T.TelemetryHub([T.JsonlSink(str(tmp_path / "x.jsonl"))])
        hub.close()
        hub.close()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_experiment_log_and_report(self, tmp_path, capsys):
        from repro.harness import cli

        log = str(tmp_path / "cli.jsonl")
        assert cli.main(["figure2", "--json", "--jobs", "1", "--log", log]) == 0
        capsys.readouterr()
        events = T.load_log(log)
        assert _types(events).count("sweep_begin") >= 1
        assert cli.main(["report", log]) == 0
        out = capsys.readouterr().out
        assert "worker utilization" in out
        trace_path = str(tmp_path / "harness-trace.json")
        assert cli.main(["report", log, "--json", "--perfetto", trace_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["runs"] >= 1
        assert os.path.exists(trace_path)

    def test_run_verb_telemetry_and_profile(self, tmp_path, capsys):
        from repro.harness import cli

        log = str(tmp_path / "run.jsonl")
        profile_dir = str(tmp_path / "prof")
        assert cli.main([
            "run", "--workload", "producer_consumer", "--procs", "4", "--quick",
            "--json", "--log", log, "--profile", "cprofile",
            "--profile-dir", profile_dir,
        ]) == 0
        capsys.readouterr()
        events = T.load_log(log)
        types = _types(events)
        for expected in ("sweep_begin", "run_queued", "run_started",
                         "run_finished", "sweep_end"):
            assert types.count(expected) == 1, expected
        finished = next(e for e in events if e["type"] == "run_finished")
        assert finished["profile"] and os.path.exists(finished["profile"])
        assert finished["workload"] == "producer_consumer"

    def test_report_rejects_missing_and_empty_logs(self, tmp_path, capsys):
        from repro.harness import cli

        assert cli.main(["report", str(tmp_path / "absent.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["report", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "no telemetry events" in err
        assert cli.main(["report"]) == 2
        capsys.readouterr()

    def test_report_survives_truncated_log(self, tmp_path, capsys):
        """A log whose final line was cut mid-write (crashed sweep) or
        holds bytes that are not UTF-8 still reports the valid prefix —
        with a warning and exit 1, never a traceback."""
        from repro.harness import cli

        log = tmp_path / "cut.jsonl"
        hub = T.TelemetryHub([T.JsonlSink(str(log))])
        hub.begin_sweep("s1")
        hub.emit(T.make_event(
            "sweep_begin", specs=1, pending=1, jobs=1, fingerprint="f" * 16
        ))
        hub.emit(T.make_event(
            "run_queued", spec_key="k" * 64, workload="ocean", label="SC"
        ))
        hub.close()
        prefix = log.read_bytes()
        for tail in (
            b'{"type": "run_fini',  # torn write
            b'\xff\xfe{"type": \x80}\n',  # not UTF-8
        ):
            log.write_bytes(prefix + tail)
            assert cli.main(["report", str(log)]) == 1
            captured = capsys.readouterr()
            assert "not JSON" in captured.err
            assert "valid events" in captured.err
            assert "runs: 1" in captured.out  # the prefix was analyzed

    def test_report_all_lines_invalid_exits_clearly(self, tmp_path, capsys):
        from repro.harness import cli

        bad = tmp_path / "bad.jsonl"
        for content in (b"not json at all\n{\n", b"\xff\xfe\x00garbage\n"):
            bad.write_bytes(content)
            assert cli.main(["report", str(bad)]) == 1
            err = capsys.readouterr().err
            assert "no valid telemetry events" in err
            assert "bad line" in err

    def test_bench_with_telemetry(self, tmp_path, capsys, monkeypatch):
        from repro.harness import cli

        monkeypatch.chdir(tmp_path)
        log = str(tmp_path / "bench.jsonl")
        out = str(tmp_path / "bench-snap.json")
        assert cli.main([
            "bench", "--suite", "smoke", "--json", "-o", out,
            "--log", log, "--profile", "cprofile",
            "--profile-dir", str(tmp_path / "prof"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profiles"]["sidecars"]
        events = T.load_log(log)
        assert _types(events).count("run_finished") == len(payload["runs"])


class TestEquivalenceSweep:
    def test_sweep_telemetry_proof_holds(self):
        from repro.harness.equivalence import sweep_telemetry

        assert sweep_telemetry(jobs=2) == []
