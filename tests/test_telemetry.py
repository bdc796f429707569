"""The harness observatory: event schema, sinks, failure drain, the
RunSpec observer hook, profiling sidecars, reporting, cache neutrality,
and the CLI's refusal of harness flags where they do nothing."""

import io
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


def _must_not_run(spec, observer=None):
    """Stands in for ``runpool.execute_spec`` where no spec may run."""
    raise AssertionError(f"{spec.describe()} ran")


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
                "run_queued", sweep="s", spec_key="k", workload="w", label="SC"
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
            telemetry=T.TelemetryConfig(log_path=log),
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
        for event in events:
            if event["type"] == "run_finished":
                assert event["worker"] == os.getpid()  # serial: in-process
                assert event["started"] <= event["ts"]

    def test_parallel_sweep_reconciles_with_manifest(self, tmp_path):
        pool, records, events = self._run(tmp_path, jobs=4)
        assert T.reconcile(events, pool.manifest()) == []
        assert _types(events).count("run_finished") == len(records)
        workers = {e["worker"] for e in events if e["type"] == "run_finished"}
        assert workers and os.getpid() not in workers  # pids of pool workers
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
            telemetry=T.TelemetryConfig(log_path=warm_log),
        )
        try:
            warm.run_batch(specs)
        finally:
            warm.close()
        events = T.load_log(warm_log)
        types = _types(events)
        assert warm.cache_hits == len(specs)
        assert types.count("run_cached") == len(specs)
        assert types.count("run_finished") == 0  # cached hits never run a spec
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
# The RunSpec.execute observer hook (the benchmark's run clock uses it)
# ----------------------------------------------------------------------
class _RecordingObserver:
    """Notes each hook call with the machine's progress at that moment."""

    def __init__(self):
        self.calls = []
        self.machine = None

    def attach(self, machine):
        self.machine = machine
        self.calls.append(("attach", machine.progress()))

    def detach(self):
        self.calls.append(("detach", self.machine.progress()))


class TestObserverHook:
    def test_execute_brackets_the_run_with_attach_and_detach(self, monkeypatch):
        from repro.system import Machine

        spec = _specs(1)[0]
        program = spec.build_program()
        observer = _RecordingObserver()
        record = spec.execute(program, observer=observer)
        (first, before), (second, after) = observer.calls
        assert (first, second) == ("attach", "detach")
        assert before["sim_cycles"] == 0 and before["ops_retired"] == 0
        assert after["ops_retired"] == after["ops_total"] > 0
        assert record == spec.execute(program)  # observing changes nothing

        def run_dies(machine):
            raise RuntimeError("run died")

        monkeypatch.setattr(Machine, "run", run_dies)
        failing = _RecordingObserver()
        with pytest.raises(RuntimeError, match="run died"):
            spec.execute(program, observer=failing)
        assert [name for name, _progress in failing.calls] == ["attach", "detach"]

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
# Post-hoc report
# ----------------------------------------------------------------------
class TestSweepReport:
    def _events(self, tmp_path, jobs=2):
        specs = _specs()
        log = str(tmp_path / "report.jsonl")
        pool = RunPool(
            jobs=jobs,
            cache_dir=str(tmp_path / "cache"),
            telemetry=T.TelemetryConfig(log_path=log),
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

    def test_reconcile_flags_lost_events(self, tmp_path):
        events, pool = self._events(tmp_path, jobs=1)
        manifest = pool.manifest()
        # drop one terminal event: reconciliation must notice
        dropped = next(e for e in events if e["type"] == "run_finished")
        remaining = [e for e in events if e is not dropped]
        problems = T.reconcile(remaining, manifest)
        assert problems and dropped["spec_key"][:16] in " ".join(problems)


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
        # The harness sweep has no Perfetto export: refused, nothing written.
        trace_path = str(tmp_path / "harness-trace.json")
        assert cli.main(["report", log, "--json", "--perfetto", trace_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "report: --perfetto" in captured.err
        assert not os.path.exists(trace_path)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(
                ["why", "em3d", "--quick", "--procs", "4", "--log", "LOG"], "--log",
                id="why-log",
            ),
            pytest.param(
                ["run", "--workload", "em3d", "--quick", "--procs", "4",
                 "--log", "LOG"], "--log",
                id="run-log",
            ),
            pytest.param(
                ["run", "--workload", "em3d", "--quick", "--procs", "4",
                 "--profile", "cprofile"], "--profile",
                id="run-profile",
            ),
            pytest.param(
                ["trace", "em3d", "--quick", "--procs", "4", "--profile",
                 "cprofile", "--profile-dir", "DIR"], "--profile",
                id="trace-profile",
            ),
            pytest.param(
                ["analyze", "migratory", "--procs", "4", "--log", "LOG"], "--log",
                id="analyze-log",
            ),
            pytest.param(
                ["describe", "--workload", "em3d", "--log", "LOG"], "--log",
                id="describe-log",
            ),
            pytest.param(
                ["gen", "--workload", "em3d", "-o", "OUT", "--log", "LOG"], "--log",
                id="gen-log",
            ),
            pytest.param(["check-protocol", "--log", "LOG"], "--log", id="check-log"),
            pytest.param(
                ["report", "LOG", "--profile", "cprofile"], "--profile",
                id="report-profile",
            ),
            pytest.param(["list", "--log", "LOG"], "--log", id="list-log"),
            pytest.param(
                ["figure2", "--quick", "--profile-dir", "DIR"], "--profile-dir",
                id="profile-dir-without-profile",
            ),
            pytest.param(
                ["report", "LOG", "--perfetto", "OUT"], "--perfetto",
                id="report-perfetto",
            ),
        ],
    )
    def test_harness_flags_refused_where_they_do_nothing(
        self, argv, flag, tmp_path, capsys
    ):
        from repro.harness import cli

        paths = {
            "LOG": tmp_path / "x.jsonl",
            "DIR": tmp_path / "prof",
            "OUT": tmp_path / "out",
        }
        argv = [str(paths.get(arg, arg)) for arg in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"{argv[0]}: {flag} ")
        assert not any(path.exists() for path in paths.values())

    def test_unwritable_log_fails_before_any_spec_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.harness import cli

        monkeypatch.setattr(runpool_mod, "execute_spec", _must_not_run)
        log = str(tmp_path / "missing" / "x.jsonl")
        argv = ["figure5", "--quick", "--procs", "4", "--jobs", "1", "--log", log]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"figure5: cannot write telemetry log {log}: ")

    def test_unwritable_profile_dir_fails_before_any_spec_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.harness import cli

        monkeypatch.setattr(runpool_mod, "execute_spec", _must_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        profile_dir = str(blocker / "profiles")  # a directory under a file
        argv = [
            "figure5", "--quick", "--procs", "4", "--jobs", "2",
            "--profile", "cprofile", "--profile-dir", profile_dir,
        ]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"figure5: cannot create profile directory {profile_dir}: ")

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


class TestEquivalenceSweep:
    def test_sweep_telemetry_proof_holds(self):
        from repro.harness.equivalence import sweep_telemetry

        assert sweep_telemetry(jobs=2) == []
