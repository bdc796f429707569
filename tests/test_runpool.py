"""RunPool: parallel fan-out, persistent cache, runner integration."""

import os

import pytest

from repro.config import IdentifyScheme, SystemConfig
from repro.harness.experiment import ExperimentRunner
from repro.harness.runpool import ResultCache, RunPool, code_fingerprint
from repro.harness.runspec import RunSpec


def _specs():
    """A small batch: the write_conflict micro-program under four configs."""
    out = []
    for identify in (IdentifyScheme.NONE, IdentifyScheme.VERSION):
        for rounds in (1, 2):
            config = SystemConfig(n_processors=3, identify=identify, quantum=1)
            out.append(
                RunSpec.create("write_conflict", config, n_procs=3, conflict=True, rounds=rounds)
            )
    return out


def _dicts(records):
    """Measured quantities per spec (wall-time telemetry is volatile and
    excluded, matching RunRecord equality)."""
    return {spec.key(): record._measured_dict() for spec, record in records.items()}


class TestParallelEquivalence:
    def test_jobs_4_matches_serial(self):
        specs = _specs()
        serial = RunPool(jobs=1).run_batch(specs)
        parallel = RunPool(jobs=4).run_batch(specs)
        assert _dicts(serial) == _dicts(parallel)

    def test_duplicate_specs_execute_once(self):
        spec = _specs()[0]
        pool = RunPool(jobs=1)
        records = pool.run_batch([spec, spec, spec])
        assert pool.executed == 1
        assert len(records) == 1

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            RunPool(jobs=0)


class TestResultCache:
    def test_cold_batch_executes_warm_batch_recalls(self, tmp_path):
        specs = _specs()
        cold = RunPool(jobs=1, cache_dir=str(tmp_path))
        first = cold.run_batch(specs)
        assert cold.executed == len(specs)
        assert cold.cache_hits == 0

        warm = RunPool(jobs=1, cache_dir=str(tmp_path))
        second = warm.run_batch(specs)
        assert warm.executed == 0
        assert warm.cache_hits == len(specs)
        assert _dicts(first) == _dicts(second)

    def test_code_fingerprint_change_invalidates(self, tmp_path):
        spec = _specs()[0]
        RunPool(jobs=1, cache_dir=str(tmp_path)).run(spec)
        edited = RunPool(jobs=1, cache_dir=str(tmp_path), fingerprint="f" * 64)
        edited.run(spec)
        assert edited.executed == 1
        assert edited.cache_hits == 0

    def test_different_config_misses(self, tmp_path):
        base, dsi = _specs()[0], _specs()[2]
        pool = RunPool(jobs=1, cache_dir=str(tmp_path))
        pool.run(base)
        pool.run(dsi)
        assert pool.executed == 2

    def test_no_cache_dir_writes_nothing(self, tmp_path):
        pool = RunPool(jobs=1, cache_dir=str(tmp_path), use_cache=False)
        pool.run(_specs()[0])
        assert pool.executed == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "entry",
        [
            "{not json",
            "[]",
            '"x"',
            '{"spec": {}}',
            '{"record": null}',
            '{"record": {}}',
            '{"record": []}',
        ],
        ids=["not-json", "list", "string", "no-record", "record-null",
             "record-empty", "record-list"],
    )
    def test_corrupt_cache_entry_reexecutes(self, tmp_path, entry):
        spec = _specs()[0]
        pool = RunPool(jobs=1, cache_dir=str(tmp_path))
        pool.run(spec)
        path = pool.cache.path_for(spec)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(entry)
        retry = RunPool(jobs=1, cache_dir=str(tmp_path))
        retry.run(spec)
        assert retry.executed == 1
        assert retry.cache_hits == 0

    def test_cache_layout_is_content_addressed(self, tmp_path):
        spec = _specs()[0]
        cache = ResultCache(str(tmp_path))
        path = cache.path_for(spec)
        assert code_fingerprint()[:16] in path
        assert os.path.basename(path) == spec.key() + ".json"

    def test_fingerprint_is_stable_and_hex(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64
        int(code_fingerprint(), 16)

    def test_fingerprint_folds_in_execution_mode(self, monkeypatch):
        from repro.harness import runpool

        monkeypatch.delenv("DSI_NO_FASTPATH", raising=False)
        monkeypatch.delenv("DSI_MODE", raising=False)
        fast = code_fingerprint()
        monkeypatch.setenv("DSI_NO_FASTPATH", "1")
        reference = code_fingerprint()
        assert fast != reference
        assert fast == runpool._FINGERPRINTS[("fast", "default")]
        assert reference == runpool._FINGERPRINTS[("reference", "default")]

    def test_fingerprint_folds_in_engine_mode(self, monkeypatch):
        # DSI_MODE selects the transaction-retirement engine after spec
        # construction, so each engine must cache separately.
        monkeypatch.delenv("DSI_NO_FASTPATH", raising=False)
        monkeypatch.delenv("DSI_MODE", raising=False)
        default = code_fingerprint()
        monkeypatch.setenv("DSI_MODE", "relaxed")
        relaxed = code_fingerprint()
        monkeypatch.setenv("DSI_MODE", "reference")
        reference = code_fingerprint()
        assert len({default, relaxed, reference}) == 3

    def test_fingerprint_ignores_telemetry_env(self, monkeypatch):
        # Unlike the execution-mode knobs above, observability settings
        # never change simulation results — they must not bust the cache.
        from repro.harness import runpool

        monkeypatch.delenv("DSI_NO_FASTPATH", raising=False)
        monkeypatch.delenv("DSI_MODE", raising=False)
        monkeypatch.delenv("DSI_LOG", raising=False)
        monkeypatch.delenv("DSI_PROFILE", raising=False)
        base = code_fingerprint()
        monkeypatch.setenv("DSI_LOG", "/tmp/x.jsonl")
        monkeypatch.setenv("DSI_PROFILE", "cprofile")
        runpool._FINGERPRINTS.clear()
        try:
            assert code_fingerprint() == base
        finally:
            runpool._FINGERPRINTS.clear()


class TestRunnerIntegration:
    def test_prefetch_then_collect_no_extra_runs(self):
        runner = ExperimentRunner(n_procs=3, quick=True)
        base = SystemConfig(n_processors=3, quantum=1)
        specs = [
            runner.spec("write_conflict", base, n_procs=3, conflict=True, rounds=r)
            for r in (1, 2)
        ]
        runner.prefetch(specs)
        executed = runner.total_sim_runs
        assert executed == 2
        for spec in specs:
            runner.run_spec(spec)
        assert runner.total_sim_runs == executed  # collection is pure lookup

    def test_run_spec_memoizes_identity(self):
        runner = ExperimentRunner(n_procs=3, quick=True)
        spec = runner.spec(
            "write_conflict", SystemConfig(n_processors=3, quantum=1),
            n_procs=3, conflict=True, rounds=1,
        )
        first = runner.run_spec(spec)
        again = runner.run_spec(spec)
        assert first is again

    def test_runner_cache_round_trip(self, tmp_path):
        config = SystemConfig(n_processors=3, quantum=1)

        def sweep(**kwargs):
            runner = ExperimentRunner(n_procs=3, quick=True, **kwargs)
            record = runner.run("write_conflict", config, n_procs=3, conflict=True, rounds=1)
            return runner, record

        cold_runner, cold = sweep(cache_dir=str(tmp_path))
        warm_runner, warm = sweep(cache_dir=str(tmp_path))
        assert cold_runner.total_sim_runs == 1
        assert warm_runner.total_sim_runs == 0
        assert warm_runner.cache_hits == 1
        assert warm == cold


class TestRunTelemetry:
    def test_executed_records_carry_timing(self):
        pool = RunPool(jobs=1)
        record = pool.run(_specs()[0])
        assert record.wall_time_s is not None and record.wall_time_s > 0
        assert record.sim_cycles_per_s == pytest.approx(
            record.exec_time / record.wall_time_s
        )

    def test_timing_survives_parallel_workers(self):
        records = RunPool(jobs=4).run_batch(_specs())
        assert all(r.wall_time_s is not None for r in records.values())

    def test_timing_excluded_from_equality(self):
        pool = RunPool(jobs=1)
        spec = _specs()[0]
        first = pool.run(spec)
        second = RunPool(jobs=1).run(spec)
        second.wall_time_s = (first.wall_time_s or 0) + 100.0
        assert first == second

    def test_degenerate_wall_times_yield_none_rate(self):
        # A sub-resolution timer can hand set_timing zero (or garbage);
        # the rate must come out None — never a raise, never inf/nan in
        # the BENCH JSON.
        record = RunPool(jobs=1).run(_specs()[0])
        for wall in (0.0, -1.0, None, float("inf"), float("nan")):
            record.set_timing(wall)
            assert record.sim_cycles_per_s is None
            assert record.wall_time_s is wall or record.wall_time_s == wall
        # And a sane wall time restores a finite rate.
        record.set_timing(2.0)
        assert record.sim_cycles_per_s == pytest.approx(record.exec_time / 2.0)

    def test_zero_exec_time_rate_is_finite_or_none(self):
        record = RunPool(jobs=1).run(_specs()[0])
        record.exec_time = 0
        record.set_timing(0.5)
        assert record.sim_cycles_per_s == 0

    def test_cached_records_keep_original_timing(self, tmp_path):
        spec = _specs()[0]
        cold = RunPool(jobs=1, cache_dir=str(tmp_path)).run(spec)
        warm = RunPool(jobs=1, cache_dir=str(tmp_path)).run(spec)
        assert warm.wall_time_s == pytest.approx(cold.wall_time_s)

    def test_manifest_lists_every_run(self, tmp_path):
        specs = _specs()
        cold = RunPool(jobs=1, cache_dir=str(tmp_path))
        cold.run_batch(specs)
        manifest = cold.manifest()
        assert manifest["executed"] == len(specs)
        assert manifest["cache_hits"] == 0
        assert len(manifest["runs"]) == len(specs)
        entry = manifest["runs"][0]
        assert entry["workload"] == "write_conflict"
        assert entry["cached"] is False
        assert entry["wall_time_s"] > 0
        assert entry["sim_cycles_per_s"] > 0

        warm = RunPool(jobs=1, cache_dir=str(tmp_path))
        warm.run_batch(specs)
        warm_manifest = warm.manifest()
        assert warm_manifest["cache_hits"] == len(specs)
        assert all(entry["cached"] for entry in warm_manifest["runs"])


class TestCliJson:
    def test_experiment_json(self, capsys):
        import json

        from repro.harness import cli

        assert cli.main(["figure2", "--json", "--jobs", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiments"][0]["experiment_id"] == "figure2"
        assert payload["experiments"][0]["row_dicts"]
        assert payload["meta"]["simulation_runs"] > 0
        assert payload["meta"]["jobs"] == 1
        manifest = payload["run_manifest"]
        assert manifest["executed"] + manifest["cache_hits"] == len(manifest["runs"])
        assert all("wall_time_s" in entry for entry in manifest["runs"])

    def test_run_json(self, capsys):
        import json

        from repro.harness import cli

        assert cli.main(
            ["run", "--workload", "em3d", "--protocol", "V",
             "--procs", "4", "--quick", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["record"]["exec_time"] > 0
        assert payload["protocol"] == "SC+DSI(V)"
        assert payload["record"]["wall_time_s"] > 0
        assert payload["record"]["sim_cycles_per_s"] > 0
