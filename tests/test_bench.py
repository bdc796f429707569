"""Benchmark observatory: suites, snapshot schema, regression gate."""

import copy
import json
import os

import pytest

from repro.errors import ConfigError
from repro.harness import bench

SEED = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_seed.json")

@pytest.fixture(scope="module")
def snapshot():
    """One real smoke-suite run shared by every test in the module."""
    return bench.run_bench(suite="smoke", procs=2, jobs=1)


def slowed(payload, factor=0.8):
    """A copy of ``payload`` with every run's simulation speed scaled."""
    clone = copy.deepcopy(payload)
    for run in clone["runs"]:
        run["sim_cycles_per_s"] *= factor
    return clone


class TestSuites:
    def test_pinned_suites_exist(self):
        assert set(bench.SUITES) == {"smoke", "quick", "full"}
        assert set(bench.SUITE_PROCS) == set(bench.SUITES)

    def test_suite_specs_pin_protocol_and_workload(self):
        triples = bench.suite_specs("quick")
        assert len(triples) == 12  # 3 workloads x (SC, W, V, TARDIS)
        assert [p for _w, p, _s in triples].count("TARDIS") == 3
        for workload, protocol, spec in triples:
            assert spec.workload == workload
            assert spec.config.n_processors == bench.SUITE_PROCS["quick"]

    def test_unknown_suite_raises(self):
        with pytest.raises(ConfigError, match="unknown bench suite"):
            bench.suite_specs("nope")

    def test_procs_override(self):
        triples = bench.suite_specs("smoke", procs=2)
        assert all(spec.config.n_processors == 2 for _w, _p, spec in triples)

    def test_bad_repeat_raises(self):
        with pytest.raises(ConfigError, match="repeat"):
            bench.run_bench(suite="smoke", repeat=0)


class TestSnapshot:
    def test_schema_valid(self, snapshot):
        assert bench.validate_payload(snapshot) is snapshot
        assert snapshot["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert snapshot["suite"] == "smoke"
        assert snapshot["procs"] == 2
        assert len(snapshot["runs"]) == len(bench.SUITES["smoke"])

    def test_runs_carry_measurements(self, snapshot):
        for run in snapshot["runs"]:
            assert run["exec_time"] > 0
            assert run["wall_time_s"] > 0
            assert run["sim_cycles_per_s"] > 0
            assert run["network_messages"] > 0

    def test_json_round_trip(self, snapshot, tmp_path):
        path = tmp_path / "BENCH_test.json"
        bench.write_payload(snapshot, str(path))
        assert bench.load_payload(str(path)) == snapshot

    def test_validate_rejects_wrong_version(self, snapshot):
        bad = copy.deepcopy(snapshot)
        bad["schema_version"] = 999
        with pytest.raises(ConfigError, match="schema_version"):
            bench.validate_payload(bad)

    def test_validate_rejects_missing_run_field(self, snapshot):
        bad = copy.deepcopy(snapshot)
        del bad["runs"][0]["sim_cycles_per_s"]
        with pytest.raises(ConfigError, match="sim_cycles_per_s"):
            bench.validate_payload(bad)

    def test_validate_rejects_empty_runs(self, snapshot):
        bad = copy.deepcopy(snapshot)
        bad["runs"] = []
        with pytest.raises(ConfigError, match="no runs"):
            bench.validate_payload(bad)

    def test_validate_accepts_snapshot_without_mode(self, snapshot):
        modeless = copy.deepcopy(snapshot)
        modeless.pop("mode", None)
        assert bench.validate_payload(modeless) is modeless

    def test_committed_seed_baseline_loads(self):
        # CI falls back to the committed seed when its baseline cache is
        # cold; the seed predates the single engine and carries "mode".
        seed = bench.load_payload(SEED)
        rows, regressions = bench.compare(seed, seed, sim_threshold=0.01)
        assert not regressions
        assert len(rows) == len(bench.SUITES[seed["suite"]])

    def test_history_groups_by_suite(self, snapshot, tmp_path):
        older = copy.deepcopy(snapshot)
        older["created"] = "2000-01-01T00:00:00"
        older["mode"] = "reference"  # written before the single engine
        older["totals"]["sim_cycles_per_s"] = snapshot["totals"]["sim_cycles_per_s"] / 2
        bench.write_payload(older, str(tmp_path / "BENCH_old.json"))
        bench.write_payload(snapshot, str(tmp_path / "BENCH_new.json"))
        # The seed's host-speed fields are null; it must still render.
        bench.write_payload(bench.load_payload(SEED), str(tmp_path / "BENCH_seed.json"))
        snapshots, skipped = bench.collect_history(str(tmp_path))
        assert not skipped and len(snapshots) == 3
        assert "+100.0%" in bench.format_history(snapshots)

    def test_default_path_shape(self):
        assert bench.default_path(0).startswith("BENCH_19")  # epoch, local time


class TestCompare:
    def test_identical_snapshots_pass(self, snapshot):
        rows, regressions = bench.compare(snapshot, snapshot)
        assert not regressions
        assert all(row["status"] == "ok" for row in rows)
        assert all(row["speed_delta"] == pytest.approx(0.0) for row in rows)

    def test_injected_20pct_slowdown_detected(self, snapshot):
        rows, regressions = bench.compare(snapshot, slowed(snapshot, 0.8), threshold=0.15)
        assert len(regressions) == len(snapshot["runs"])
        for row in regressions:
            assert row["status"] == "REGRESSED"
            assert row["speed_delta"] == pytest.approx(-0.2)
            assert any("cycles/s" in flag for flag in row["flags"])

    def test_slowdown_within_threshold_passes(self, snapshot):
        _, regressions = bench.compare(snapshot, slowed(snapshot, 0.8), threshold=0.25)
        assert not regressions

    def test_speedup_never_regresses(self, snapshot):
        _, regressions = bench.compare(snapshot, slowed(snapshot, 1.5), threshold=0.15)
        assert not regressions

    def test_sim_threshold_flags_exec_time_drift(self, snapshot):
        drifted = copy.deepcopy(snapshot)
        for run in drifted["runs"]:
            run["exec_time"] = int(run["exec_time"] * 1.3)
        _, without = bench.compare(snapshot, drifted)
        assert not without  # host threshold alone ignores simulated drift
        _, with_gate = bench.compare(snapshot, drifted, sim_threshold=0.05)
        assert with_gate
        assert any("exec_time" in flag for row in with_gate for flag in row["flags"])

    def test_new_and_removed_runs(self, snapshot):
        pruned = copy.deepcopy(snapshot)
        extra_run = pruned["runs"].pop()
        rows, regressions = bench.compare(pruned, snapshot)
        assert not regressions  # membership changes inform, never fail
        statuses = {(r["workload"], r["protocol"]): r["status"] for r in rows}
        assert statuses[(extra_run["workload"], extra_run["protocol"])] == "new"
        rows, _ = bench.compare(snapshot, pruned)
        statuses = {(r["workload"], r["protocol"]): r["status"] for r in rows}
        assert statuses[(extra_run["workload"], extra_run["protocol"])] == "removed"

    def test_format_compare_renders(self, snapshot):
        rows, _ = bench.compare(snapshot, slowed(snapshot, 0.8))
        text = bench.format_compare(rows)
        assert "REGRESSED" in text
        assert "-20.0%" in text


class TestBenchCli:
    def test_run_writes_valid_snapshot(self, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--suite", "smoke", "--procs", "2", "-o", str(path)]) == 0
        payload = bench.load_payload(str(path))
        assert payload["suite"] == "smoke"
        assert "bench suite 'smoke'" in capsys.readouterr().out

    def test_compare_exit_codes(self, snapshot, tmp_path, capsys):
        from repro.harness.cli import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        bench.write_payload(snapshot, str(old))
        bench.write_payload(slowed(snapshot, 0.8), str(new))
        assert main(["bench", "--compare", str(old), str(old)]) == 0
        assert main(["bench", "--compare", str(old), str(new)]) == 1
        assert main(["bench", "--compare", str(old), str(new), "--threshold", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_compare_json_output(self, snapshot, tmp_path, capsys):
        from repro.harness.cli import main

        old = tmp_path / "old.json"
        bench.write_payload(snapshot, str(old))
        assert main(["bench", "--compare", str(old), str(old), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0
        assert all(row["status"] == "ok" for row in payload["rows"])

    def test_unreadable_snapshot_is_config_error(self, tmp_path, capsys):
        from repro.harness.cli import main

        missing = str(tmp_path / "absent.json")
        assert main(["bench", "--compare", missing, missing]) == 2
        assert "cannot read bench snapshot" in capsys.readouterr().err
