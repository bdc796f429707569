"""Smoke tests of the benchmark itself, at tiny scale (4 processors,
quick generator sizes).  Run with ``python3 -m pytest perfbench -q``."""

import json
import os

import pytest

import run


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every suite shrunk to 4 processors; results written under tmp."""
    monkeypatch.setattr(run, "SUITES", {name: suite.tiny() for name, suite in run.SUITES.items()})
    monkeypatch.setattr(run, "BUILD_DIR", str(tmp_path))
    for name in run.GUARDED_ENV:
        monkeypatch.delenv(name, raising=False)
    return run.SUITES


def _check_result(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _unit in units]
    for name, unit in units:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(run.SUITES))
def test_every_workload_runs_and_prints_every_metric(tiny, workload, capsys):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.05"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    _check_result(result, run.END_TO_END)
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["value"] > 0, name
        assert any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", sorted(run.SUITES))
def test_traced_run_is_neutral_and_attributes_run_time(tiny, workload):
    result, report = run.run(workload, 2, 0.05, trace=1)
    # Correct means the traced pass reproduced every untraced record.
    _check_result(result, run.PER_LAYER)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["trace.unattributed_frac"] <= 0.05
    assert metrics["trace.overhead_frac"] > 0
    for layer in ("engine", "processor", "protocol", "memory", "directory", "network"):
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["workloads.ops"] > 0 and metrics["engine.events"] > 0
    if run.SUITES[workload].pooled:
        assert metrics["harness.cache_hits"] == len(
            [spec for group in run.SUITES[workload].plan(2) for spec in group]
        )
        assert metrics["harness.record_bytes"] > 0
    assert report["layer_totals"]["counts"]["runs"] > 0


def test_output_check_catches_a_perturbed_expected_value(tiny, monkeypatch):
    suite = run.SUITES["coherence32"]
    baseline = run.inprocess_passes(suite, 0, run.OutputCheck(), cycles=1)["records"]
    expected = {
        label: json.loads(json.dumps(run.record_summary(record)))
        for label, record in baseline.items()
    }
    check = run.OutputCheck(expected)
    for label, record in baseline.items():
        check(label, record)
    assert check.failed == 0

    label = sorted(expected)[0]
    expected[label]["exec_time"] += 1
    monkeypatch.setattr(run, "load_expected", lambda _suite, _seed: expected)
    result, report = run.run("coherence32", 0, 0.05, trace=0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(label in failure and "exec_time" in failure for failure in report["failures"])


def test_output_check_catches_unretired_ops_and_nondeterminism():
    suite = run.SUITES["coherence32"].tiny()
    records = run.inprocess_passes(suite, 1, run.OutputCheck(), cycles=1)["records"]
    (first, record), (second, other) = list(records.items())[:2]
    check = run.OutputCheck()
    check(first, record, run.UNRETIRED)
    check(second, other)
    check(second, record)  # another spec's record under this label
    assert check.failed == 2 and check.attempted == 3
    assert [failure.split(":")[0] for failure in check.failures] == [first, second]


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.SUITES)


def test_expected_records_cover_every_spec_at_seed_zero():
    with open(run.EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    for name, suite in run.SUITES.items():
        labels = {label for group in suite.plan(0) for label, _spec in group}
        assert set(expected[name]) == labels


@pytest.mark.parametrize("variable", run.GUARDED_ENV)
def test_refuses_engine_selecting_environment(tiny, monkeypatch, capsys, variable):
    monkeypatch.setenv(variable, "1")
    assert run.main(["--workload", "sweep", "--seconds", "0.05"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert variable in captured.err


def test_default_seed_reproduces_generator_defaults():
    for suite in run.SUITES.values():
        for group in suite.plan(0):
            for label, spec in group:
                offset = int(label.rsplit("/", 1)[1])
                seed = dict(spec.workload_args)["seed"]
                assert seed == run.GEN_SEEDS[spec.workload] + offset, label
