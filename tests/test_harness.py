"""Harness: configurations, runner caching, experiment modules, CLI.

Experiment modules run at quick scale with a small machine so the whole
file stays fast while exercising every code path.
"""

import re

import pytest

from repro.config import Consistency, IdentifyScheme, SIMechanism
from repro.errors import ConfigError
from repro.harness import ablations, cli, figure2, figure3, figure4, figure5, figure6, table2, table3
from repro.harness.configs import (
    FAST_NET,
    LARGE_CACHE,
    PROTOCOLS,
    SLOW_NET,
    SMALL_CACHE,
    WORKLOADS,
    paper_config,
    workload_args,
)
from repro.harness.experiment import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(n_procs=4, quick=True)


class TestConfigs:
    def test_protocol_labels(self):
        assert paper_config("SC").consistency is Consistency.SC
        assert paper_config("W").consistency is Consistency.WC
        assert paper_config("S").identify is IdentifyScheme.STATES
        assert paper_config("V").identify is IdentifyScheme.VERSION
        assert paper_config("V-FIFO").si_mechanism is SIMechanism.FIFO
        tearoff = paper_config("W+V")
        assert tearoff.tearoff and tearoff.consistency is Consistency.WC

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            paper_config("XYZ")

    def test_cache_and_latency_applied(self):
        config = paper_config("SC", cache=LARGE_CACHE, latency=SLOW_NET)
        assert config.cache_size == LARGE_CACHE
        assert config.network_latency == SLOW_NET

    def test_overrides(self):
        config = paper_config("V", version_bits=2)
        assert config.version_bits == 2

    def test_workload_args_quick(self):
        args = workload_args("em3d", quick=True, n_procs=4)
        assert args["n_procs"] == 4
        assert args["nodes_per_proc"] < 128

    def test_scaled_cache_constants(self):
        # 16x scaling of the paper's 256KB / 2MB.
        assert SMALL_CACHE * 16 == 256 * 1024
        assert LARGE_CACHE * 16 == 2 * 1024 * 1024
        assert FAST_NET == 100 and SLOW_NET == 1000


class TestRunner:
    def test_program_cached(self, runner):
        first = runner.program("em3d")
        second = runner.program("em3d")
        assert first is second

    def test_run_memoized(self, runner):
        config = paper_config("SC", cache=SMALL_CACHE, n_procs=4)
        before = runner.total_sim_runs
        first = runner.run("em3d", config)
        again = runner.run("em3d", config)
        assert first is again
        assert runner.total_sim_runs == before + 1

    def test_distinct_configs_not_shared(self, runner):
        a = runner.run("em3d", paper_config("SC", cache=SMALL_CACHE, n_procs=4))
        b = runner.run("em3d", paper_config("W", cache=SMALL_CACHE, n_procs=4))
        assert a is not b


class TestExperiments:
    def test_figure2(self):
        result = figure2.run()
        assert len(result.rows) == 3
        rows = {row[0]: row for row in result.rows}
        idle = rows["write, no outstanding copy (Idle)"][1]
        shared = rows["write, outstanding shared copy"][1]
        dsi = rows["write, copy self-invalidated (DSI)"][1]
        assert shared > idle
        assert dsi == idle  # DSI restores the Idle cost exactly

    def test_figure3(self, runner):
        result = figure3.run(runner)
        assert len(result.rows) == len(WORKLOADS) * 2 * len(PROTOCOLS)
        sc_rows = [r for r in result.rows if r[2] == "SC"]
        assert all(r[3] == "1.00" for r in sc_rows)

    def test_figure4_reuses_figure3_shape(self, runner):
        result = figure4.run(runner)
        assert result.experiment_id == "figure4"
        assert len(result.rows) == len(WORKLOADS) * 2 * len(PROTOCOLS)

    def test_figure5(self, runner):
        result = figure5.run(runner)
        assert len(result.rows) == len(WORKLOADS)
        sparse_row = next(r for r in result.rows if r[0] == "sparse")
        assert sparse_row[3] > 0  # FIFO overflows on sparse

    def test_figure6(self, runner):
        result = figure6.run(runner)
        assert len(result.rows) == len(WORKLOADS) * 2
        w_rows = [r for r in result.rows if r[1] == "W"]
        assert all(r[2] == "1.00" for r in w_rows)

    def test_table2(self, runner):
        result = table2.run(runner)
        assert len(result.rows) == len(WORKLOADS) * 4

    def test_table3(self, runner):
        result = table3.run(runner)
        assert len(result.rows) == len(WORKLOADS) * 2
        em3d_rows = [r for r in result.rows if r[0] == "em3d"]
        # tear-off eliminates a large share of em3d's invalidations
        assert all(float(r[4]) > 30 for r in em3d_rows)

    def test_result_formatting(self, runner):
        result = figure5.run(runner)
        text = result.format()
        assert "figure5" in text
        assert "sparse" in text
        dicts = result.row_dicts()
        assert dicts[0]["workload"] == "barnes"


class TestAblations:
    def test_version_bits(self, runner):
        result = ablations.version_bits(runner, widths=(1, 4))
        assert [row[0] for row in result.rows] == [1, 4]

    def test_fifo_depth(self, runner):
        result = ablations.fifo_depth(runner, depths=(2, 64))
        overflow_small = result.rows[0][2]
        overflow_large = result.rows[1][2]
        assert overflow_small >= overflow_large

    def test_upgrade_case(self, runner):
        result = ablations.upgrade_case(runner, workloads=("em3d",))
        assert len(result.rows) == 1

    def test_home_exclusion(self, runner):
        result = ablations.home_exclusion(runner, workloads=("em3d",))
        assert len(result.rows) == 1

    def test_read_counter(self, runner):
        result = ablations.read_counter(runner, widths=(1, 2))
        assert len(result.rows) == 2

    def test_cache_side(self, runner):
        result = ablations.cache_side(runner, workloads=("em3d",))
        assert len(result.rows) == 1

    def test_sc_tearoff(self, runner):
        result = ablations.sc_tearoff(runner, workloads=("em3d",))
        assert len(result.rows) == 1

    def test_scaling(self, runner):
        result = ablations.scaling(runner, proc_counts=(2, 4))
        assert [row[0] for row in result.rows] == [2, 4]

    def test_block_size(self, runner):
        result = ablations.block_size(runner, sizes=(32, 64))
        assert [row[0] for row in result.rows] == [32, 64]
        # Larger blocks -> fewer misses on strided data -> faster base run.
        assert result.rows[1][1] <= result.rows[0][1]


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "ablation:fifo_depth" in out
        assert "run" in out and "gen" in out and "bars" in out

    def test_help_names_every_listed_verb(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no wrap inside 'check-protocol'
        assert cli.main(["list"]) == 0
        verbs = set(capsys.readouterr().out.split()) - set(cli.EXPERIMENTS)
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        usage = capsys.readouterr().out
        positional = usage[usage.index("\n  experiment"):usage.index("\n  target")]
        assert verbs <= set(re.findall(r"[\w-]+", positional))

    def test_unknown(self, capsys):
        assert cli.main(["bogus"]) == 2

    def test_single_experiment_quick(self, capsys):
        assert cli.main(["figure5", "--quick", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "sparse" in out

    def test_figure2_via_cli(self, capsys):
        assert cli.main(["figure2"]) == 0
        assert "Idle" in capsys.readouterr().out

    def test_bars(self, capsys):
        assert cli.main(["bars", "--quick", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "normalized to SC" in out
        assert "#=compute" in out

    def test_run_workload(self, capsys):
        assert cli.main(
            ["run", "--workload", "em3d", "--protocol", "V", "--procs", "4", "--quick"]
        ) == 0
        out = capsys.readouterr().out
        assert "execution-time breakdown" in out
        assert "SC+DSI(V)" in out
        assert "self-invalidations" in out

    def test_run_needs_workload_or_trace(self, capsys):
        assert cli.main(["run"]) == 2

    def test_gen_and_run_trace(self, tmp_path, capsys):
        path = str(tmp_path / "trace.npz")
        assert cli.main(
            ["gen", "--workload", "ocean", "--procs", "4", "--quick", "-o", path]
        ) == 0
        assert cli.main(["run", "--trace", path, "--protocol", "W"]) == 0
        out = capsys.readouterr().out
        assert "ocean" in out and "execution time" in out

    def test_gen_needs_output(self, capsys):
        assert cli.main(["gen", "--workload", "ocean"]) == 2

    def test_describe(self, capsys):
        assert cli.main(["describe", "--workload", "sparse", "--procs", "4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "sharing degree" in out and "shared_blocks" in out

    def test_run_with_trace_dump(self, capsys):
        assert cli.main(
            ["run", "--workload", "ocean", "--procs", "4", "--quick", "--show-trace", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "GETS" in out or "GETX" in out
