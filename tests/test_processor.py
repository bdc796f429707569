"""Processor model: trace walking, quantum batching, stall accounting."""

import pytest

from conftest import seg_addr, tiny_config
from repro.errors import SimulationError
from repro.harness.configs import paper_config, workload_args
from repro.processor import cpu
from repro.stats.breakdown import CATEGORIES, Breakdown
from repro.stats.record import RunRecord
from repro.system import Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program
from repro.workloads import by_name


def one_proc(build, **config_over):
    builder = TraceBuilder()
    build(builder)
    program = Program("p", [builder.build()])
    config = tiny_config(n_procs=1, **config_over)
    machine = Machine(config, program)
    result = machine.run()
    return result


class TestComputeAccounting:
    def test_pure_compute(self):
        result = one_proc(lambda b: b.compute(500).read(seg_addr(0)))
        assert result.breakdowns[0].compute == 500
        assert result.exec_time == 500 + 18  # compute + local miss

    def test_empty_trace_finishes_at_zero(self):
        result = one_proc(lambda b: None)
        assert result.exec_time == 0
        assert result.breakdowns[0].total() == 0

    def test_gap_charged_once_across_stalls(self):
        result = one_proc(lambda b: b.compute(100).write(seg_addr(0)))
        assert result.breakdowns[0].compute == 100

    def test_every_cycle_attributed(self):
        """exec time == sum of all breakdown categories (single proc)."""

        def build(b):
            b.compute(50)
            for i in range(5):
                b.read(seg_addr(0, 32 * i)).write(seg_addr(0, 32 * i)).compute(9)

        result = one_proc(build)
        assert result.breakdowns[0].total() == result.exec_time


class TestQuantum:
    @pytest.mark.parametrize("quantum", [1, 10, 100, 1000])
    def test_single_proc_timing_independent_of_quantum(self, quantum):
        def build(b):
            b.compute(37)
            for i in range(20):
                b.read(seg_addr(0, 32 * (i % 4))).compute(13)

        results = one_proc(build, quantum=quantum)
        reference = one_proc(build, quantum=1)
        assert results.exec_time == reference.exec_time
        assert results.breakdowns[0].as_dict() == reference.breakdowns[0].as_dict()

    def test_batching_reduces_events(self):
        def build(b):
            for i in range(200):
                b.read(seg_addr(0)).compute(3)

        precise = one_proc(build, quantum=1)
        batched = one_proc(build, quantum=100)
        assert batched.events_fired < precise.events_fired

    def test_multiproc_quantum_changes_timing_only_slightly(self):
        """Quantum batching is the WWT approximation: cross-processor
        timing may shift within a quantum but results stay close."""
        builders = [TraceBuilder(), TraceBuilder()]
        for i in range(50):
            builders[0].write(seg_addr(0, 32 * (i % 4))).compute(7)
            builders[1].read(seg_addr(0, 32 * (i % 4))).compute(5)
        for builder in builders:
            builder.barrier(0)
        program = Program("q", [b.build() for b in builders])
        precise = Machine(tiny_config(n_procs=2, quantum=1), program).run()
        batched = Machine(tiny_config(n_procs=2, quantum=100, check_invariants=False), program).run()
        assert abs(batched.exec_time - precise.exec_time) / precise.exec_time < 0.25


class TestBreakdownClass:
    def test_categories_complete(self):
        assert "compute" in CATEGORIES and "dsi" in CATEGORIES
        breakdown = Breakdown()
        assert breakdown.total() == 0

    def test_add_and_merge(self):
        a = Breakdown()
        a.add("compute", 10)
        b = Breakdown()
        b.add("compute", 5)
        b.add("sync", 2)
        a.merge(b)
        assert a.compute == 15 and a.sync == 2
        assert a.total() == 17

    def test_fractions_sum_to_one(self):
        breakdown = Breakdown()
        breakdown.add("compute", 30)
        breakdown.add("read_other", 70)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_of_empty(self):
        assert all(v == 0.0 for v in Breakdown().fractions().values())

    def test_copy_is_independent(self):
        a = Breakdown()
        a.add("compute", 1)
        b = a.copy()
        b.add("compute", 1)
        assert a.compute == 1 and b.compute == 2

    def test_repr_shows_nonzero(self):
        a = Breakdown()
        a.add("sync", 4)
        assert "sync=4" in repr(a)


class TestMachineGuards:
    def test_run_only_once(self):
        program = Program("p", [TraceBuilder().read(seg_addr(0)).build()])
        machine = Machine(tiny_config(n_procs=1), program)
        machine.run()
        with pytest.raises(SimulationError):
            machine.run()

    def test_closed_machine_does_not_run(self):
        program = Program("p", [TraceBuilder().read(seg_addr(0)).build()])
        with Machine(tiny_config(n_procs=1), program) as machine:
            pass
        with pytest.raises(SimulationError, match="close"):
            machine.run()

    def test_proc_count_mismatch_rejected(self):
        program = Program("p", [TraceBuilder().build()])
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Machine(tiny_config(n_procs=2), program)

    def test_per_proc_times_reported(self):
        builders = [TraceBuilder().compute(10), TraceBuilder().compute(30)]
        program = Program("p", [b.build() for b in builders])
        result = Machine(tiny_config(n_procs=2), program).run()
        assert result.exec_time == max(result.per_proc_time)


class TestDecodeWindow:
    """The decoded op window is a host-side buffer: where it ends must not
    show in any record.  Windows of 1 and 7 ops put every op kind, sync
    ops included, on a window edge, on both the direct-execution path (SC,
    W+V, S) and the interpreted one (TARDIS); sparse crosses the default
    window eight times per processor."""

    @pytest.mark.parametrize("protocol", ["SC", "W+V", "S", "TARDIS"])
    @pytest.mark.parametrize("workload", ["barnes", "sparse"])
    def test_records_independent_of_window(self, monkeypatch, workload, protocol):
        program = by_name(workload, **workload_args(workload, quick=True, n_procs=4))
        config = paper_config(protocol, n_procs=4)
        records = []
        for window in (1, 7, cpu.WINDOW):
            monkeypatch.setattr(cpu, "WINDOW", window)
            records.append(RunRecord.from_result(Machine(config, program).run()))
        assert records[0] == records[1] == records[2]
        assert len({record.events_fired for record in records}) == 1
