"""Workload generators: structure, determinism, and the sharing properties
each one is supposed to exhibit."""

import pytest

from repro.config import IdentifyScheme, SystemConfig
from repro.system import Machine
from repro.trace.ops import OP_LOCK, OP_READ, OP_WRITE
from repro.workloads import (
    CATALOG,
    barnes,
    by_name,
    em3d,
    false_sharing,
    migratory,
    ocean,
    producer_consumer,
    read_mostly,
    sparse,
    tomcatv,
)
from repro.workloads.base import WorkloadContext

KB = 1024

QUICK = {
    "barnes": dict(n_procs=4, bodies_per_proc=4, cells=16, iterations=1),
    "em3d": dict(n_procs=4, nodes_per_proc=16, iterations=1, private_words=64),
    "ocean": dict(n_procs=4, cols=16, days=1, sweeps_per_day=2),
    "sparse": dict(n_procs=4, x_words=128, iterations=1, a_words_per_proc=64),
    "tomcatv": dict(n_procs=4, rows_per_proc=2, cols=32, iterations=1),
}


class TestCatalog:
    def test_all_paper_workloads_present(self):
        assert set(CATALOG) == {"barnes", "em3d", "ocean", "sparse", "tomcatv"}

    def test_by_name(self):
        program = by_name("em3d", **QUICK["em3d"])
        assert program.name == "em3d"

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            by_name("nonesuch")


@pytest.mark.parametrize("name", sorted(CATALOG))
class TestEveryWorkload:
    def test_builds_and_validates(self, name):
        program = by_name(name, **QUICK[name])
        assert program.n_procs == 4
        assert program.total_ops() > 0

    def test_deterministic(self, name):
        import numpy as np

        first = by_name(name, **QUICK[name])
        second = by_name(name, **QUICK[name])
        for a, b in zip(first.traces, second.traces):
            assert np.array_equal(a.kinds, b.kinds)
            assert np.array_equal(a.addrs, b.addrs)
            assert np.array_equal(a.gaps, b.gaps)

    def test_seed_changes_trace(self, name):
        import numpy as np

        if name not in ("barnes", "em3d"):
            pytest.skip("regular access pattern: generator does not use the RNG")
        first = by_name(name, **QUICK[name])
        second = by_name(name, **dict(QUICK[name], seed=999))
        different = any(
            len(a) != len(b) or not np.array_equal(a.addrs, b.addrs)
            for a, b in zip(first.traces, second.traces)
        )
        assert different

    def test_runs_clean_with_invariants(self, name):
        program = by_name(name, **QUICK[name])
        config = SystemConfig(
            n_processors=4, cache_size=8 * KB, check_invariants=True, quantum=1
        )
        result = Machine(config, program).run()
        assert result.exec_time > 0

    def test_has_shared_accesses(self, name):
        """Some block must be touched by more than one processor."""
        program = by_name(name, **QUICK[name])
        touched = {}
        for proc, trace in enumerate(program.traces):
            for kind, addr in zip(trace.kinds, trace.addrs):
                if kind in (OP_READ, OP_WRITE):
                    touched.setdefault(int(addr) >> 5, set()).add(proc)
        assert any(len(procs) > 1 for procs in touched.values())


class TestWorkloadProperties:
    def test_em3d_writes_are_home_local(self):
        """EM3D's defining property: all modifications to shared data
        happen at the home node (local allocation)."""
        program = em3d(**QUICK["em3d"])
        assert program.home == "segment"
        for proc, trace in enumerate(program.traces):
            for kind, addr in zip(trace.kinds, trace.addrs):
                if kind == OP_WRITE:
                    assert int(addr) >> 22 == proc

    def test_sparse_uses_round_robin_homes(self):
        program = sparse(**QUICK["sparse"])
        assert program.home == "round-robin"

    def test_sparse_every_proc_sweeps_whole_vector(self):
        program = sparse(**QUICK["sparse"])
        # Every processor reads blocks of every chunk.
        for proc, trace in enumerate(program.traces):
            read_segments = {
                int(addr) >> 22
                for kind, addr in zip(trace.kinds, trace.addrs)
                if kind == OP_READ
            }
            assert len(read_segments) == program.n_procs

    def test_barnes_is_imbalanced(self):
        program = barnes(**QUICK["barnes"], imbalance=1.0)
        op_counts = [len(trace) for trace in program.traces]
        assert max(op_counts) > 1.5 * min(op_counts)

    def test_barnes_has_locks(self):
        program = barnes(**QUICK["barnes"])
        lock_ops = sum(int((t.kinds == OP_LOCK).sum()) for t in program.traces)
        assert lock_ops > 0

    def test_ocean_barrier_per_sweep(self):
        args = QUICK["ocean"]
        program = ocean(**args)
        expected = args["days"] * args["sweeps_per_day"] + 1  # +1 initial
        assert program.traces[0].barrier_count() == expected

    def test_tomcatv_working_set_between_cache_sizes(self):
        program = tomcatv(n_procs=4)  # full-scale geometry
        wss = program.meta["wss_bytes_per_proc"]
        assert 16 * KB < wss < 128 * KB

    def test_tomcatv_mostly_private(self):
        program = tomcatv(**QUICK["tomcatv"])
        cross = 0
        total = 0
        for proc, trace in enumerate(program.traces):
            for kind, addr in zip(trace.kinds, trace.addrs):
                if kind in (OP_READ, OP_WRITE):
                    total += 1
                    if int(addr) >> 22 != proc:
                        cross += 1
        assert cross / total < 0.1


class TestMicroPatterns:
    def test_producer_consumer_dsi_wins(self):
        program = producer_consumer(n_procs=3)
        config = SystemConfig(n_processors=3, cache_size=8 * KB, quantum=1)
        base = Machine(config, program).run()
        dsi = Machine(config.with_(identify=IdentifyScheme.STATES), program).run()
        assert dsi.messages.invalidations() < base.messages.invalidations()
        assert dsi.exec_time < base.exec_time

    def test_migratory_runs(self):
        program = migratory(n_procs=3)
        config = SystemConfig(n_processors=3, cache_size=8 * KB, quantum=1, check_invariants=True)
        result = Machine(config, program).run()
        assert result.misses.explicit_invalidations > 0

    def test_read_mostly_builds(self):
        program = read_mostly(n_procs=3)
        config = SystemConfig(n_processors=3, cache_size=8 * KB, quantum=1)
        result = Machine(config, program).run()
        assert result.misses.read_hits > 0

    def test_false_sharing_ping_pongs(self):
        program = false_sharing(n_procs=3)
        config = SystemConfig(n_processors=3, cache_size=8 * KB, quantum=1)
        result = Machine(config, program).run()
        # One shared block, three writers: constant invalidation traffic.
        assert result.misses.explicit_invalidations > program.meta["iterations"]


class TestWorkloadContext:
    def test_locks_rotate_homes(self):
        ctx = WorkloadContext("t", 4)
        homes = {ctx.new_lock() >> 22 for _ in range(4)}
        assert len(homes) == 4

    def test_lock_in_own_block(self):
        ctx = WorkloadContext("t", 2)
        lock_a = ctx.new_lock()
        lock_b = ctx.new_lock()
        assert lock_a >> 5 != lock_b >> 5

    def test_barrier_all_balanced(self):
        ctx = WorkloadContext("t", 3)
        ctx.barrier_all()
        ctx.barrier_all()
        program = ctx.program()
        assert all(t.barrier_count() == 2 for t in program.traces)

    def test_stream_private_touches_blocks(self):
        ctx = WorkloadContext("t", 1)
        base = ctx.alloc_words(0, 64)
        ctx.stream_private(0, base, 64, stride_words=8)
        trace = ctx.builders[0].build()
        assert len(trace) == 8
