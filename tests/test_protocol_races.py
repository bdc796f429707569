"""End-to-end races exercised through whole machines.

The directory unit tests (test_directory.py) inject crafted message
sequences; these tests instead construct *programs* whose natural timing
produces the races, so the cache-controller side participates too.
"""


from conftest import seg_addr, tiny_config, two_proc_program
from repro.config import Consistency, IdentifyScheme, SIMechanism
from repro.system import Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program

KB = 1024


class TestWritebackRaces:
    def evict_config(self, **over):
        # Tiny direct-mapped cache so replacements happen constantly.
        return tiny_config(cache_size=256, cache_assoc=1, **over)

    def test_late_writeback_then_reread(self):
        """Write a block, evict it with conflicting fills, re-read it —
        the GETS chases the WB through the directory."""
        builder = TraceBuilder()
        target = seg_addr(1)  # remote home: real network timing
        builder.write(target)
        for i in range(1, 9):
            builder.read(seg_addr(1, i * 256))  # march over all 8 sets
        builder.read(target)
        program = Program("chase", [builder.build(), TraceBuilder().build()])
        machine = Machine(self.evict_config(), program)
        result = machine.run()
        entry = machine.directories[1].entries[target >> 5]
        assert entry.has_sharer(0)
        assert result.messages.network["WB"] >= 1

    def test_eviction_storm_under_contention(self):
        """Two processors thrash a direct-mapped cache over shared blocks
        while invalidations fly; the protocol must stay consistent."""

        def build(b0, b1, ctx):
            for round_id in range(6):
                for i in range(6):
                    b0.write(seg_addr(0, i * 256))
                    b1.read(seg_addr(0, i * 256))
                ctx.barrier_all()

        program = two_proc_program(build)
        result = Machine(self.evict_config(), program).run()
        assert result.misses.replacements > 0
        assert result.misses.explicit_invalidations > 0

    def test_dsi_flush_racing_invalidation(self):
        """Self-invalidations crossing in-flight INVs (the fixed
        ack-aliasing race) exercised end-to-end: heavy write sharing with
        frequent sync flushes under DSI."""

        def build(b0, b1, ctx):
            lock = seg_addr(0, 4096)
            for round_id in range(8):
                for i in range(4):
                    b0.write(seg_addr(1, i * 32))
                    b1.write(seg_addr(1, i * 32))
                b0.lock(lock)
                b0.unlock(lock)
                b1.lock(lock)
                b1.unlock(lock)
                ctx.barrier_all()

        program = two_proc_program(build)
        for scheme in (IdentifyScheme.STATES, IdentifyScheme.VERSION):
            result = Machine(tiny_config(identify=scheme), program).run()
            assert result.misses.self_invalidations > 0


class TestPinnedSetExhaustion:
    def test_deferred_fill_when_all_ways_pinned(self):
        """Four outstanding upgrades in one set pin every frame; a
        concurrent read fill must defer and complete once a pin drops."""
        config = tiny_config(
            n_procs=2,
            cache_size=4 * 32 * 2,  # 2 sets, 4-way
            cache_assoc=4,
            consistency=Consistency.WC,
        )
        n_sets = 2
        builders = [TraceBuilder(), TraceBuilder()]
        same_set = [seg_addr(1, i * 32 * n_sets) for i in range(5)]
        # Read everything shared first (so writes become upgrades), then
        # upgrade four blocks at once and read a fifth mapping to the set.
        for addr in same_set:
            builders[0].read(addr)
        builders[0].compute(2000)
        for addr in same_set[:4]:
            builders[0].write(addr)
        builders[0].read(same_set[4])
        for builder in builders:
            builder.barrier(0)
        program = Program("pins", [b.build() for b in builders])
        result = Machine(config, program).run()
        # Liveness is the point: the run completes and the read finished.
        assert result.exec_time > 0


class TestVersionWraparound:
    def test_wraparound_is_harmless(self):
        """With a 1-bit version, every second write aliases back to the
        reader's stored version: DSI mis-predicts but stays correct."""

        def build(b0, b1, ctx):
            addr = seg_addr(0)
            for round_id in range(9):
                ctx.barrier_all()
                b0.write(addr)
                ctx.barrier_all()
                b1.read(addr)
            ctx.barrier_all()

        program = two_proc_program(build)
        narrow = Machine(
            tiny_config(identify=IdentifyScheme.VERSION, version_bits=1), program
        ).run()
        wide = Machine(
            tiny_config(identify=IdentifyScheme.VERSION, version_bits=8), program
        ).run()
        # Both finish correctly (monitor on); the narrow version merely
        # marks less (aliased reads look unchanged).
        assert narrow.misses.si_marked_fills <= wide.misses.si_marked_fills

    def test_wide_version_marks_every_round(self):
        def build(b0, b1, ctx):
            addr = seg_addr(0)
            for round_id in range(6):
                ctx.barrier_all()
                b0.write(addr)
                ctx.barrier_all()
                b1.read(addr)
            ctx.barrier_all()

        program = two_proc_program(build)
        result = Machine(
            tiny_config(identify=IdentifyScheme.VERSION, version_bits=8), program
        ).run()
        # Rounds 2.. all mismatch: five marked fills.
        assert result.misses.si_marked_fills == 5


class TestUpgradeRaceEndToEnd:
    def test_competing_upgrades(self):
        """Both processors hold the block shared and upgrade at once: one
        wins, the other is invalidated mid-upgrade and receives data."""

        def build(b0, b1, ctx):
            addr = seg_addr(0)
            ctx.barrier_all()
            b0.read(addr)
            b1.read(addr)
            ctx.barrier_all()
            b0.write(addr)
            b1.write(addr)
            ctx.barrier_all()

        program = two_proc_program(build)
        machine = Machine(tiny_config(), program)
        machine.run()
        # Exactly one exclusive holder at the end.
        block = seg_addr(0) >> 5
        holders = [
            node
            for node, controller in enumerate(machine.controllers)
            if (frame := controller.cache.lookup(block, touch=False)) is not None
            and frame.state == 2
        ]
        assert len(holders) == 1

    def test_upgrade_then_eviction_of_other_sharer(self):
        def build(b0, b1, ctx):
            addr = seg_addr(0)
            ctx.barrier_all()
            b0.read(addr)
            b1.read(addr)
            ctx.barrier_all()
            b0.write(addr)  # upgrade with one remote sharer
            ctx.barrier_all()

        program = two_proc_program(build)
        result = Machine(tiny_config(), program).run()
        assert result.misses.upgrades == 1
        # P0's upgrade waited for P1's invalidation.
        assert result.breakdowns[0].write_inval > 0


class TestFifoOverflowVsWriteGrant:
    """Regression: a stale FIFO entry must not self-invalidate a block whose
    write grant is in flight (hypothesis shrink of overrides4 in
    test_properties.py)."""

    def _program(self):
        a, b, lock = seg_addr(1), seg_addr(2), seg_addr(0, 4096)
        b0 = TraceBuilder()
        b0.read(a).read(b).barrier(0).barrier(1).write(b).read(a).write(b).barrier(2)
        b1 = TraceBuilder()
        b1.barrier(0).lock(lock).unlock(lock).barrier(1).write(b).barrier(2)
        b2 = TraceBuilder()
        b2.read(b).barrier(0).barrier(1).write(a).barrier(2)
        return Program("fifo-race", [b0.build(), b1.build(), b2.build()])

    def test_fifo_overflow_skips_in_flight_write(self):
        """Block B is s-marked and re-requested for writing; the DATA_EX
        fill re-enters B into the 2-entry FIFO, whose overflow pops a stale
        entry for B itself.  The just-granted exclusive copy must survive
        until the write is performed."""
        config = tiny_config(
            n_procs=3,
            identify=IdentifyScheme.VERSION,
            si_mechanism=SIMechanism.FIFO,
            fifo_entries=2,
        )
        result = Machine(config, self._program()).run()
        assert result.exec_time > 0
        # The overflow happened (the FIFO is genuinely too small) ...
        assert result.misses.fifo_overflows > 0
        # ... and every processor's cycles are still fully accounted for.
        for proc, finish in enumerate(result.per_proc_time):
            assert result.breakdowns[proc].total() == finish
