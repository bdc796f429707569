"""Migratory-data optimization (§2's complementary technique) and its
composition with DSI."""


from conftest import seg_addr, tiny_config
from repro.config import Consistency, IdentifyScheme
from repro.memory.cache import EXCLUSIVE
from repro.system import Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program
from repro.workloads import migratory as migratory_workload
from repro.workloads import producer_consumer


def migratory_config(**over):
    return tiny_config(migratory=True, **over)


def read_modify_write_chain(rounds=4, n_procs=3):
    """Each processor in turn reads then writes the same block."""
    builders = [TraceBuilder() for _ in range(n_procs)]
    addr = seg_addr(0)
    barrier_id = 0
    for _round in range(rounds):
        for proc in range(n_procs):
            builders[proc].read(addr)
            builders[proc].write(addr)
            for builder in builders:
                builder.barrier(barrier_id)
            barrier_id += 1
    return Program("rmw", [b.build() for b in builders])


class TestDetection:
    def test_upgrades_vanish_after_detection(self):
        program = read_modify_write_chain()
        base = Machine(tiny_config(n_procs=3), program).run()
        optimized = Machine(migratory_config(n_procs=3), program).run()
        assert base.misses.upgrades > optimized.misses.upgrades
        assert optimized.exec_time < base.exec_time

    def test_read_receives_exclusive_copy(self):
        program = read_modify_write_chain(rounds=3)
        machine = Machine(migratory_config(n_procs=3), program)
        machine.run()
        block = seg_addr(0) >> 5
        entry = machine.directories[0].entries[block]
        assert entry.migratory
        # The last reader-writer holds it exclusive.
        frame = machine.controllers[entry.owner].cache.lookup(block, touch=False)
        assert frame is not None and frame.state == EXCLUSIVE

    def test_not_detected_for_plain_producer_consumer(self):
        """Consumers never write, so the pattern must not trigger."""
        program = producer_consumer(n_procs=3, blocks=4, iterations=4)
        machine = Machine(migratory_config(n_procs=3), program)
        machine.run()
        migratory_entries = [
            entry
            for directory in machine.directories
            for entry in directory.entries.values()
            if entry.migratory
        ]
        assert not migratory_entries

    def test_de_detection_when_reader_does_not_write(self):
        """After detection, a reader that never writes produces a clean
        invalidation acknowledgment, which resets the prediction."""
        builders = [TraceBuilder() for _ in range(3)]
        addr = seg_addr(0)
        barrier_id = 0

        def barrier():
            nonlocal barrier_id
            for builder in builders:
                builder.barrier(barrier_id)
            barrier_id += 1

        # Build the migratory pattern: P0 rmw, P1 rmw.
        builders[0].read(addr).write(addr)
        barrier()
        builders[1].read(addr).write(addr)
        barrier()
        # P2 only READS (gets an exclusive copy but never writes it)...
        builders[2].read(addr)
        barrier()
        # ... then P0 reads: the clean ack from P2 should clear the flag.
        builders[0].read(addr)
        barrier()
        program = Program("dedetect", [b.build() for b in builders])
        machine = Machine(migratory_config(n_procs=3), program)
        machine.run()
        entry = machine.directories[0].entries[addr >> 5]
        assert not entry.migratory

    def test_monitor_clean_with_migratory(self):
        program = migratory_workload(n_procs=3)
        Machine(migratory_config(n_procs=3), program).run()  # raises on violation


class TestComposition:
    def test_migratory_plus_dsi(self):
        """The paper's §2 claim: self-invalidation composes with the
        migratory optimization."""
        program = migratory_workload(n_procs=4, blocks=4, rounds=6)
        base = Machine(tiny_config(n_procs=4), program).run()
        combo = Machine(
            migratory_config(n_procs=4, identify=IdentifyScheme.VERSION), program
        ).run()
        assert combo.misses.upgrades < base.misses.upgrades
        assert combo.misses.self_invalidations > 0
        assert combo.exec_time < base.exec_time

    def test_migratory_under_wc(self):
        program = migratory_workload(n_procs=3)
        result = Machine(
            migratory_config(n_procs=3, consistency=Consistency.WC), program
        ).run()
        assert result.exec_time > 0

    def test_clean_exclusive_eviction_sends_repl(self):
        """A never-written migratory copy is clean: replacement must not
        pretend to write back data."""
        config = migratory_config(n_procs=3, cache_size=256, cache_assoc=1)
        builders = [TraceBuilder() for _ in range(3)]
        addr = seg_addr(0)
        builders[0].read(addr).write(addr)
        for builder in builders:
            builder.barrier(0)
        builders[1].read(addr).write(addr)
        for builder in builders:
            builder.barrier(1)
        builders[2].read(addr)  # exclusive clean copy via migratory grant
        for i in range(1, 9):  # evict it
            builders[2].read(seg_addr(2, i * 256))
        for builder in builders:
            builder.barrier(2)
        program = Program("cleanevict", [b.build() for b in builders])
        machine = Machine(config, program)
        machine.run()
        entry = machine.directories[0].entries[addr >> 5]
        assert entry.owner is None  # the clean REPL cleared ownership
