"""Micro-benchmarks of the simulator substrates.

These time the building blocks everything else stands on — useful for
spotting performance regressions in the kernel rather than for paper
reproduction.
"""

import gc
import tracemalloc

import pytest

from repro.config import SystemConfig
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator
from repro.memory.cache import Cache, SHARED
from repro.network.message import Message, MsgKind
from repro.network.network import Network
from repro.system import Machine
from repro.harness.configs import workload_args
from repro.trace.builder import TraceBuilder
from repro.workloads import CATALOG, em3d, sparse

KB = 1024


def test_simulator_event_rate(benchmark):
    def run():
        sim = Simulator()
        remaining = [20_000]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        return sim.events_fired

    assert benchmark(run) == 20_000


def test_resource_pipeline(benchmark):
    def run():
        sim = Simulator()
        resource = Resource(sim, "r")
        for _ in range(5_000):
            resource.submit(3, lambda: None)
        sim.run()
        return resource.jobs

    assert benchmark(run) == 5_000


def test_message_hop_rate(benchmark):
    """One remote hop: ``Network.send``, NI injection, transit, delivery,
    and a sink whose ``receive`` queues the message behind a controller
    ``Resource``, as ``DirectoryController.receive`` does."""

    class Sink:
        def __init__(self, sim):
            self.resource = Resource(sim, "dir")
            self.processed = 0

        def receive(self, msg):
            self.resource.submit(10, self._process, msg)

        def _process(self, msg):
            self.processed += 1

    def run():
        sim = Simulator()
        config = SystemConfig(n_processors=4)
        network = Network(sim, config)
        sinks = [Sink(sim) for _ in range(4)]
        for node, sink in enumerate(sinks):
            network.attach(node, sink, sink)
        for i in range(20_000):
            network.send(Message(MsgKind.GETS, i, i % 4, (i + 1) % 4))
        sim.run()
        return sum(sink.processed for sink in sinks)

    assert benchmark(run) == 20_000


def test_cache_hit_rate(benchmark):
    config = SystemConfig(cache_size=64 * KB)
    cache = Cache(config, node=0)
    for block in range(1024):
        cache.fill(block, SHARED, data=0)

    def probe():
        hits = 0
        for block in range(1024):
            if cache.lookup(block) is not None:
                hits += 1
        return hits

    assert benchmark(probe) == 1024


def test_cache_fill_evict_churn(benchmark):
    config = SystemConfig(cache_size=8 * KB)

    def churn():
        cache = Cache(config, node=0)
        evictions = 0
        for block in range(2_000):
            _frame, victim = cache.fill(block, SHARED, data=0)
            if victim is not None:
                evictions += 1
        return evictions

    assert benchmark(churn) > 0


def test_network_message_rate(benchmark):
    class Sink:
        def receive(self, msg):
            pass

    def run():
        sim = Simulator()
        config = SystemConfig(n_processors=4)
        network = Network(sim, config)
        sink = Sink()
        for node in range(4):
            network.attach(node, sink, sink)
        for i in range(5_000):
            network.send(Message(MsgKind.GETS, i, src=i % 4, dst=(i + 1) % 4))
        sim.run()
        return network.counters.total_network()

    assert benchmark(run) == 5_000


def test_trace_generation_rate(benchmark):
    def build():
        builder = TraceBuilder()
        for i in range(20_000):
            builder.compute(3).read(i * 4)
        return builder.build()

    trace = benchmark(build)
    assert len(trace) == 20_000


@pytest.mark.parametrize("n_procs, scale", [(8, "quick"), (32, "quick"), (32, "full")],
                         ids=["8-quick", "32-quick", "32-full"])
@pytest.mark.parametrize("workload", sorted(CATALOG))
def test_workload_generation_rate(benchmark, workload, n_procs, scale):
    """One paper program: at quick scale, the generation cost that
    perfbench's ``setup_s`` includes (8 processors for ``sweep``, 32 for
    ``coherence32``); at full scale, the generator's default arguments."""
    generator, _description = CATALOG[workload]
    args = workload_args(workload, quick=scale == "quick", n_procs=n_procs)
    program = benchmark(generator, **args)
    assert program.n_procs == n_procs


@pytest.mark.parametrize("n_procs", [8, 32])
def test_machine_build_rate(benchmark, n_procs):
    """``Machine`` construction, the other half of perfbench's ``setup_s``:
    one quick ``em3d`` machine, closed at once, as ``sweep`` (8
    processors) and ``coherence32`` (32) build them."""
    program = em3d(**workload_args("em3d", quick=True, n_procs=n_procs))
    config = SystemConfig(n_processors=n_procs, cache_size=16 * KB)

    def build():
        with Machine(config, program) as machine:
            return len(machine.controllers)

    assert benchmark(build) == n_procs


def test_end_to_end_simulation_rate(benchmark):
    """Whole-machine throughput: simulated memory operations per second."""
    program = em3d(n_procs=4, nodes_per_proc=32, iterations=2, private_words=128)
    config = SystemConfig(n_processors=4, cache_size=16 * KB)

    def run():
        return Machine(config, program).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.exec_time > 0
    ops = program.total_ops()
    print(f"\nsimulated {ops} memory operations, {result.events_fired} events")


def test_machine_footprint(benchmark):
    """Host memory of one finished 32-processor ``sparse`` machine at quick
    scale, as tracemalloc counts it: the bytes the machine holds after its
    run, and the bytes left once it is closed and its last reference is
    dropped: about 0, since no reference cycle keeps it for the collector
    (what stays is a few blocks parked in the interpreter's free lists)."""
    program = sparse(**workload_args("sparse", quick=True, n_procs=32))
    config = SystemConfig(n_processors=32, cache_size=16 * KB)
    with Machine(config, program) as machine:  # compile the tables first
        machine.run()
    del machine

    def measure():
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            machine = Machine(config, program)
            machine.run()
            held = tracemalloc.get_traced_memory()[0] - base
            machine.close()
            del machine
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        return held, left

    held, left = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(held_bytes=held, left_bytes=left)
    print(f"\nfinished machine holds {held / 1e6:.2f} MB; "
          f"{left} bytes left after close() and del")
    assert left < held / 10
