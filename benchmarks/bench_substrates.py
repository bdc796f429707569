"""Micro-benchmarks of the simulator substrates.

These time the building blocks everything else stands on — useful for
spotting performance regressions in the kernel rather than for paper
reproduction.
"""

from repro.config import SystemConfig
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator
from repro.memory.cache import Cache, SHARED
from repro.network.message import Message, MsgKind
from repro.network.network import Network
from repro.system import Machine
from repro.trace.builder import TraceBuilder
from repro.workloads import em3d

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
