"""Machine assembly: wire processors, caches, directories and the network
into one simulated multiprocessor and run a program on it.

This is the main entry point of the library::

    from repro import Machine, SystemConfig, workloads

    program = workloads.em3d(n_procs=32)
    result = Machine(SystemConfig(n_processors=32), program).run()
    print(result.exec_time, result.aggregate_breakdown().as_dict())

A machine is a web of components that call one another back, so it
holds reference cycles.  Code that builds many machines opens each one
with ``with`` (or calls :meth:`Machine.close`), which frees it as soon as
it goes out of scope instead of at the cyclic collector's next pass.
"""

from repro.coherence.variants import ProtocolVariant
from repro.config import BARRIER_LATENCY, SystemConfig
from repro.core.identify import make_policy
from repro.directory.controller import DirectoryController, compiled_dir_table
from repro.engine.simulator import Simulator
from repro.errors import ConfigError, SimulationError
from repro.memory.address import RoundRobinHome, SegmentHome
from repro.network.network import Network
from repro.processor.cpu import Processor, StampSource
from repro.processor.sync import BarrierManager, LockManager
from repro.protocol.controller import CacheController, compiled_cache_table
from repro.protocol.monitor import CoherenceMonitor, TardisMonitor
from repro.stats.counters import MessageCounters, MissCounters
from repro.stats.report import RunResult


class Machine:
    """A complete simulated multiprocessor bound to one program."""

    def __init__(self, config, program, instrument=None):
        if not isinstance(config, SystemConfig):
            raise ConfigError("config must be a SystemConfig")
        if program.n_procs != config.n_processors:
            raise ConfigError(
                f"program has {program.n_procs} processors but the machine is "
                f"configured for {config.n_processors}"
            )
        self.config = config
        self.program = program
        self.sim = Simulator(max_events=config.max_events or None)
        self.counters = MessageCounters()
        self.misses = MissCounters()
        self.instrument = instrument
        if instrument is not None:
            instrument.bind(self.sim, config.n_processors)
        self.network = Network(self.sim, config, self.counters, instrument=instrument)
        if program.home == "segment":
            self.home_map = SegmentHome(config.n_processors, config.block_shift)
        elif program.home == "round-robin":
            self.home_map = RoundRobinHome(config.n_processors)
        else:
            raise ConfigError(f"unknown home policy {program.home!r}")
        if config.check_invariants:
            monitor_cls = TardisMonitor if config.tardis else CoherenceMonitor
            self.monitor = monitor_cls(config)
        else:
            self.monitor = None
        policy = make_policy(config)
        # One protocol variant, and one compiled table per side, for all nodes.
        variant = ProtocolVariant.from_config(config)
        dir_ctable, cache_ctable = compiled_dir_table(variant), compiled_cache_table(variant)
        self.directories = [
            DirectoryController(
                self.sim, config, node, self.network, policy, dir_ctable,
                instrument=instrument,
            )
            for node in range(config.n_processors)
        ]
        self.controllers = [
            CacheController(
                self.sim, config, node, self.network, self.home_map, self.misses,
                cache_ctable, self.monitor, instrument=instrument,
            )
            for node in range(config.n_processors)
        ]
        for node in range(config.n_processors):
            self.network.attach(node, self.controllers[node], self.directories[node])
        self.locks = LockManager()
        self.barrier = BarrierManager(self.sim, config.n_processors, BARRIER_LATENCY)
        if config.tardis:
            # A barrier orders every node's accesses; join pts so no node
            # leaves still reading leases from before a remote's writes.
            # (Locks need no hook: the acquirer's sync write to the lock
            # word jumps its pts past the releaser's.)
            self.barrier.on_release = self._tardis_pts_join
        self.stamps = StampSource()
        self.processors = [
            Processor(
                self.sim,
                config,
                node,
                self.controllers[node],
                program.traces[node],
                self.locks,
                self.barrier,
                self.stamps,
                instrument=instrument,
            )
            for node in range(config.n_processors)
        ]
        self._register_deadlock_hooks()
        self._ran = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def close(self):
        """Cut the machine's internal reference cycles.

        After a completed run, the six back references cut here are the
        only cycles an uninstrumented machine holds, so it is freed by
        reference counting the moment its last reference goes (a run
        that raised may leave more: queued events, MSHR callbacks).
        Read-only use stays possible (:meth:`progress`, the components'
        counters); running does not.  Idempotent.
        """
        self._ran = True
        sim, network = self.sim, self.network
        # 1. deadlock hooks: bound methods of every component, which all
        #    hold the simulator.
        sim._deadlock_hooks.clear()
        # 2. each Resource's prebound completion (a bound method of itself),
        #    and (instrumented) each interface's depth probe, which holds
        #    the network.
        controllers = self.controllers + self.directories
        for resource in network.interfaces + [ctrl.resource for ctrl in controllers]:
            resource._on_finish = resource.depth_probe = None
        # 3. prebound message handlers of the controllers and the network.
        for ctrl in controllers:
            ctrl._on_message = None
        network._on_injected = network._on_deliver = None
        # 4. delivery sinks: the controllers hold the network.
        network.cache_sinks = network.dir_sinks = None
        # 5. the direct-execution batcher points back at its processor.
        for proc in self.processors:
            proc._fast = None
        # 6. (Tardis) the barrier's release hook is a bound method of this
        #    machine.
        self.barrier.on_release = None

    def _tardis_pts_join(self, nodes):
        peak = max(controller.pts for controller in self.controllers)
        for controller in self.controllers:
            controller.pts = peak

    def _register_deadlock_hooks(self):
        sim = self.sim
        for proc in self.processors:
            sim.add_deadlock_hook(proc.deadlock_diagnostic)
        for controller in self.controllers:
            sim.add_deadlock_hook(controller.deadlock_diagnostic)
        for directory in self.directories:
            sim.add_deadlock_hook(directory.deadlock_diagnostic)
        sim.add_deadlock_hook(self.locks.deadlock_diagnostic)
        sim.add_deadlock_hook(self.barrier.deadlock_diagnostic)

    def progress(self):
        """Progress counters: simulated cycles, events fired, trace ops
        retired and trace ops in total.

        Read-only plain int reads, so it never perturbs the simulation.
        A :meth:`~repro.harness.runspec.RunSpec.execute` observer reads
        it after the run (the benchmark's run clock checks that every
        trace op retired).  ``ops_retired`` is the per-processor trace
        index, advanced at quantum boundaries — a retirement proxy,
        exact once the run quiesces.
        """
        return {
            "sim_cycles": self.sim.now,
            "events_fired": self.sim.events_fired,
            "ops_retired": sum(proc.idx for proc in self.processors),
            "ops_total": sum(len(trace.kinds) for trace in self.program.traces),
        }

    def run(self):
        """Run the program to completion; returns a
        :class:`~repro.stats.report.RunResult`."""
        if self._ran:
            raise SimulationError(
                "Machine.run may only be called once, and not after close()"
            )
        self._ran = True
        for proc in self.processors:
            proc.start()
        self.sim.run()
        unfinished = [p.node for p in self.processors if not p.finished]
        if unfinished:
            raise SimulationError(f"processors never finished: {unfinished}")
        if self.instrument is not None:
            # Read-only by contract: consumer layers audit the quiesced
            # machine here (instrumented runs stay bit-identical to bare).
            self.instrument.on_quiesce(self)
        finish_times = [proc.finish_time for proc in self.processors]
        return RunResult(
            label=self.config.describe(),
            workload=self.program.name,
            exec_time=max(finish_times),
            per_proc_time=finish_times,
            breakdowns=[proc.breakdown for proc in self.processors],
            messages=self.counters,
            misses=self.misses,
            events_fired=self.sim.events_fired,
            dir_busy_cycles=sum(d.resource.busy_cycles for d in self.directories),
            ni_busy_cycles=sum(ni.busy_cycles for ni in self.network.interfaces),
        )


def simulate(config, program, instrument=None):
    """Convenience: build a machine, run the program, return the result."""
    with Machine(config, program, instrument=instrument) as machine:
        return machine.run()
