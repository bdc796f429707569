"""A constant-latency interconnect with per-node injection contention.

Per the paper's methodology (§5.1): messages experience a 3-cycle injection
overhead (+8 cycles if they carry a cache block), then a constant network
latency (100 cycles by default, 1000 for the slow-network experiments).
Switch contention is not modelled; contention *is* modelled at the network
interfaces (one FIFO injection port per node) and, downstream, at the cache
and directory controllers.

Messages between a cache and its co-resident home directory skip the
network entirely and arrive after ``local_latency`` cycles; they are
counted separately from network traffic.
"""

from repro.engine.resource import Resource
from repro.network.message import DIR_BOUND, MsgKind
from repro.stats.counters import MessageCounters

# Hot-path lookup tables indexed by the (integer) message kind: the enum
# attribute protocol (``msg.kind.name``, ``in`` on a frozenset) costs a
# descriptor call per message, which adds up at ~1 message per 4 events.
_KIND_NAMES = [kind.name for kind in MsgKind]
_IS_DIR_BOUND = [kind in DIR_BOUND for kind in MsgKind]


class Network:
    """Delivers :class:`~repro.network.message.Message` objects between nodes."""

    def __init__(self, sim, config, counters=None, instrument=None):
        self.sim = sim
        self.config = config
        self.counters = counters if counters is not None else MessageCounters()
        self.obs = instrument
        self._local_latency = config.local_latency
        self._inject_cycles = config.inject_cycles
        self._inject_data_cycles = config.inject_data_cycles
        self._network_latency = config.network_latency
        self.interfaces = [
            Resource(sim, name=f"ni{i}", depth_probe=self._ni_probe(i))
            for i in range(config.n_processors)
        ]
        # Delivery sinks, wired by the System after construction.
        self.cache_sinks = [None] * config.n_processors
        self.dir_sinks = [None] * config.n_processors
        self.in_flight = 0

    def _ni_probe(self, node):
        """Injection-queue depth probe for one interface (None when no
        instrument is attached, so the Resource skips the call entirely)."""
        if self.obs is None:
            return None
        return lambda depth: self.obs.ni_queue(node, depth)

    # ------------------------------------------------------------------
    def attach(self, node, cache_sink, dir_sink):
        """Register the message receivers of one node."""
        self.cache_sinks[node] = cache_sink
        self.dir_sinks[node] = dir_sink

    def send(self, msg, on_injected=None):
        """Inject a message (or short-circuit it if intra-node).

        ``on_injected`` fires once the message has left the network
        interface — the point up to which a processor performing
        self-invalidation must stall (§4.2: "messages are injected as
        rapidly as the network can accept them").
        """
        is_network = msg.src != msg.dst
        self.counters.count(_KIND_NAMES[msg.kind], is_network, msg.carries_data)
        if self.obs is not None:
            self.obs.message_send(msg, is_network)
        self.in_flight += 1
        if not is_network:
            self.sim.schedule(self._local_latency, self._deliver, msg)
            if on_injected is not None:
                on_injected()
            return
        cost = self._inject_cycles
        if msg.carries_data:
            cost += self._inject_data_cycles
        self.interfaces[msg.src].submit(cost, self._injected, msg, on_injected)

    def _injected(self, msg, on_injected):
        self.sim.schedule(self.latency(msg.src, msg.dst), self._deliver, msg)
        if on_injected is not None:
            on_injected()

    def latency(self, src, dst):
        """Transit latency between two distinct nodes (constant by default)."""
        return self._network_latency

    def _deliver(self, msg):
        self.in_flight -= 1
        if self.obs is not None:
            self.obs.message_receive(msg, msg.src != msg.dst)
        sinks = self.dir_sinks if _IS_DIR_BOUND[msg.kind] else self.cache_sinks
        sinks[msg.dst].receive(msg)

    # ------------------------------------------------------------------
    def deadlock_diagnostic(self):
        if self.in_flight:
            return f"{self.in_flight} message(s) still in flight"
        return None
