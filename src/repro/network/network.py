"""A constant-latency interconnect with per-node injection contention.

Per the paper's methodology (§5.1): messages experience a 3-cycle injection
overhead (+8 cycles if they carry a cache block), then a constant network
latency (100 cycles by default, 1000 for the slow-network experiments).
Switch contention is not modelled; contention *is* modelled at the network
interfaces (one FIFO injection port per node) and, downstream, at the cache
and directory controllers.

Messages between a cache and its co-resident home directory skip the
network entirely and arrive after ``LOCAL_LATENCY`` (1) cycle; they are
counted separately from network traffic.
"""

from repro.config import INJECT_CYCLES, INJECT_DATA_CYCLES, LOCAL_LATENCY
from repro.engine.resource import Resource
from repro.network.message import DIR_BOUND, MsgKind
from repro.stats.counters import MessageCounters

# Hot-path lookup tables indexed by the (integer) message kind: the enum
# attribute protocol (``msg.kind.name``, ``in`` on a frozenset) costs a
# descriptor call per message, which adds up at ~1 message per 4 events.
_KIND_NAMES = [kind.name for kind in MsgKind]
_IS_DIR_BOUND = [kind in DIR_BOUND for kind in MsgKind]

#: Injection cost of a message that carries a cache block.
_INJECT_BLOCK_CYCLES = INJECT_CYCLES + INJECT_DATA_CYCLES


class Network:
    """Delivers :class:`~repro.network.message.Message` objects between nodes."""

    def __init__(self, sim, config, counters=None, instrument=None):
        self.sim = sim
        self.config = config
        self.counters = counters if counters is not None else MessageCounters()
        self.obs = instrument
        self._network_latency = config.network_latency
        self.interfaces = [
            Resource(sim, name=f"ni{i}", depth_probe=self._ni_probe(i))
            for i in range(config.n_processors)
        ]
        # Delivery sinks, wired by the System after construction.
        self.cache_sinks = [None] * config.n_processors
        self.dir_sinks = [None] * config.n_processors
        # Prebound per-hop callables: every message takes two or three.
        self._schedule = sim.schedule
        self._inject = [ni.submit for ni in self.interfaces]
        self._on_injected = self._injected
        self._on_deliver = self._deliver

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
        src = msg.src
        is_network = src != msg.dst
        self.counters.count(_KIND_NAMES[msg.kind], is_network, msg.carries_data)
        if self.obs is not None:
            self.obs.message_send(msg, is_network)
        if not is_network:
            self._schedule(LOCAL_LATENCY, self._on_deliver, msg)
            if on_injected is not None:
                on_injected()
            return
        cost = _INJECT_BLOCK_CYCLES if msg.carries_data else INJECT_CYCLES
        self._inject[src](cost, self._on_injected, msg, on_injected)

    def _injected(self, msg, on_injected):
        self._schedule(self._network_latency, self._on_deliver, msg)
        if on_injected is not None:
            on_injected()

    def _deliver(self, msg):
        if self.obs is not None:
            self.obs.message_receive(msg, msg.src != msg.dst)
        if _IS_DIR_BOUND[msg.kind]:
            self.dir_sinks[msg.dst].receive(msg)
        else:
            self.cache_sinks[msg.dst].receive(msg)
