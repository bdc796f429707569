"""Unit tests for the interconnect: timing, ordering, counters."""


from repro.config import SystemConfig
from repro.engine.simulator import Simulator
from repro.network.message import DIR_BOUND, Message, MsgKind
from repro.network.network import Network

KB = 1024


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, msg):
        self.received.append(msg)


def make_network(n=4, **config_overrides):
    sim = Simulator()
    config = SystemConfig(n_processors=n, **config_overrides)
    net = Network(sim, config)
    caches = [Sink() for _ in range(n)]
    dirs = [Sink() for _ in range(n)]
    for node in range(n):
        net.attach(node, caches[node], dirs[node])
    return sim, net, caches, dirs


class TestRouting:
    def test_dir_bound_kinds(self):
        assert MsgKind.GETS in DIR_BOUND
        assert MsgKind.WB in DIR_BOUND
        assert MsgKind.DATA not in DIR_BOUND
        assert MsgKind.INV not in DIR_BOUND

    def test_requests_go_to_directory(self):
        sim, net, caches, dirs = make_network()
        net.send(Message(MsgKind.GETS, 5, src=0, dst=2))
        sim.run()
        assert len(dirs[2].received) == 1
        assert not caches[2].received

    def test_responses_go_to_cache(self):
        sim, net, caches, dirs = make_network()
        net.send(Message(MsgKind.DATA, 5, src=2, dst=0, carries_data=True))
        sim.run()
        assert len(caches[0].received) == 1
        assert not dirs[0].received


class TestTiming:
    def test_remote_latency(self):
        sim, net, caches, dirs = make_network()
        times = []
        dirs[1].receive = lambda msg: times.append(sim.now)
        net.send(Message(MsgKind.GETS, 1, src=0, dst=1))
        sim.run()
        # injection (3) + network latency (100)
        assert times == [103]

    def test_data_injection_overhead(self):
        sim, net, caches, dirs = make_network()
        times = []
        caches[1].receive = lambda msg: times.append(sim.now)
        net.send(Message(MsgKind.DATA, 1, src=0, dst=1, carries_data=True))
        sim.run()
        # injection (3 + 8) + latency (100)
        assert times == [111]

    def test_local_message_short_circuit(self):
        sim, net, caches, dirs = make_network()
        times = []
        dirs[0].receive = lambda msg: times.append(sim.now)
        net.send(Message(MsgKind.GETS, 1, src=0, dst=0))
        sim.run()
        assert times == [1]  # LOCAL_LATENCY only

    def test_injection_contention_serialises(self):
        sim, net, caches, dirs = make_network()
        times = []
        dirs[1].receive = lambda msg: times.append(sim.now)
        for _ in range(3):
            net.send(Message(MsgKind.GETS, 1, src=0, dst=1))
        sim.run()
        assert times == [103, 106, 109]  # NI serialises at 3 cycles each

    def test_fifo_ordering_per_pair(self):
        sim, net, caches, dirs = make_network()
        order = []
        dirs[1].receive = lambda msg: order.append(msg.block)
        net.send(Message(MsgKind.WB, 1, src=0, dst=1, carries_data=True))  # 11-cycle inject
        net.send(Message(MsgKind.GETS, 2, src=0, dst=1))  # 3-cycle inject
        sim.run()
        assert order == [1, 2]  # still FIFO despite unequal injection cost

    def test_on_injected_callback(self):
        sim, net, caches, dirs = make_network()
        injected_at = []
        net.send(
            Message(MsgKind.GETS, 1, src=0, dst=1),
            on_injected=lambda: injected_at.append(sim.now),
        )
        sim.run()
        assert injected_at == [3]

    def test_on_injected_local_immediate(self):
        sim, net, caches, dirs = make_network()
        injected_at = []
        net.send(
            Message(MsgKind.GETS, 1, src=0, dst=0),
            on_injected=lambda: injected_at.append(sim.now),
        )
        assert injected_at == [0]

    def test_configurable_latency(self):
        sim, net, caches, dirs = make_network(network_latency=1000)
        times = []
        dirs[1].receive = lambda msg: times.append(sim.now)
        net.send(Message(MsgKind.GETS, 1, src=0, dst=1))
        sim.run()
        assert times == [1003]


class TestCounters:
    def test_network_vs_local(self):
        sim, net, caches, dirs = make_network()
        net.send(Message(MsgKind.GETS, 1, src=0, dst=1))
        net.send(Message(MsgKind.GETS, 2, src=0, dst=0))
        sim.run()
        assert net.counters.network["GETS"] == 1
        assert net.counters.local["GETS"] == 1
        assert net.counters.total_network() == 1

    def test_invalidation_count(self):
        sim, net, caches, dirs = make_network()
        net.send(Message(MsgKind.INV, 1, src=0, dst=1))
        net.send(Message(MsgKind.INV_ACK, 1, src=1, dst=0))
        sim.run()
        assert net.counters.invalidations() == 1
        assert net.counters.acknowledgments() == 1

    def test_data_blocks_sent(self):
        sim, net, caches, dirs = make_network()
        net.send(Message(MsgKind.DATA, 1, src=0, dst=1, carries_data=True))
        net.send(Message(MsgKind.GETS, 1, src=0, dst=1))
        sim.run()
        assert net.counters.data_blocks_sent == 1


def test_message_repr():
    msg = Message(MsgKind.DATA, 7, src=0, dst=1, si=True, tearoff=True)
    text = repr(msg)
    assert "DATA" in text and "si" in text and "tearoff" in text
