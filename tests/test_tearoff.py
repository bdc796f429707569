"""Tear-off accounting (core/tearoff.py) and the migratory-read
directory path (BEGIN_MIGRATORY_TXN and its acknowledgment handling),
driven through the same fake network as test_directory.py."""

from repro.coherence.variants import ProtocolVariant
from repro.config import Consistency, IdentifyScheme, SystemConfig
from repro.core.identify import make_policy
from repro.core.tearoff import TearoffTracker
from repro.directory.controller import DirectoryController, compiled_dir_table
from repro.directory.state import DIR_EXCLUSIVE, DIR_IDLE, DIR_SHARED
from repro.engine.simulator import Simulator
from repro.network.message import Message, MsgKind


class FakeNetwork:
    def __init__(self):
        self.sent = []

    def send(self, msg, on_injected=None):
        self.sent.append(msg)
        if on_injected is not None:
            on_injected()

    def of_kind(self, kind):
        return [m for m in self.sent if m.kind is kind]

    def last(self):
        return self.sent[-1]


def make_dir(consistency=Consistency.SC, identify=IdentifyScheme.NONE, **over):
    sim = Simulator()
    config = SystemConfig(
        n_processors=4, consistency=consistency, identify=identify, **over
    )
    network = FakeNetwork()
    ctable = compiled_dir_table(ProtocolVariant.from_config(config))
    controller = DirectoryController(
        sim, config, 0, network, make_policy(config), ctable
    )
    return sim, controller, network


def deliver(sim, ctrl, msg):
    ctrl.receive(msg)
    sim.run()


def gets(block, src, version=None):
    return Message(MsgKind.GETS, block, src=src, dst=0, version=version)


def upgrade(block, src):
    return Message(MsgKind.UPGRADE, block, src=src, dst=0)


def inv_ack(block, src, data=None):
    if data is None:
        return Message(MsgKind.INV_ACK, block, src=src, dst=0)
    return Message(
        MsgKind.INV_ACK_DATA, block, src=src, dst=0,
        data=data, dirty=True, carries_data=True,
    )


def wb(block, src, data):
    return Message(
        MsgKind.WB, block, src=src, dst=0, data=data, dirty=True,
        carries_data=True,
    )


class TestTearoffTracker:
    def test_initial_state(self):
        tracker = TearoffTracker()
        assert tracker.count == 0 and not tracker.multi

    def test_one_grant_does_not_set_multi(self):
        tracker = TearoffTracker()
        tracker.on_grant()
        assert tracker.count == 1 and not tracker.multi

    def test_second_grant_sets_multi(self):
        tracker = TearoffTracker()
        tracker.on_grant()
        tracker.on_grant()
        assert tracker.count == 2 and tracker.multi

    def test_multi_sticks_beyond_two(self):
        tracker = TearoffTracker()
        for _ in range(5):
            tracker.on_grant()
        assert tracker.count == 5 and tracker.multi

    def test_exclusive_grant_resets_history(self):
        tracker = TearoffTracker()
        tracker.on_grant()
        tracker.on_grant()
        tracker.on_exclusive_grant()
        assert tracker.count == 0 and not tracker.multi
        # A single new grant after the reset does not resurrect the bit.
        tracker.on_grant()
        assert not tracker.multi


class TestTearoffGrants:
    """Directory-level tear-off: the stale-versioned reader's copy is
    handed out without entering the full map."""

    def make_tearoff_dir(self):
        return make_dir(
            consistency=Consistency.WC,
            identify=IdentifyScheme.VERSION,
            tearoff=True,
        )

    def stale_version(self, ctrl, block):
        return (ctrl.entries[block].version - 1) & ctrl.config.version_mask

    def test_tearoff_reader_not_recorded(self):
        sim, ctrl, net = self.make_tearoff_dir()
        deliver(sim, ctrl, gets(7, src=1))  # creates the entry
        stale = self.stale_version(ctrl, 7)
        deliver(sim, ctrl, gets(7, src=2, version=stale))
        grant = net.last()
        assert grant.kind is MsgKind.DATA and grant.dst == 2
        assert grant.tearoff and grant.si
        entry = ctrl.entries[7]
        assert not entry.has_sharer(2)
        assert entry.tearoff.count == 1 and not entry.tearoff.multi

    def test_two_tearoffs_set_the_multi_bit(self):
        sim, ctrl, net = self.make_tearoff_dir()
        deliver(sim, ctrl, gets(7, src=1))
        stale = self.stale_version(ctrl, 7)
        deliver(sim, ctrl, gets(7, src=2, version=stale))
        deliver(sim, ctrl, gets(7, src=3, version=stale))
        assert ctrl.entries[7].tearoff.multi

    def test_current_version_reader_is_tracked(self):
        sim, ctrl, net = self.make_tearoff_dir()
        deliver(sim, ctrl, gets(7, src=1))
        current = ctrl.entries[7].version
        deliver(sim, ctrl, gets(7, src=2, version=current))
        grant = net.last()
        assert not grant.tearoff and not grant.si
        assert ctrl.entries[7].has_sharer(2)


class TestMigratoryReadPath:
    """A read of a detected-migratory block is served with an exclusive
    copy through a write-kind transaction (BEGIN_MIGRATORY_TXN)."""

    def detected(self):
        """Run the Cox-Fowler detection: 1 writes, 2 reads then writes."""
        sim, ctrl, net = make_dir(migratory=True)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, upgrade(7, src=1))  # last_writer=1, no detection
        deliver(sim, ctrl, gets(7, src=2))
        deliver(sim, ctrl, inv_ack(7, src=1, data=11))
        deliver(sim, ctrl, upgrade(7, src=2))  # sole sharer, other writer
        entry = ctrl.entries[7]
        assert entry.migratory and entry.state == DIR_EXCLUSIVE
        assert entry.owner == 2
        net.sent.clear()
        return sim, ctrl, net

    def test_migratory_read_invalidates_owner_then_grants_exclusive(self):
        sim, ctrl, net = self.detected()
        deliver(sim, ctrl, gets(7, src=3))
        (inv,) = net.of_kind(MsgKind.INV)
        assert inv.dst == 2
        assert ctrl.entries[7].busy
        deliver(sim, ctrl, inv_ack(7, src=2, data=33))
        grant = net.last()
        assert grant.kind is MsgKind.DATA_EX and grant.dst == 3
        assert grant.data == 33
        entry = ctrl.entries[7]
        assert entry.state == DIR_EXCLUSIVE and entry.owner == 3
        assert entry.migratory  # the dirty ack confirms the prediction

    def test_clean_ack_resets_the_prediction(self):
        """The previous owner never wrote its exclusive copy: the block
        is not migratory after all."""
        sim, ctrl, net = self.detected()
        deliver(sim, ctrl, gets(7, src=3))
        deliver(sim, ctrl, inv_ack(7, src=2))  # clean: no data
        entry = ctrl.entries[7]
        assert not entry.migratory
        # The in-flight grant still completes exclusively...
        assert net.last().kind is MsgKind.DATA_EX
        assert entry.owner == 3
        # ...but the next reader goes down the ordinary B_READ path.
        net.sent.clear()
        deliver(sim, ctrl, gets(7, src=1))
        (inv,) = net.of_kind(MsgKind.INV)
        assert inv.dst == 3
        deliver(sim, ctrl, inv_ack(7, src=3, data=44))
        assert net.last().kind is MsgKind.DATA
        assert ctrl.entries[7].state == DIR_SHARED

    def test_idle_migratory_read_grants_exclusive_directly(self):
        """After the owner writes back, the prediction persists and an
        idle-state read is granted exclusively with no invalidation."""
        sim, ctrl, net = self.detected()
        deliver(sim, ctrl, wb(7, src=2, data=55))
        entry = ctrl.entries[7]
        assert entry.state == DIR_IDLE and entry.migratory
        net.sent.clear()
        deliver(sim, ctrl, gets(7, src=3))
        assert not net.of_kind(MsgKind.INV)
        grant = net.last()
        assert grant.kind is MsgKind.DATA_EX and grant.data == 55
        assert ctrl.entries[7].owner == 3

    def test_non_migratory_read_still_shares(self):
        sim, ctrl, net = make_dir(migratory=True)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))
        entry = ctrl.entries[7]
        assert entry.state == DIR_SHARED
        assert entry.sharer_list() == [1, 2]
        assert all(m.kind is MsgKind.DATA for m in net.sent)
