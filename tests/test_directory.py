"""Directory controller unit tests, driven through a fake network.

Each test pushes messages into the controller and inspects the messages it
emits and the entry state it leaves behind — including the §4.1 state
flavors and the race-handling rules (deferral, late writebacks,
notifications consumed as acknowledgments, stale acks dropped).
"""


from repro.coherence.variants import ProtocolVariant
from repro.config import Consistency, IdentifyScheme, SystemConfig
from repro.core.identify import make_policy
from repro.directory.controller import DirectoryController, compiled_dir_table
from repro.directory.state import (
    DIR_EXCLUSIVE,
    DIR_IDLE,
    DIR_SHARED,
    FLAVOR_PLAIN,
    FLAVOR_S,
    FLAVOR_SI,
    FLAVOR_X,
)
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


def make_dir(consistency=Consistency.SC, identify=IdentifyScheme.NONE, node=0, **over):
    sim = Simulator()
    config = SystemConfig(n_processors=4, consistency=consistency, identify=identify, **over)
    network = FakeNetwork()
    ctable = compiled_dir_table(ProtocolVariant.from_config(config))
    controller = DirectoryController(
        sim, config, node, network, make_policy(config), ctable
    )
    return sim, controller, network


def deliver(sim, controller, msg):
    controller.receive(msg)
    sim.run()


def gets(block, src, version=None):
    return Message(MsgKind.GETS, block, src=src, dst=0, version=version)


def getx(block, src, version=None):
    return Message(MsgKind.GETX, block, src=src, dst=0, version=version)


def upgrade(block, src, version=None):
    return Message(MsgKind.UPGRADE, block, src=src, dst=0, version=version)


def inv_ack(block, src, data=None):
    if data is None:
        return Message(MsgKind.INV_ACK, block, src=src, dst=0)
    return Message(MsgKind.INV_ACK_DATA, block, src=src, dst=0, data=data, dirty=True, carries_data=True)


class TestReads:
    def test_idle_read_responds_immediately(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, gets(7, src=1))
        (msg,) = net.sent
        assert msg.kind is MsgKind.DATA and msg.dst == 1
        entry = ctrl.entries[7]
        assert entry.state == DIR_SHARED and entry.has_sharer(1)

    def test_dir_occupancy_charged(self):
        sim, ctrl, net = make_dir()
        ctrl.receive(gets(7, src=1))
        sim.run()
        assert sim.now == 10  # dir_ctrl_cycles

    def test_shared_read_adds_sharer(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))
        entry = ctrl.entries[7]
        assert entry.sharer_list() == [1, 2]

    def test_exclusive_read_invalidates_owner_first(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=1))
        net.sent.clear()
        deliver(sim, ctrl, gets(7, src=2))
        (inv,) = net.sent
        assert inv.kind is MsgKind.INV and inv.dst == 1
        assert ctrl.entries[7].busy
        deliver(sim, ctrl, inv_ack(7, src=1, data=55))
        data = net.last()
        assert data.kind is MsgKind.DATA and data.dst == 2
        assert data.data == 55  # modified data forwarded
        entry = ctrl.entries[7]
        assert entry.state == DIR_SHARED and not entry.busy

    def test_inval_wait_reported(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=1))
        net.sent.clear()
        ctrl.receive(gets(7, src=2))
        sim.run()
        inv_sent_at = sim.now
        sim.schedule(200, lambda: None)
        sim.run()
        deliver(sim, ctrl, inv_ack(7, src=1, data=0))
        data = net.last()
        assert data.inval_wait == sim.now - inv_sent_at


class TestWrites:
    def test_idle_write_grants_exclusive(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=1))
        (msg,) = net.sent
        assert msg.kind is MsgKind.DATA_EX
        entry = ctrl.entries[7]
        assert entry.state == DIR_EXCLUSIVE and entry.owner == 1

    def test_sc_shared_write_collects_acks_before_grant(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))
        net.sent.clear()
        deliver(sim, ctrl, getx(7, src=3))
        invs = net.of_kind(MsgKind.INV)
        assert {m.dst for m in invs} == {1, 2}
        assert not net.of_kind(MsgKind.DATA_EX)  # not granted yet
        deliver(sim, ctrl, inv_ack(7, src=1))
        assert not net.of_kind(MsgKind.DATA_EX)
        deliver(sim, ctrl, inv_ack(7, src=2))
        assert net.of_kind(MsgKind.DATA_EX)

    def test_wc_shared_write_grants_in_parallel(self):
        sim, ctrl, net = make_dir(consistency=Consistency.WC)
        deliver(sim, ctrl, gets(7, src=1))
        net.sent.clear()
        deliver(sim, ctrl, getx(7, src=2))
        kinds = [m.kind for m in net.sent]
        assert MsgKind.DATA_EX in kinds and MsgKind.INV in kinds
        grant = net.of_kind(MsgKind.DATA_EX)[0]
        assert grant.acks_pending
        deliver(sim, ctrl, inv_ack(7, src=1))
        done = net.last()
        assert done.kind is MsgKind.ACK_DONE and done.dst == 2

    def test_upgrade_of_sole_sharer_grants_without_data(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, gets(7, src=1))
        net.sent.clear()
        deliver(sim, ctrl, upgrade(7, src=1))
        (msg,) = net.sent
        assert msg.kind is MsgKind.UPGRADE_ACK
        assert ctrl.entries[7].owner == 1

    def test_upgrade_from_non_sharer_gets_data(self):
        """The upgrade-invalidation race: the requester lost its copy in
        flight, so the directory answers with a full exclusive block."""
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=2))
        net.sent.clear()
        deliver(sim, ctrl, upgrade(7, src=1))
        deliver(sim, ctrl, inv_ack(7, src=2, data=9))
        grant = net.last()
        assert grant.kind is MsgKind.DATA_EX and grant.dst == 1

    def test_exclusive_write_fetches_data_from_owner(self):
        sim, ctrl, net = make_dir(consistency=Consistency.WC)
        deliver(sim, ctrl, getx(7, src=1))
        net.sent.clear()
        deliver(sim, ctrl, getx(7, src=2))
        (inv,) = net.sent
        assert inv.kind is MsgKind.INV and inv.dst == 1
        deliver(sim, ctrl, inv_ack(7, src=1, data=31))
        grant = net.last()
        assert grant.kind is MsgKind.DATA_EX and grant.data == 31 and not grant.acks_pending


class TestDeferral:
    def test_requests_deferred_while_busy(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))  # starts inval of owner 1
        net.sent.clear()
        deliver(sim, ctrl, gets(7, src=3))  # deferred
        assert not net.sent
        deliver(sim, ctrl, inv_ack(7, src=1, data=0))
        responses = net.of_kind(MsgKind.DATA)
        assert {m.dst for m in responses} == {2, 3}

    def test_deferred_write_runs_after_completion(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))
        deliver(sim, ctrl, getx(7, src=3))  # deferred behind the read
        deliver(sim, ctrl, inv_ack(7, src=1, data=0))
        # read granted to 2, then the deferred write invalidates 2.
        invs = net.of_kind(MsgKind.INV)
        assert invs[-1].dst == 2
        deliver(sim, ctrl, inv_ack(7, src=2))
        assert ctrl.entries[7].owner == 3


class TestRaces:
    def test_late_writeback_read(self):
        """GETS from the current owner means its WB is in flight; the
        directory waits for it, then serves the read from memory."""
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=1))
        net.sent.clear()
        deliver(sim, ctrl, gets(7, src=1))
        assert not net.sent  # waiting for the writeback
        deliver(sim, ctrl, Message(MsgKind.WB, 7, src=1, dst=0, data=77, dirty=True, carries_data=True))
        (data,) = net.of_kind(MsgKind.DATA)
        assert data.dst == 1 and data.data == 77

    def test_replacement_crossing_invalidation(self):
        """A replacement racing with an invalidation is applied but never
        consumed as the acknowledgment: the transaction waits for the real
        INV_ACK (which the cache sends even for the absent copy), so acks
        pair 1:1 with INVs and can never alias across transactions."""
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, getx(7, src=2))  # INV sent to 1
        deliver(sim, ctrl, Message(MsgKind.REPL, 7, src=1, dst=0))  # replacement in flight
        assert not net.of_kind(MsgKind.DATA_EX)  # still waiting for the ack
        assert ctrl.entries[7].busy
        deliver(sim, ctrl, inv_ack(7, src=1))  # cache acks the absent copy
        assert net.of_kind(MsgKind.DATA_EX)
        assert not ctrl.entries[7].busy

    def test_self_invalidation_crossing_invalidation(self):
        """Regression for the ack-aliasing race: node 1's self-invalidation
        crosses an INV in flight to it.  The SI_NOTIFY is applied but the
        transaction must wait for node 1's (data-less) INV_ACK; a
        subsequent transaction's data-carrying ack then pairs with its own
        INV and nothing aliases."""
        sim, ctrl, net = make_dir(identify=IdentifyScheme.VERSION)
        deliver(sim, ctrl, getx(7, src=1))  # node 1 owns, dirty
        net.sent.clear()
        deliver(sim, ctrl, getx(7, src=2))  # txn A: INV -> 1
        assert [m.dst for m in net.of_kind(MsgKind.INV)] == [1]
        # Node 1 self-invalidates before the INV reaches it.
        deliver(
            sim, ctrl,
            Message(MsgKind.SI_NOTIFY, 7, src=1, dst=0, data=5, dirty=True,
                    si_marked=True, carries_data=True),
        )
        assert ctrl.entries[7].busy  # still waiting for node 1's ack
        assert not net.of_kind(MsgKind.DATA_EX)
        # Node 1 wants the block back; deferred behind txn A.
        deliver(sim, ctrl, getx(7, src=1))
        # The INV reaches node 1's (empty) cache: plain acknowledgment.
        deliver(sim, ctrl, inv_ack(7, src=1))
        # txn A completes with node 1's written-back data; txn B (deferred
        # GETX from 1) starts and invalidates node 2.
        (grant_a,) = net.of_kind(MsgKind.DATA_EX)
        assert grant_a.dst == 2 and grant_a.data == 5
        assert [m.dst for m in net.of_kind(MsgKind.INV)] == [1, 2]
        deliver(sim, ctrl, inv_ack(7, src=2, data=9))
        grants = net.of_kind(MsgKind.DATA_EX)
        assert grants[-1].dst == 1 and grants[-1].data == 9
        entry = ctrl.entries[7]
        assert entry.owner == 1 and not entry.busy

    def test_wb_from_new_owner_mid_collection(self):
        """Under WC the grantee may write back before the old sharers'
        acks arrive; the entry must not corrupt."""
        sim, ctrl, net = make_dir(consistency=Consistency.WC)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, getx(7, src=2))  # parallel grant to 2; INV to 1
        deliver(sim, ctrl, Message(MsgKind.WB, 7, src=2, dst=0, data=88, dirty=True, carries_data=True))
        entry = ctrl.entries[7]
        assert entry.owner is None and entry.data == 88
        deliver(sim, ctrl, inv_ack(7, src=1))
        assert net.of_kind(MsgKind.ACK_DONE)
        assert not entry.busy


class TestNotificationFlavors:
    def test_wb_leaves_plain_idle(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, Message(MsgKind.WB, 7, src=1, dst=0, data=1, dirty=True, carries_data=True))
        entry = ctrl.entries[7]
        assert entry.state == DIR_IDLE and entry.idle_flavor == FLAVOR_PLAIN

    def test_si_notify_from_owner_leaves_idle_x(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, getx(7, src=1))
        deliver(
            sim, ctrl,
            Message(MsgKind.SI_NOTIFY, 7, src=1, dst=0, data=1, dirty=True, si_marked=True, carries_data=True),
        )
        entry = ctrl.entries[7]
        assert entry.state == DIR_IDLE and entry.idle_flavor == FLAVOR_X

    def test_si_notify_from_last_sharer_leaves_idle_s(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, Message(MsgKind.SI_NOTIFY, 7, src=1, dst=0, si_marked=True))
        entry = ctrl.entries[7]
        assert entry.state == DIR_IDLE and entry.idle_flavor == FLAVOR_S

    def test_replacement_of_marked_block_leaves_idle_si(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, Message(MsgKind.REPL, 7, src=1, dst=0, si_marked=True))
        entry = ctrl.entries[7]
        assert entry.state == DIR_IDLE and entry.idle_flavor == FLAVOR_SI

    def test_replacement_of_normal_block_leaves_plain_idle(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, Message(MsgKind.REPL, 7, src=1, dst=0))
        assert ctrl.entries[7].idle_flavor == FLAVOR_PLAIN

    def test_partial_replacement_keeps_shared(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))
        deliver(sim, ctrl, Message(MsgKind.REPL, 7, src=1, dst=0))
        entry = ctrl.entries[7]
        assert entry.state == DIR_SHARED and entry.sharer_list() == [2]

    def test_unknown_notification_counted_stale(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, Message(MsgKind.REPL, 7, src=3, dst=0))
        assert ctrl.stale_messages == 1


class TestDSIResponses:
    def test_read_from_exclusive_marks_and_enters_shared_si(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))
        deliver(sim, ctrl, inv_ack(7, src=1, data=0))
        data = net.of_kind(MsgKind.DATA)[0]
        assert data.si
        entry = ctrl.entries[7]
        assert entry.state == DIR_SHARED and entry.shared_si
        # subsequent readers also get marked blocks
        deliver(sim, ctrl, gets(7, src=3))
        assert net.of_kind(MsgKind.DATA)[-1].si

    def test_home_node_never_marked(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES, node=0)
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, gets(7, src=0))  # the home node itself
        deliver(sim, ctrl, inv_ack(7, src=1, data=0))
        data = net.of_kind(MsgKind.DATA)[0]
        assert not data.si

    def test_sc_sole_sharer_upgrade_not_marked(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, upgrade(7, src=1))
        grant = net.of_kind(MsgKind.UPGRADE_ACK)[0]
        assert not grant.si

    def test_wc_sole_sharer_upgrade_marked(self):
        """§4.1: the special case is not needed under weak consistency."""
        sim, ctrl, net = make_dir(consistency=Consistency.WC, identify=IdentifyScheme.STATES)
        deliver(sim, ctrl, gets(7, src=1))
        deliver(sim, ctrl, upgrade(7, src=1))
        grant = net.of_kind(MsgKind.UPGRADE_ACK)[0]
        assert grant.si  # state was Shared -> marked

    def test_version_attached_to_responses(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.VERSION)
        deliver(sim, ctrl, getx(7, src=1))
        grant = net.last()
        assert grant.version == 1  # bumped by the exclusive grant

    def test_version_mismatch_marks_read(self):
        sim, ctrl, net = make_dir(identify=IdentifyScheme.VERSION)
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, Message(MsgKind.WB, 7, src=1, dst=0, data=0, dirty=True, carries_data=True))
        deliver(sim, ctrl, gets(7, src=2, version=0))  # dir version is now 1
        data = net.of_kind(MsgKind.DATA)[0]
        assert data.si

    def test_tearoff_grant_not_tracked(self):
        sim, ctrl, net = make_dir(
            consistency=Consistency.WC, identify=IdentifyScheme.VERSION, tearoff=True
        )
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, Message(MsgKind.WB, 7, src=1, dst=0, data=0, dirty=True, carries_data=True))
        deliver(sim, ctrl, gets(7, src=2, version=0))
        data = net.of_kind(MsgKind.DATA)[0]
        assert data.si and data.tearoff
        entry = ctrl.entries[7]
        assert not entry.has_sharer(2)

    def test_tearoff_write_needs_no_invalidation(self):
        sim, ctrl, net = make_dir(
            consistency=Consistency.WC, identify=IdentifyScheme.VERSION, tearoff=True
        )
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, Message(MsgKind.WB, 7, src=1, dst=0, data=0, dirty=True, carries_data=True))
        deliver(sim, ctrl, gets(7, src=2, version=0))  # tear-off copy to 2
        net.sent.clear()
        deliver(sim, ctrl, getx(7, src=3))
        assert not net.of_kind(MsgKind.INV)
        (grant,) = net.of_kind(MsgKind.DATA_EX)
        assert not grant.acks_pending


class TestDiagnostics:
    def test_busy_entries_reported(self):
        sim, ctrl, net = make_dir()
        deliver(sim, ctrl, getx(7, src=1))
        deliver(sim, ctrl, gets(7, src=2))
        assert "busy" in ctrl.deadlock_diagnostic()
        deliver(sim, ctrl, inv_ack(7, src=1, data=0))
        assert ctrl.deadlock_diagnostic() is None
