"""The full-map directory controller.

One controller per node; it owns the directory entries of the blocks whose
home is that node.  Every incoming message occupies the controller for
``dir_ctrl_cycles`` (10) cycles — this occupancy, together with the FIFO
queueing in front of it, is the directory contention the paper models.

Every state decision is made by the declarative transition table in
:mod:`repro.coherence.dir_table`: ``_dispatch`` derives the symbolic
directory state (:class:`~repro.coherence.events.DirState`), asks the
table for the first matching guarded row, and runs the row's actions.
What remains here is mechanism — message intake, the transaction slot,
grant/INV message construction, deferred-queue bookkeeping — plus one
``_act_*`` method per :class:`~repro.coherence.events.DirAction`.

Protocol summary
----------------
* **GETS** — Idle/Shared: respond immediately.  Exclusive: invalidate the
  owner, collect the data, then respond (both SC and WC: the data must
  come from the owner).
* **GETX/UPGRADE** — Idle: respond immediately.  Shared: under SC,
  invalidate every sharer, collect all acks, then respond; under WC, grant
  immediately (in parallel with the invalidations) and forward a single
  ACK_DONE to the new owner once all acks arrive.  Exclusive: invalidate
  the owner first (data needed).
* While a transaction is collecting acknowledgments the entry is *busy*
  and later requests for the block are deferred in arrival order.
* Replacement notifications (WB/REPL) and self-invalidation notifications
  (SI_NOTIFY) may race with invalidations.  They are *applied* on arrival
  (owner/sharers dropped, data captured) but never consumed as
  acknowledgment substitutes: a cache acknowledges every INV it receives
  — with INV_ACK even when the copy is already gone — so acknowledgments
  pair one-to-one with invalidations, arrive in INV order on each
  node-pair FIFO, and can never alias across the block's serialized
  transactions.  (Consuming a crossing notification as an ack would let a
  *stale* INV_ACK, still in flight from the previous transaction,
  complete the next transaction early — without the new owner's data.)
  The cache side upholds the matching guarantee: an INV that lands after
  a dirty copy self-invalidated but *before* its SI_NOTIFY left the node
  consumes the queued notice and carries the data on the acknowledgment
  (``CONSUME_SI_NOTICE``) — a dataless ack overtaking the notice would
  complete the racing transaction here with a stale memory copy.

DSI hooks
---------
The response to every miss is classified by the configured identification
policy (:mod:`repro.core.identify`).  The two §4.1 special cases are
applied here: requests from the home node itself are never marked, and —
under SC — an upgrade by the sole sharer is not marked.  When tear-off
mode is on (WC), marked *shared* responses become tear-off blocks: the
requester is not recorded in the full map.
"""

from repro.coherence.compile import (
    DIR_EVENT_INDEX,
    DIR_EVENTS,
    DIR_STATE_INDEX,
    DIR_STATES,
    compile_table,
)
from repro.coherence.diagnostics import directory_diagnostic
from repro.coherence.dir_table import dir_table
from repro.coherence.events import DirAction as A, DirEvent as E, DirState as S
from repro.config import Consistency, IdentifyScheme
from repro.core.mechanisms import make_lease_policy
from repro.directory.state import (
    DIR_EXCLUSIVE,
    DIR_IDLE,
    DIR_SHARED,
    FLAVOR_PLAIN,
    FLAVOR_S,
    FLAVOR_SI,
    FLAVOR_X,
)
from repro.directory.state import DirEntry
from repro.engine.resource import Resource
from repro.errors import ProtocolError
from repro.network.message import Message, MsgKind

_REQUESTS = (E.GETS, E.GETX, E.UPGRADE)
#: span label for the dir_txn_begin probe
_REQ_KIND = {E.GETS: "read", E.GETX: "write", E.UPGRADE: "upgrade"}
#: entry.state -> symbolic stable state
_STATES = {DIR_IDLE: S.IDLE, DIR_SHARED: S.SHARED, DIR_EXCLUSIVE: S.EXCL}

# Integer codes for the compiled dispatch path (repro.coherence.compile).
_ST_B_READ = DIR_STATE_INDEX[S.B_READ]
_ST_B_WRITE = DIR_STATE_INDEX[S.B_WRITE]
_ST_B_WB = DIR_STATE_INDEX[S.B_WB]
_ST_B_WCP = DIR_STATE_INDEX[S.B_WCP]

_EV_LAST_ACK = DIR_EVENT_INDEX[E.LAST_ACK]

#: entry.state (DIR_IDLE/DIR_SHARED/DIR_EXCLUSIVE are 0/1/2) -> state index
_STABLE_IDX = [
    DIR_STATE_INDEX[S.IDLE],
    DIR_STATE_INDEX[S.SHARED],
    DIR_STATE_INDEX[S.EXCL],
]

#: MsgKind (IntEnum) -> table event index; list-indexed, None = not for us.
_MSG_EVENTS = [None] * (max(int(kind) for kind in MsgKind) + 1)
for _kind, _event in (
    (MsgKind.GETS, E.GETS),
    (MsgKind.GETX, E.GETX),
    (MsgKind.UPGRADE, E.UPGRADE),
    (MsgKind.INV_ACK, E.INV_ACK),
    (MsgKind.INV_ACK_DATA, E.INV_ACK_DATA),
    (MsgKind.WB, E.WB),
    (MsgKind.REPL, E.REPL),
    (MsgKind.SI_NOTIFY, E.SI_NOTIFY),
):
    _MSG_EVENTS[_kind] = DIR_EVENT_INDEX[_event]
del _kind, _event

_UNSET = object()


class Transaction:
    """An in-flight invalidation/collection for one block."""

    __slots__ = (
        "kind",
        "msg",
        "decision",
        "upgrade_grant",
        "pending_inv",
        "inv_sent_at",
        "wc_parallel",
        "waiting_wb",
        "migratory_read",
    )

    def __init__(self, kind, msg, decision, upgrade_grant=False):
        self.kind = kind  # "read" | "write"
        self.msg = msg
        self.decision = decision
        self.upgrade_grant = upgrade_grant
        self.pending_inv = set()
        self.inv_sent_at = 0
        self.wc_parallel = False
        self.waiting_wb = False
        self.migratory_read = False  # a read served with an exclusive copy


class _Ctx:
    """Dispatch context: the table's guards are lazy properties over it.

    Classification is *lazy* so that rows whose actions precede it (the
    Cox-Fowler migratory detection) observe the entry exactly as the
    hand-written controller did: probe, detection, then classify.  A
    context built for the internal LAST_ACK event carries the deferred
    transaction's original decision and upgrade flag instead.
    """

    __slots__ = ("ctrl", "entry", "msg", "txn", "targets", "inval_wait",
                 "_decision", "_upgrade_grant")

    def __init__(self, ctrl, entry, msg, txn=None):
        self.ctrl = ctrl
        self.entry = entry
        self.msg = msg
        self.txn = txn
        self.targets = ()
        self.inval_wait = 0
        if txn is not None:
            self._decision = txn.decision
            self._upgrade_grant = txn.upgrade_grant
        else:
            self._decision = _UNSET
            self._upgrade_grant = _UNSET

    @property
    def decision(self):
        if self._decision is _UNSET:
            msg = self.msg
            if msg.kind is MsgKind.GETS:
                self._decision = self.ctrl._classify_read(
                    self.entry, msg.src, msg.version
                )
            else:
                self._decision = self.ctrl._classify_write(
                    self.entry, msg.src, msg.version, self.upgrade_grant
                )
        return self._decision

    @property
    def upgrade_grant(self):
        if self._upgrade_grant is _UNSET:
            self._upgrade_grant = (
                self.msg.kind is MsgKind.UPGRADE
                and self.entry.state == DIR_SHARED
                and self.entry.has_sharer(self.msg.src)
            )
        return self._upgrade_grant

    # -- guards ---------------------------------------------------------
    @property
    def owner_is_requester(self):
        return self.entry.owner == self.msg.src

    @property
    def migratory_predicted(self):
        # Rows using this guard only exist in migratory-variant tables.
        return self.entry.migratory

    @property
    def tearoff_grant(self):
        config = self.ctrl.config
        return bool(self.decision.si and (config.tearoff or config.sc_tearoff))

    @property
    def no_other_sharers(self):
        src = self.msg.src
        return not [n for n in self.entry.sharer_list() if n != src]

    @property
    def from_owner(self):
        return self.msg.src == self.entry.owner

    @property
    def from_pending(self):
        txn = self.entry.txn
        return txn is not None and self.msg.src in txn.pending_inv

    @property
    def from_sharer(self):
        return self.entry.has_sharer(self.msg.src)

    @property
    def carries_data(self):
        return self.msg.carries_data

    @property
    def last_sharer(self):
        return self.entry.sharer_count() == 1

    @property
    def requester_current(self):
        # (Tardis) the upgrader's copy matches the memory copy, so
        # exclusivity can be granted without data.
        return self.msg.wts == self.entry.wts


class DirectoryController:
    """Directory controller for one home node."""

    def __init__(self, sim, config, node, network, policy, ctable, instrument=None):
        self.sim = sim
        self.config = config
        self.node = node
        self.network = network
        self.policy = policy
        self.obs = instrument
        self.resource = Resource(sim, name=f"dir{node}")
        # Prebound for the per-message occupancy (``receive``).
        self._submit = self.resource.submit
        self._dir_cycles = config.dir_ctrl_cycles
        self._on_message = self._process
        self.entries = {}
        self.stale_messages = 0
        self._wc = config.consistency is Consistency.WC
        self._states_scheme = config.identify is IdentifyScheme.STATES
        # The compiled table all of a machine's home nodes share
        # (:func:`compiled_dir_table`).
        self.ctable = ctable
        self._decide = self.ctable.decide
        self.lease_policy = make_lease_policy(config) if config.tardis else None

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------
    def symbolic_state(self, block):
        """Symbolic protocol state of ``block``'s entry."""
        entry = self.entries.get(block)
        if entry is None:
            return S.IDLE
        return self._derive_state(entry)

    @staticmethod
    def _derive_state(entry):
        if entry.busy:
            txn = entry.txn
            if txn.waiting_wb:
                return S.B_WB
            if txn.wc_parallel:
                return S.B_WCP
            if txn.kind == "read":
                return S.B_READ
            return S.B_WRITE
        return _STATES[entry.state]

    # ------------------------------------------------------------------
    # Message intake and table dispatch
    # ------------------------------------------------------------------
    def receive(self, msg):
        """Entry point from the network: queue behind the controller."""
        self._submit(self._dir_cycles, self._on_message, msg)

    def _process(self, msg):
        event = _MSG_EVENTS[msg.kind]
        if event is None:
            raise ProtocolError(
                f"directory {self.node} received unexpected {msg!r}"
            )
        block = msg.block
        entry = self.entries.get(block)
        if entry is None:
            entry = self.entries[block] = DirEntry()
        self._dispatch(event, _Ctx(self, entry, msg))

    def _dispatch(self, event, ctx, state=-1):
        """Derive the state index, pick the compiled row, run its actions.

        A negative ``state`` is derived here, as :meth:`_derive_state`
        does."""
        if state < 0:
            entry = ctx.entry
            if entry.busy:
                txn = entry.txn
                if txn.waiting_wb:
                    state = _ST_B_WB
                elif txn.wc_parallel:
                    state = _ST_B_WCP
                elif txn.kind == "read":
                    state = _ST_B_READ
                else:
                    state = _ST_B_WRITE
            else:
                state = _STABLE_IDX[entry.state]
        row = self._decide(state, event, ctx)
        if self.obs is not None:
            if row.txn_kind is not None:
                self.obs.dir_txn_begin(
                    self.node, ctx.msg.block, row.txn_kind, ctx.msg.src,
                    txn_id=ctx.msg.txn_id,
                )
            self.obs.protocol_transition(
                "dir", self.node, ctx.msg.block,
                row.state_name, row.event_name, row.next_name,
            )
        if row.error is not None:
            raise ProtocolError(
                f"dir {self.node}: {row.error} (block {ctx.msg.block}, "
                f"from node {ctx.msg.src}, state {row.state_name})"
            )
        for fn in row.fns:
            fn(self, ctx)

    # ------------------------------------------------------------------
    # Request actions
    # ------------------------------------------------------------------
    def _act_defer(self, ctx):
        ctx.entry.deferred.append(ctx.msg)

    def _act_clear_migratory(self, ctx):
        ctx.entry.migratory = False

    def _act_detect_migratory(self, ctx):
        # The Cox-Fowler signature: the sole reader of a block last
        # written by someone else now writes it — migration detected.
        # Runs before classification (ctx.decision is still unset here).
        entry = ctx.entry
        if (
            not entry.migratory
            and ctx.upgrade_grant
            and entry.last_writer not in (None, ctx.msg.src)
        ):
            entry.migratory = True

    def _act_begin_read_txn(self, ctx):
        ctx.txn = txn = Transaction("read", ctx.msg, ctx.decision)
        ctx.entry.busy = True
        ctx.entry.txn = txn

    def _act_begin_write_txn(self, ctx):
        ctx.txn = txn = Transaction("write", ctx.msg, ctx.decision)
        ctx.entry.busy = True
        ctx.entry.txn = txn

    def _act_begin_migratory_txn(self, ctx):
        # Serve a read of a detected-migratory block with an *exclusive*
        # copy, eliminating the upgrade the reader would otherwise issue
        # (Cox & Fowler / Stenström et al.; cited as complementary in §2).
        ctx.txn = txn = Transaction("write", ctx.msg, ctx.decision)
        txn.migratory_read = True
        ctx.entry.busy = True
        ctx.entry.txn = txn

    def _act_begin_write_txn_shared(self, ctx):
        entry, msg = ctx.entry, ctx.msg
        ctx.targets = [n for n in entry.sharer_list() if n != msg.src]
        ctx.txn = txn = Transaction("write", msg, ctx.decision, ctx.upgrade_grant)
        txn.pending_inv.update(ctx.targets)
        entry.busy = True
        entry.txn = txn
        txn.inv_sent_at = self.sim.now

    def _act_await_wb(self, ctx):
        # Late-writeback race: the owner's WB is in flight.
        ctx.txn.waiting_wb = True

    def _act_inv_owner(self, ctx):
        entry, txn = ctx.entry, ctx.txn
        txn.pending_inv.add(entry.owner)
        txn.inv_sent_at = self.sim.now
        self._send_inv(ctx.msg.block, entry.owner, ctx.msg.txn_id)

    def _act_inv_sharers(self, ctx):
        for target in ctx.targets:
            self._send_inv(ctx.msg.block, target, ctx.msg.txn_id)

    def _act_grant_read_tearoff(self, ctx):
        self._grant_read(ctx.entry, ctx.msg, ctx.decision, ctx.inval_wait)

    def _act_grant_read_tracked(self, ctx):
        self._grant_read(ctx.entry, ctx.msg, ctx.decision, ctx.inval_wait)

    def _act_grant_write(self, ctx):
        self._grant_write(
            ctx.entry, ctx.msg, ctx.decision, ctx.upgrade_grant, ctx.inval_wait
        )

    def _act_grant_write_parallel(self, ctx):
        # Parallel grant: respond now, forward one ACK_DONE later.
        ctx.txn.wc_parallel = True
        self._grant_write(
            ctx.entry, ctx.msg, ctx.decision, ctx.upgrade_grant,
            ctx.inval_wait, acks_pending=True,
        )

    # ------------------------------------------------------------------
    # Acknowledgment actions
    # ------------------------------------------------------------------
    def _act_process_ack(self, ctx):
        entry, msg = ctx.entry, ctx.msg
        txn = entry.txn
        src = msg.src
        txn.pending_inv.discard(src)
        if self.obs is not None:
            self.obs.inv_acked(self.node, msg.block, src, txn_id=msg.txn_id)
        if msg.carries_data:
            entry.data = msg.data
        elif txn.migratory_read and entry.owner == src:
            # The previous "migratory" owner never wrote its exclusive
            # copy: the prediction was wrong.
            entry.migratory = False
        if entry.owner == src:
            entry.owner = None
        entry.remove_sharer(src)
        if not txn.pending_inv:
            self._dispatch(_EV_LAST_ACK, _Ctx(self, entry, txn.msg, txn=txn))

    def _act_notification_as_ack(self, ctx):
        # Bug-injection row (checker models only): never built into the
        # production tables.
        raise ProtocolError(
            "bug-injection row reached the production directory controller"
        )

    def _act_finish_txn(self, ctx):
        txn = ctx.txn
        ctx.inval_wait = self.sim.now - txn.inv_sent_at
        ctx.entry.busy = False
        ctx.entry.txn = None

    def _act_send_ack_done(self, ctx):
        txn = ctx.txn
        self.network.send(
            Message(MsgKind.ACK_DONE, txn.msg.block, self.node, txn.msg.src, txn.msg.txn_id)
        )
        if self.obs is not None:
            self.obs.dir_txn_end(self.node, txn.msg.block)

    def _act_drain_deferred(self, ctx):
        self._drain_deferred(ctx.entry)

    # ------------------------------------------------------------------
    # Notification actions
    # ------------------------------------------------------------------
    def _act_apply_notification(self, ctx):
        # A notification racing with a busy transaction is applied against
        # the entry's underlying *stable* state: nested dispatch picks the
        # per-kind row (accept data / drop owner / remove sharer / stale).
        entry = ctx.entry
        self._dispatch(
            _MSG_EVENTS[ctx.msg.kind],
            _Ctx(self, entry, ctx.msg),
            state=_STABLE_IDX[entry.state],
        )

    def _act_restart_waiting_request(self, ctx):
        # The awaited writeback arrived: replay the waiting request from
        # scratch (it re-classifies against the updated entry).
        entry = ctx.entry
        request = entry.txn.msg
        entry.busy = False
        entry.txn = None
        self._dispatch(_MSG_EVENTS[request.kind], _Ctx(self, entry, request))
        self._drain_deferred(entry)

    def _act_accept_owner_data(self, ctx):
        entry, msg = ctx.entry, ctx.msg
        entry.data = msg.data
        entry.owner = None
        entry.state = DIR_IDLE
        if msg.kind is MsgKind.SI_NOTIFY:
            entry.idle_flavor = FLAVOR_X
        else:
            entry.idle_flavor = FLAVOR_SI if msg.si_marked else FLAVOR_PLAIN

    def _act_drop_clean_owner(self, ctx):
        entry, msg = ctx.entry, ctx.msg
        entry.owner = None
        entry.state = DIR_IDLE
        entry.idle_flavor = (
            FLAVOR_X if msg.kind is MsgKind.SI_NOTIFY
            else (FLAVOR_SI if msg.si_marked else FLAVOR_PLAIN)
        )

    def _act_remove_sharer(self, ctx):
        ctx.entry.remove_sharer(ctx.msg.src)

    def _act_remove_last_sharer(self, ctx):
        entry, msg = ctx.entry, ctx.msg
        entry.remove_sharer(msg.src)
        entry.state = DIR_IDLE
        entry.shared_si = False
        if msg.kind is MsgKind.SI_NOTIFY:
            entry.idle_flavor = FLAVOR_S
        else:
            entry.idle_flavor = FLAVOR_SI if msg.si_marked else FLAVOR_PLAIN

    def _act_count_stale(self, ctx):
        self.stale_messages += 1

    # ------------------------------------------------------------------
    # Tardis actions (leased logical timestamps)
    # ------------------------------------------------------------------
    def _act_tardis_grant_read(self, ctx):
        entry, msg = ctx.entry, ctx.msg
        # A non-zero wts on a GETS is the requester's expired/lost copy:
        # the renewal tells us whether that self-invalidation was wasted.
        renewed = msg.wts != 0
        changed = renewed and msg.wts != entry.wts
        self.lease_policy.on_read_grant(entry, renewed, changed)
        lease = self.lease_policy.lease_for(entry)
        entry.rts = max(entry.rts, max(msg.ts or 0, entry.wts) + lease)
        self.network.send(
            Message(
                MsgKind.DATA,
                msg.block,
                src=self.node,
                dst=msg.src,
                data=entry.data,
                carries_data=True,
                wts=entry.wts,
                rts=entry.rts,
                txn_id=msg.txn_id,
            )
        )
        if self.obs is not None:
            self.obs.lease_grant(self.node, msg.block, msg.src, lease, renewed, changed)
            self.obs.dir_grant(self.node, msg.block, msg.src, "read", False, False,
                               txn_id=msg.txn_id)
            self.obs.dir_txn_end(self.node, msg.block)

    def _act_tardis_grant_write(self, ctx):
        self._tardis_grant_excl(ctx, upgrade=False)

    def _act_tardis_grant_upgrade(self, ctx):
        self._tardis_grant_excl(ctx, upgrade=True)

    def _tardis_grant_excl(self, ctx, upgrade):
        entry, msg = ctx.entry, ctx.msg
        self.lease_policy.on_write_grant(entry, entry.rts - entry.wts)
        # The write jumps past every outstanding lease: readers keep their
        # (logically earlier) copies, no invalidation needed.
        wts = max(msg.ts or 0, entry.rts + 1)
        entry.wts = entry.rts = wts
        entry.state = DIR_EXCLUSIVE
        entry.owner = msg.src
        entry.last_writer = msg.src
        kind = MsgKind.UPGRADE_ACK if upgrade else MsgKind.DATA_EX
        self.network.send(
            Message(
                kind,
                msg.block,
                src=self.node,
                dst=msg.src,
                data=entry.data,
                carries_data=kind is MsgKind.DATA_EX,
                wts=wts,
                rts=wts,
                txn_id=msg.txn_id,
            )
        )
        if self.obs is not None:
            self.obs.dir_grant(
                self.node, msg.block, msg.src,
                "upgrade" if upgrade else "write", False, False,
                txn_id=msg.txn_id,
            )
            self.obs.dir_txn_end(self.node, msg.block)

    def _act_request_wb(self, ctx):
        self.network.send(
            Message(
                MsgKind.WB_REQ, ctx.msg.block, src=self.node,
                dst=ctx.entry.owner, txn_id=ctx.msg.txn_id,
            )
        )

    def _act_accept_owner_ts(self, ctx):
        entry, msg = ctx.entry, ctx.msg
        entry.data = msg.data
        entry.wts = max(entry.wts, msg.wts)
        entry.rts = max(entry.rts, msg.rts)
        entry.owner = None
        entry.state = DIR_IDLE

    # ------------------------------------------------------------------
    # Classification (the DSI identification hook)
    # ------------------------------------------------------------------
    def _classify_read(self, entry, src, version):
        decision = self.policy.classify_read(entry, src, version)
        if self.config.home_exclusion and src == self.node:
            decision.si = False
        return decision

    def _classify_write(self, entry, src, version, upgrade_grant):
        decision = self.policy.classify_write(entry, src, version)
        if self.config.home_exclusion and src == self.node:
            decision.si = False
        if (
            decision.si
            and not self._wc
            and self.config.sc_upgrade_special_case
            and upgrade_grant
            and entry.sharer_count() == 1
        ):
            # §4.1: an upgrade by the sole sharer would needlessly
            # self-invalidate the exclusive copy under SC.
            decision.si = False
        return decision

    # ------------------------------------------------------------------
    # Grants
    # ------------------------------------------------------------------
    def _grant_read(self, entry, msg, decision, inval_wait):
        requester = msg.src
        tearoff = bool(decision.si and (self.config.tearoff or self.config.sc_tearoff))
        self.policy.on_shared_grant(entry, requester, tearoff)
        if tearoff:
            if entry.state == DIR_EXCLUSIVE and entry.owner is None:
                # The previous owner was just invalidated and the only copy
                # handed out is untracked: the entry is idle.  Idle_X keeps
                # the additional-states scheme marking subsequent requests.
                entry.state = DIR_IDLE
                entry.idle_flavor = FLAVOR_X
        else:
            entry.add_sharer(requester)
            if entry.state != DIR_SHARED:
                entry.state = DIR_SHARED
                entry.idle_flavor = FLAVOR_PLAIN
                entry.shared_si = False
            if decision.si and self._states_scheme:
                entry.shared_si = True  # enter Shared_SI
        # kind, block, src, dst, txn_id, version, data, carries_data, si,
        # tearoff, inval_wait
        self.network.send(
            Message(
                MsgKind.DATA, msg.block, self.node, requester, msg.txn_id,
                entry.version, entry.data, True, decision.si, tearoff, inval_wait,
            )
        )
        if self.obs is not None:
            self.obs.dir_grant(
                self.node, msg.block, requester, "read", bool(decision.si), tearoff,
                txn_id=msg.txn_id,
            )
            self.obs.dir_txn_end(self.node, msg.block)

    def _grant_write(self, entry, msg, decision, upgrade_grant, inval_wait, acks_pending=False):
        requester = msg.src
        self.policy.on_exclusive_grant(entry, requester)
        entry.state = DIR_EXCLUSIVE
        entry.owner = requester
        entry.sharers = 0
        entry.shared_si = False
        entry.idle_flavor = FLAVOR_PLAIN
        entry.last_writer = requester
        kind = MsgKind.UPGRADE_ACK if upgrade_grant else MsgKind.DATA_EX
        # kind, block, src, dst, txn_id, version, data, carries_data, si,
        # tearoff, inval_wait, acks_pending
        self.network.send(
            Message(
                kind, msg.block, self.node, requester, msg.txn_id, entry.version,
                entry.data, kind is MsgKind.DATA_EX, decision.si, False, inval_wait,
                acks_pending,
            )
        )
        if self.obs is not None:
            self.obs.dir_grant(
                self.node, msg.block, requester,
                "upgrade" if upgrade_grant else "write", bool(decision.si), False,
                txn_id=msg.txn_id,
            )
            if not acks_pending:
                self.obs.dir_txn_end(self.node, msg.block)

    def _send_inv(self, block, target, txn=None):
        if self.obs is not None:
            self.obs.inv_sent(self.node, block, target, txn_id=txn)
        self.network.send(Message(MsgKind.INV, block, self.node, target, txn))

    def _drain_deferred(self, entry):
        while entry.deferred and not entry.busy:
            msg = entry.deferred.pop(0)
            self._dispatch(_MSG_EVENTS[msg.kind], _Ctx(self, entry, msg))

    # ------------------------------------------------------------------
    def deadlock_diagnostic(self):
        return directory_diagnostic(self)


#: DirAction -> unbound action method, resolved once at import time.
_ACTIONS = {action: getattr(DirectoryController, f"_act_{action.value}") for action in A}


def _annotate_row(transition, row):
    """Precompute the dir_txn_begin probe label (None = no span starts)."""
    if (
        transition.event in _REQUESTS
        and transition.actions
        and transition.actions[0] is not A.DEFER
    ):
        row.txn_kind = _REQ_KIND[transition.event]


#: one compiled table per variant, shared by every home node
_COMPILED = {}


def compiled_dir_table(variant):
    """The compiled (integer-indexed) form of ``dir_table(variant)``."""
    compiled = _COMPILED.get(variant)
    if compiled is None:
        compiled = compile_table(
            dir_table(variant), DIR_STATES, DIR_EVENTS, _Ctx, _ACTIONS,
            annotate=_annotate_row,
        )
        _COMPILED[variant] = compiled
    return compiled
