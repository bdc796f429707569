"""The per-node cache controller (table-driven).

Bridges three worlds:

* the **processor** (same node, function calls): ``read`` / ``write`` /
  ``sync_write`` / ``drain_wb`` / ``flush_si``;
* the **cache** (tags, LRU, s bits, versions);
* the **network** (requests out, responses/invalidations in; every
  incoming message occupies the controller for ``cache_ctrl_cycles``).

Every *state decision* lives in the declarative transition table built by
:func:`repro.coherence.cache_table.cache_table` for this node's
:class:`~repro.coherence.variants.ProtocolVariant`.  The controller keeps
only the plumbing: message dispatch, MSHR bookkeeping, the write buffer,
fills/evictions, and one bound method per symbolic
:class:`~repro.coherence.events.CacheAction`.  ``_dispatch`` derives the
block's symbolic state (MSHR first — a transaction in flight defines the
transient state — then the frame), asks the table for the row, fires the
single ``protocol_transition`` probe, and executes the row's actions in
order.

Consistency-model behaviour:

* Under **SC** every miss blocks the processor (the ``on_done`` callback
  fires when the transaction completes, carrying the directory's measured
  invalidation wait so the processor can split its stall into the paper's
  read/write "invalidation" vs "other" categories).
* Under **WC** writes flow through the 16-entry coalescing write buffer:
  the processor continues immediately unless the buffer is full.  An entry
  retires when the data has arrived *and* the directory's single forwarded
  acknowledgment (ACK_DONE) is in.  Reads still stall; a read to a block
  with an outstanding write miss waits for the data ("read wb").

DSI behaviour: fills honour the response's ``si``/``tearoff`` flags, the
configured mechanism decides when marked blocks die, and ``flush_si``
implements the synchronization-point flush (tear-off blocks flash-clear in
a single cycle; tracked blocks are walked serially and notified to the
directory, the processor stalling until the last notification is
injected).
"""

from repro.coherence.cache_table import cache_table
from repro.coherence.compile import (
    CACHE_EVENT_INDEX,
    CACHE_EVENTS,
    CACHE_STATE_INDEX,
    CACHE_STATES,
    compile_table,
)
from repro.coherence.diagnostics import cache_diagnostic
from repro.coherence.events import CacheAction as A
from repro.coherence.events import CacheEvent as E
from repro.coherence.events import CacheState as CS
from repro.coherence.variants import ProtocolVariant
from repro.config import Consistency, IdentifyScheme
from repro.core.identify import InvalidationHistory
from repro.core.mechanisms import make_mechanism
from repro.engine.resource import Resource
from repro.errors import ProtocolError
from repro.memory.cache import Cache, EXCLUSIVE, SHARED
from repro.memory.write_buffer import CoalescingWriteBuffer
from repro.network.message import Message, MsgKind

MSHR_READ = 0
MSHR_WRITE = 1
MSHR_UPGRADE = 2

_MSHR_NAMES = {MSHR_READ: "read miss", MSHR_WRITE: "write miss", MSHR_UPGRADE: "upgrade"}

# Integer codes for the compiled dispatch path (repro.coherence.compile):
# states and events are passed as small ints so the hot path indexes dense
# arrays instead of hashing enum members.
_ST_I = CACHE_STATE_INDEX[CS.I]
_ST_S = CACHE_STATE_INDEX[CS.S]
_ST_T = CACHE_STATE_INDEX[CS.T]
_ST_E = CACHE_STATE_INDEX[CS.E]
_ST_IS_D = CACHE_STATE_INDEX[CS.IS_D]
_ST_IM_D = CACHE_STATE_INDEX[CS.IM_D]
_ST_SM_W = CACHE_STATE_INDEX[CS.SM_W]
_ST_SM_WI = CACHE_STATE_INDEX[CS.SM_WI]
_ST_E_A = CACHE_STATE_INDEX[CS.E_A]

_EV_LOAD = CACHE_EVENT_INDEX[E.LOAD]
_EV_STORE = CACHE_EVENT_INDEX[E.STORE]
_EV_SYNC_STORE = CACHE_EVENT_INDEX[E.SYNC_STORE]
_EV_WRITE_AFTER_READ = CACHE_EVENT_INDEX[E.WRITE_AFTER_READ]
_EV_SI_SYNC = CACHE_EVENT_INDEX[E.SI_SYNC]
_EV_SI_OVERFLOW = CACHE_EVENT_INDEX[E.SI_OVERFLOW]
_EV_SC_DROP = CACHE_EVENT_INDEX[E.SC_DROP]
_EV_EVICT = CACHE_EVENT_INDEX[E.EVICT]

#: MsgKind (IntEnum) -> (cache event index, needs frame lookup); list-indexed.
_MSG_EVENTS = [None] * (max(int(kind) for kind in MsgKind) + 1)
for _kind, _event, _needs_frame in (
    (MsgKind.DATA, E.DATA, False),
    (MsgKind.DATA_EX, E.DATA_EX, False),
    (MsgKind.UPGRADE_ACK, E.UPGRADE_ACK, False),
    (MsgKind.ACK_DONE, E.ACK_DONE, False),
    (MsgKind.INV, E.INV, True),
    (MsgKind.WB_REQ, E.WB_REQ, True),
):
    _MSG_EVENTS[_kind] = (CACHE_EVENT_INDEX[_event], _needs_frame)
del _kind, _event, _needs_frame

#: statuses returned to the processor
HIT = "hit"
DONE = "done"
WAIT = "wait"


class Mshr:
    """One outstanding transaction at this cache."""

    __slots__ = (
        "kind",
        "block",
        "on_done",
        "stamp",
        "frame",
        "read_waiters",
        "sync",
        "invalidated",
        "issued_at",
        "acks_pending",
        "pending_write",
        "txn_id",
    )

    def __init__(self, kind, block, on_done=None, stamp=None, frame=None, sync=False):
        self.kind = kind
        self.block = block
        self.on_done = on_done
        self.stamp = stamp
        self.frame = frame  # pinned frame (upgrades only)
        self.read_waiters = []
        self.sync = sync
        self.invalidated = False
        self.issued_at = 0
        self.acks_pending = False
        self.pending_write = None  # (stamp,) write arrived while a read was in flight
        self.txn_id = None  # causal id (allocated only under instrumentation)


class _Ctx:
    """One dispatch's context: the table's guards are lazy properties."""

    __slots__ = ("ctrl", "block", "frame", "mshr", "msg", "stamp", "on_done",
                 "blocking", "sync", "victim", "notices", "inv_data",
                 "lease_reload")

    def __init__(self, ctrl, block, frame=None, mshr=None, msg=None, stamp=None,
                 on_done=None, blocking=False, sync=False, victim=None,
                 notices=None):
        self.ctrl = ctrl
        self.block = block
        self.frame = frame
        self.mshr = mshr
        self.msg = msg
        self.stamp = stamp
        self.on_done = on_done
        self.blocking = blocking  # a blocking store (SC store / sync_write)
        self.sync = sync
        self.victim = victim
        self.notices = notices
        self.inv_data = 0
        self.lease_reload = False  # (Tardis) this dispatch dropped an expired lease

    # Guards ------------------------------------------------------------
    @property
    def frame_valid(self):
        return self.frame is not None and self.frame.valid

    @property
    def dirty(self):
        if self.victim is not None:
            return self.victim.dirty
        return self.frame is not None and self.frame.dirty

    @property
    def pending_write(self):
        return self.mshr is not None and self.mshr.pending_write is not None

    @property
    def wb_full(self):
        return self.ctrl.write_buffer.full

    @property
    def tearoff_grant(self):
        return self.msg.tearoff

    @property
    def acks_pending_grant(self):
        return self.msg.acks_pending

    @property
    def lease_expired(self):
        # (Tardis) the valid leased copy is no longer readable.
        return self.ctrl.pts > self.frame.rts

    @property
    def si_notice_dirty(self):
        # The block self-invalidated, but its dirty notice is still queued
        # behind the flush cost: a racing INV's ack must carry the data.
        notice = self.ctrl._pending_notices.get(self.block)
        return notice is not None and notice.carries_data


class CacheController:
    """Cache + controller + write buffer for one node."""

    def __init__(self, sim, config, node, network, home_map, misses, monitor=None,
                 instrument=None):
        self.sim = sim
        self.config = config
        self.node = node
        self.network = network
        self.home_map = home_map
        self.misses = misses
        self.monitor = monitor
        self.obs = instrument
        self.variant = ProtocolVariant.from_config(config)
        self.table = cache_table(self.variant)
        self.ctable = compiled_cache_table(self.variant)
        # One bound decide per controller: the compiled guard-tree walk, or
        # the original interpreter (``dsi-sim run --no-fastpath``).
        self._decide = (
            self.ctable.decide if config.compiled_dispatch
            else self.ctable.decide_interpreted
        )
        self.cache = Cache(config, node)
        self.resource = Resource(sim, name=f"cc{node}")
        self.mshrs = {}
        # Self-invalidation notices collected but not yet injected into the
        # network (the flush cost delays the send).  A racing INV consumes
        # its block's entry so the dirty data rides the acknowledgment.
        self._pending_notices = {}
        self.write_buffer = (
            CoalescingWriteBuffer(
                config.write_buffer_entries, node=node, instrument=instrument
            )
            if config.consistency is Consistency.WC
            else None
        )
        self.mechanism = (
            make_mechanism(config, self.cache, node=node, instrument=instrument)
            if config.dsi_enabled
            else None
        )
        self._wc = config.consistency is Consistency.WC
        self._send_versions = config.dsi_enabled
        self._deferred_fills = []
        # Cache-side identification (§3.1): mark fills of blocks this cache
        # has seen repeatedly invalidated.
        self.history = (
            InvalidationHistory(config.cache_history_entries, config.cache_inval_threshold)
            if config.identify is IdentifyScheme.CACHE
            else None
        )
        # SC tear-off blocks (§3.3): at most one untracked copy, dropped at
        # the next cache miss (Scheurich's condition).
        self._sc_tearoff = config.sc_tearoff
        self._tearoff_frame = None
        # Tardis: this node's program timestamp.  Reads advance it to the
        # observed copy's wts; writes advance it to the new wts; barriers
        # join it across nodes (Machine wires the hook).
        self._tardis = config.tardis
        self.pts = 0

    # ------------------------------------------------------------------
    # Symbolic state derivation and dispatch
    # ------------------------------------------------------------------
    def symbolic_state(self, block, frame=None, touch=False):
        """The block's symbolic protocol state (diagnostics/tests).

        ``frame`` may be passed by callers that already hold the block's
        frame — the dispatch paths do, so the caller's own LRU touch is
        the only one that happens.
        """
        if frame is None:
            frame = self.cache.lookup(block, touch=touch)
        return self._derive_state(block, frame)

    def _derive_state(self, block, frame):
        mshr = self.mshrs.get(block)
        if mshr is not None:
            if mshr.acks_pending:
                return CS.E_A
            if mshr.kind == MSHR_READ:
                return CS.IS_D
            if mshr.kind == MSHR_WRITE:
                return CS.IM_D
            return CS.SM_WI if mshr.invalidated else CS.SM_W
        return self._frame_state(frame)

    @staticmethod
    def _frame_state(frame):
        """Stable state of a frame (or eviction victim) alone."""
        if frame is None or not getattr(frame, "valid", True):
            return CS.I
        if frame.tearoff:
            return CS.T
        if frame.state == EXCLUSIVE:
            return CS.E
        return CS.S

    def _derive_state_idx(self, block, frame):
        """Integer form of :meth:`_derive_state` for the compiled path."""
        mshr = self.mshrs.get(block)
        if mshr is not None:
            if mshr.acks_pending:
                return _ST_E_A
            kind = mshr.kind
            if kind == MSHR_READ:
                return _ST_IS_D
            if kind == MSHR_WRITE:
                return _ST_IM_D
            return _ST_SM_WI if mshr.invalidated else _ST_SM_W
        if frame is None or not frame.valid:
            return _ST_I
        if frame.tearoff:
            return _ST_T
        if frame.state == EXCLUSIVE:
            return _ST_E
        return _ST_S

    @staticmethod
    def _frame_state_idx(frame):
        """Integer form of :meth:`_frame_state` (frames and victims)."""
        if frame is None or not getattr(frame, "valid", True):
            return _ST_I
        if frame.tearoff:
            return _ST_T
        if frame.state == EXCLUSIVE:
            return _ST_E
        return _ST_S

    def _dispatch(self, event, ctx, state=-1):
        """Derive state, decide on the table row, execute its actions.

        ``event`` and ``state`` are integer indexes into the compiled
        table's event/state spaces (``repro.coherence.compile``); the
        decide binding chose the compiled tree or the interpreter at
        construction time.
        """
        if state < 0:
            ctx.mshr = self.mshrs.get(ctx.block)
            state = self._derive_state_idx(ctx.block, ctx.frame)
        row = self._decide(state, event, ctx)
        if self.obs is not None:
            self.obs.protocol_transition(
                "cache", self.node, ctx.block, row.state_name, row.event_name,
                row.next_name,
            )
        if row.error is not None:
            raise ProtocolError(
                f"cache {self.node}: {row.error} "
                f"(block {ctx.block}, state {row.state_name})"
            )
        for fn in row.fns:
            fn(self, ctx)
        return row.result

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def try_read(self, block):
        """Fast path: perform a read *hit* with no simulated latency beyond
        the hit cost (which the processor folds into computation).  Returns
        False on a miss without issuing anything (mirrors the table's
        READ_HIT rows; misses go through ``read``)."""
        frame = self.cache.lookup(block)
        if frame is None:
            return False
        if self._tardis:
            if frame.state != EXCLUSIVE and self.pts > frame.rts:
                return False  # expired lease: the LOAD path renews it
            self.pts = max(self.pts, frame.wts)
        if self.monitor:
            self.monitor.on_read(self.node, block, frame.data)
        self.misses.read_hits += 1
        return True

    def try_write(self, block, stamp):
        """Fast path: absorb a write that needs no transaction — an
        exclusive hit, or (WC) a coalescing merge into an outstanding
        entry (the table's WRITE_HIT / WB_MERGE rows).  Returns False
        otherwise, issuing nothing."""
        frame = self.cache.lookup(block)
        if frame is not None and frame.state == EXCLUSIVE:
            if self._tardis:
                self._tardis_write_bump(frame)
            self._apply_write(frame, stamp)
            self.misses.write_hits += 1
            return True
        if self._wc:
            mshr = self.mshrs.get(block)
            if mshr is not None:
                if mshr.kind in (MSHR_WRITE, MSHR_UPGRADE):
                    self.write_buffer.merge(block, stamp)
                    mshr.stamp = stamp
                    self.misses.write_hits += 1
                    return True
                if mshr.pending_write is not None:
                    self.write_buffer.merge(block, stamp)
                    mshr.pending_write = (stamp,)
                    self.misses.write_hits += 1
                    return True
        return False

    def read(self, block, on_done):
        """Processor load.  Returns HIT, or WAIT (``on_done(inval_wait,
        reason)`` fires later; reason is "miss" or "read_wb")."""
        frame = self.cache.lookup(block)
        return self._dispatch(_EV_LOAD, _Ctx(self, block, frame=frame, on_done=on_done))

    def write(self, block, stamp, on_done):
        """Processor store.

        SC: returns DONE on an exclusive hit, else WAIT (``on_done`` at
        completion).  WC: returns DONE whenever the write was absorbed
        (hit, coalesced, or buffered); returns WAIT only when the write
        buffer is full, with ``on_done(0, "wb_full")`` firing once the
        write has been accepted.
        """
        frame = self.cache.lookup(block)
        ctx = _Ctx(self, block, frame=frame, stamp=stamp, on_done=on_done,
                   blocking=not self._wc)
        return self._dispatch(_EV_STORE, ctx)

    def sync_write(self, block, stamp, on_done):
        """A swap-like write (lock word): always synchronous, even under
        WC — the processor stalls until the write is globally performed."""
        frame = self.cache.lookup(block)
        ctx = _Ctx(self, block, frame=frame, stamp=stamp, on_done=on_done,
                   blocking=True, sync=True)
        return self._dispatch(_EV_SYNC_STORE, ctx)

    def _wc_write_retry(self, block, stamp, on_done):
        status = self.write(block, stamp, on_done)
        if status == WAIT:
            return  # re-queued on the buffer with the same on_done
        on_done(0, "wb_full")

    def drain_wb(self, on_done):
        """Call ``on_done()`` once the write buffer is empty (immediately
        under SC)."""
        if self.write_buffer is None:
            on_done()
        else:
            self.write_buffer.when_empty(on_done)

    # ------------------------------------------------------------------
    # Self-invalidation
    # ------------------------------------------------------------------
    def flush_si(self, on_done):
        """Self-invalidate marked blocks at a synchronization point."""
        if self.mechanism is None:
            on_done()
            return
        frames = [f for f in self.mechanism.sync_frames() if f.valid and not f.pinned]
        if not frames:
            on_done()
            return
        tearoff_frames = [f for f in frames if f.tearoff]
        tracked = [f for f in frames if not f.tearoff]
        self.misses.bump("self_invalidations", len(frames))
        cost = 1 if tearoff_frames else 0
        cost += len(tracked) * self.config.si_flush_cycles_per_block
        notices = []
        # States are derived up front: a FIFO can list the same frame twice,
        # and the duplicate must replay the same row it matched while valid.
        ordered = [(f, self._frame_state_idx(f)) for f in tearoff_frames + tracked]
        for frame, state in ordered:
            ctx = _Ctx(self, frame.tag, frame=frame, notices=notices)
            self._dispatch(_EV_SI_SYNC, ctx, state=state)
        for msg in notices:
            self._pending_notices[msg.block] = msg
        self.resource.submit(cost, self._flush_send, notices, on_done)

    def _si_notice(self, frame):
        block = frame.tag
        dirty = frame.dirty
        return Message(
            MsgKind.SI_NOTIFY,
            block,
            src=self.node,
            dst=self.home_map.home_of(block),
            data=frame.data,
            si_marked=True,
            dirty=dirty,
            carries_data=dirty,
        )

    def _flush_send(self, notices, on_done):
        # A notice whose registry entry is gone was consumed by a racing
        # INV: its data already rode the acknowledgment.  A FIFO can list
        # the same frame twice, so one batch may hold two notices for one
        # block with only the later one registered — the earlier one must
        # still be sent (the duplicate replays) without evicting it.
        live = []
        for msg in notices:
            current = self._pending_notices.get(msg.block)
            if current is msg:
                del self._pending_notices[msg.block]
                live.append(msg)
            elif current is not None:
                live.append(msg)
        if not live:
            on_done()
            return
        remaining = [len(live)]

        def injected():
            remaining[0] -= 1
            if remaining[0] == 0:
                on_done()

        for msg in live:
            self.network.send(msg, on_injected=injected)

    def _self_invalidate_now(self, frame):
        """FIFO overflow: invalidate one block immediately (no stall).

        The table keeps the copy when its transaction is still in flight
        (the IM_D/SM_W/E_A "keep" rows — the s bit stays set, so the block
        still dies at the next sync-point flush) or when the FIFO entry is
        stale."""
        self._dispatch(_EV_SI_OVERFLOW, _Ctx(self, frame.tag, frame=frame))

    # ------------------------------------------------------------------
    # Outgoing requests
    # ------------------------------------------------------------------
    def _register_mshr(self, mshr, renewal=False):
        """Record an outstanding transaction (one probe span per MSHR)."""
        mshr.issued_at = self.sim.now
        self.mshrs[mshr.block] = mshr
        if self.obs is not None:
            mshr.txn_id = self.obs.alloc_txn()
            self.obs.mshr_open(
                self.node,
                mshr.block,
                _MSHR_NAMES[mshr.kind],
                txn_id=mshr.txn_id,
                blocking=mshr.on_done is not None,
                sync=mshr.sync,
                renewal=renewal,
            )

    def _close_mshr(self, block):
        if self.obs is not None:
            self.obs.mshr_close(self.node, block)

    def _txn_done(self, mshr):
        if self.obs is not None and mshr.txn_id is not None:
            self.obs.txn_done(self.node, mshr.block, mshr.txn_id)

    def _issue(self, kind, block, frame=None, txn=None):
        version = self.cache.stored_version(block) if self._send_versions else None
        msg = Message(
            kind,
            block,
            src=self.node,
            dst=self.home_map.home_of(block),
            version=version,
            txn_id=txn,
        )
        if self._tardis:
            # Requests carry the program timestamp; the upgrade carries its
            # copy's wts (dataless grant iff it matches memory), and a
            # renewal miss the expired copy's retained wts (so the home can
            # score the expiry).
            msg.ts = self.pts
            msg.wts = frame.wts if frame is not None else self.cache.stored_wts(block)
        self.resource.submit(self.config.cache_ctrl_cycles, self.network.send, msg)

    # ------------------------------------------------------------------
    # Incoming messages
    # ------------------------------------------------------------------
    def receive(self, msg):
        self.resource.submit(self.config.cache_ctrl_cycles, self._process, msg)

    def _process(self, msg):
        entry = _MSG_EVENTS[msg.kind]
        if entry is None:
            raise ProtocolError(f"cache {self.node} received unexpected {msg!r}")
        event, needs_frame = entry
        frame = self.cache.lookup(msg.block, touch=False) if needs_frame else None
        self._dispatch(event, _Ctx(self, msg.block, frame=frame, msg=msg))

    def _read_complete(self, mshr, msg, frame):
        if self.monitor:
            self.monitor.on_read(self.node, msg.block, frame.data)
        self._txn_done(mshr)
        if mshr.on_done is not None:
            mshr.on_done(msg.inval_wait, "miss")
        if mshr.pending_write is not None:
            # A WC write arrived while the read was in flight: upgrade now.
            (stamp,) = mshr.pending_write
            ctx = _Ctx(self, msg.block, frame=frame, stamp=stamp)
            self._dispatch(_EV_WRITE_AFTER_READ, ctx,
                           state=self._frame_state_idx(frame))

    def _write_granted(self, mshr, msg, frame):
        if self.monitor and msg.kind is not MsgKind.UPGRADE_ACK:
            self.monitor.on_write(self.node, msg.block, frame.data)
        for waiter in mshr.read_waiters:
            waiter(0, "read_wb")
        mshr.read_waiters = []
        if msg.acks_pending:
            mshr.acks_pending = True
            if self.write_buffer is not None:
                self.write_buffer.mark_data_arrived(msg.block)
            return
        self._write_complete(mshr, msg.inval_wait)

    def _write_complete(self, mshr, inval_wait):
        if self.mshrs.pop(mshr.block, None) is not None:
            self._close_mshr(mshr.block)
        if self.write_buffer is not None and self.write_buffer.get(mshr.block) is not None:
            self.write_buffer.mark_data_arrived(mshr.block)
            self.write_buffer.retire(mshr.block)
        self._txn_done(mshr)
        if mshr.on_done is not None:
            mshr.on_done(inval_wait, "miss")

    def _reply(self, kind, msg, data=0, dirty=False):
        # Acks echo the incoming message's causal id (an INV carries the
        # id of the transaction whose grant is waiting on this ack).
        self.network.send(
            Message(
                kind,
                msg.block,
                src=self.node,
                dst=msg.src,
                data=data,
                dirty=dirty,
                carries_data=dirty,
                txn_id=msg.txn_id,
            )
        )

    # ------------------------------------------------------------------
    # Fills, evictions, writes
    # ------------------------------------------------------------------
    def _apply_write(self, frame, stamp):
        frame.data = stamp
        frame.dirty = True
        if self.monitor:
            self.monitor.on_write(self.node, frame.tag, stamp)

    def _tardis_write_bump(self, frame):
        """Owner write: jump the copy's timestamps past its own lease and
        this node's program time (wts = rts = max(pts, rts + 1))."""
        frame.wts = frame.rts = max(self.pts, frame.rts + 1)
        self.pts = frame.wts

    def _fill(self, block, state, data, version=None, si=False, tearoff=False, dirty=False, then=None):
        if not si and self.history is not None and self.history.should_mark(block):
            # Cache-side identification: this block keeps getting
            # invalidated under us — mark it ourselves.
            si = True
        frame, victim = self.cache.fill(
            block, state, data, version=version, s_bit=si, tearoff=tearoff, dirty=dirty
        )
        if frame is None:
            # Every frame in the set is pinned; retry when a pin releases.
            self._deferred_fills.append(
                (block, state, data, version, si, tearoff, dirty, then)
            )
            return
        if victim is not None:
            self._evict(victim)
        if self.monitor:
            self.monitor.on_fill(self.node, block, state, data, tearoff)
        if self.obs is not None:
            self.obs.cache_fill(
                self.node, block, "E" if state == EXCLUSIVE else "S", si, tearoff
            )
        if tearoff and self._sc_tearoff:
            # SC allows at most one tear-off copy per cache (§3.3).
            self._drop_sc_tearoff()
            self._tearoff_frame = (frame, block)
        if si:
            self._after_si_fill(frame)
        if then is not None:
            then(frame)

    def _drop_sc_tearoff(self):
        """Scheurich's condition: the (single) SC tear-off copy must be
        invalidated at the next cache miss."""
        if self._tearoff_frame is None:
            return
        frame, block = self._tearoff_frame
        self._tearoff_frame = None
        state = (
            _ST_T if frame.valid and frame.tearoff and frame.tag == block else _ST_I
        )
        self._dispatch(_EV_SC_DROP, _Ctx(self, block, frame=frame), state=state)

    def _after_si_fill(self, frame):
        self.misses.bump("si_marked_fills")
        if frame.tearoff:
            self.misses.bump("tearoff_fills")
        overflow = self.mechanism.on_si_fill(frame)
        if overflow is not None:
            self.misses.bump("fifo_overflows")
            self._self_invalidate_now(overflow)

    def retry_deferred_fills(self):
        """Re-attempt fills that found every frame pinned."""
        pending, self._deferred_fills = self._deferred_fills, []
        for block, state, data, version, si, tearoff, dirty, then in pending:
            self._fill(block, state, data, version=version, si=si, tearoff=tearoff, dirty=dirty, then=then)

    def _evict(self, victim):
        ctx = _Ctx(self, victim.block, victim=victim)
        self._dispatch(_EV_EVICT, ctx, state=self._frame_state_idx(victim))

    # ------------------------------------------------------------------
    # Action implementations (one bound method per CacheAction)
    # ------------------------------------------------------------------
    def _act_read_hit(self, ctx):
        if self.monitor:
            self.monitor.on_read(self.node, ctx.block, ctx.frame.data)
        self.misses.bump("read_hits")

    def _act_queue_read_waiter(self, ctx):
        ctx.mshr.read_waiters.append(ctx.on_done)

    def _act_count_read_miss(self, ctx):
        self.misses.bump("read_misses")

    def _act_count_write_miss(self, ctx):
        self.misses.bump("write_misses")

    def _act_drop_sc_tearoff(self, ctx):
        self._drop_sc_tearoff()

    def _act_alloc_mshr_read(self, ctx):
        ctx.mshr = Mshr(MSHR_READ, ctx.block, on_done=ctx.on_done)
        self._register_mshr(ctx.mshr, renewal=ctx.lease_reload)

    def _act_alloc_mshr_write(self, ctx):
        ctx.mshr = Mshr(
            MSHR_WRITE,
            ctx.block,
            on_done=ctx.on_done if ctx.blocking else None,
            stamp=ctx.stamp,
            sync=ctx.sync,
        )
        self._register_mshr(ctx.mshr)

    def _act_pin_alloc_mshr_upgrade(self, ctx):
        mshr = Mshr(
            MSHR_UPGRADE,
            ctx.block,
            on_done=ctx.on_done if ctx.blocking else None,
            stamp=ctx.stamp,
            frame=ctx.frame,
            sync=ctx.sync,
        )
        ctx.frame.pinned = True
        self.misses.bump("upgrades")
        self._register_mshr(mshr)
        ctx.mshr = mshr

    def _act_send_gets(self, ctx):
        self._issue(MsgKind.GETS, ctx.block, txn=ctx.mshr.txn_id)

    def _act_send_getx(self, ctx):
        self._issue(MsgKind.GETX, ctx.block, txn=ctx.mshr.txn_id)

    def _act_send_upgrade(self, ctx):
        self._issue(MsgKind.UPGRADE, ctx.block, frame=ctx.frame,
                    txn=ctx.mshr.txn_id)

    def _act_write_hit(self, ctx):
        self._apply_write(ctx.frame, ctx.stamp)
        self.misses.bump("write_hits")

    def _act_wb_merge(self, ctx):
        self.write_buffer.merge(ctx.block, ctx.stamp)
        ctx.mshr.stamp = ctx.stamp
        self.misses.bump("write_hits")

    def _act_wb_merge_pending(self, ctx):
        self.write_buffer.merge(ctx.block, ctx.stamp)
        ctx.mshr.pending_write = (ctx.stamp,)
        self.misses.bump("write_hits")

    def _act_wb_wait_space(self, ctx):
        block, stamp, on_done = ctx.block, ctx.stamp, ctx.on_done
        self.write_buffer.when_space(
            lambda: self._wc_write_retry(block, stamp, on_done)
        )

    def _act_wb_alloc(self, ctx):
        self.write_buffer.allocate(ctx.block, ctx.stamp, self.sim.now)

    def _act_wb_alloc_pending(self, ctx):
        self.write_buffer.allocate(ctx.block, ctx.stamp, self.sim.now)
        ctx.mshr.pending_write = (ctx.stamp,)
        self.misses.bump("write_misses")

    def _act_invalidate_copy(self, ctx):
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        self.cache.invalidate(ctx.frame)

    def _act_pop_close_mshr(self, ctx):
        ctx.mshr = self.mshrs.pop(ctx.block)
        self._close_mshr(ctx.block)

    def _act_fill_s(self, ctx):
        mshr, msg = ctx.mshr, ctx.msg
        self._fill(
            msg.block,
            SHARED,
            msg.data,
            version=msg.version,
            si=msg.si,
            tearoff=msg.tearoff,
            then=lambda frame: self._read_complete(mshr, msg, frame),
        )

    def _act_fill_e_clean(self, ctx):
        mshr, msg = ctx.mshr, ctx.msg
        self._fill(
            msg.block,
            EXCLUSIVE,
            msg.data,
            version=msg.version,
            si=msg.si,
            dirty=False,
            then=lambda frame: self._read_complete(mshr, msg, frame),
        )

    def _act_fill_e_dirty(self, ctx):
        mshr, msg = ctx.mshr, ctx.msg
        self._fill(
            msg.block,
            EXCLUSIVE,
            mshr.stamp,
            version=msg.version,
            si=msg.si,
            dirty=True,
            then=lambda frame: self._write_granted(mshr, msg, frame),
        )

    def _act_apply_pending_write(self, ctx):
        self._apply_write(ctx.frame, ctx.stamp)

    def _act_wb_retire(self, ctx):
        if self.write_buffer is not None and self.write_buffer.get(ctx.block) is not None:
            self.write_buffer.mark_data_arrived(ctx.block)
            self.write_buffer.retire(ctx.block)

    def _act_unpin(self, ctx):
        ctx.mshr.frame.pinned = False

    def _act_drop_stale_upgrade_copy(self, ctx):
        frame = ctx.mshr.frame
        if frame.valid and frame.tag == ctx.block:
            if self.monitor:
                self.monitor.on_invalidate(self.node, ctx.block)
            self.cache.invalidate(frame)

    def _act_retry_deferred_fills(self, ctx):
        self.retry_deferred_fills()

    def _act_promote_to_exclusive(self, ctx):
        frame = ctx.frame = ctx.mshr.frame
        frame.state = EXCLUSIVE
        frame.version = ctx.msg.version
        if self.monitor:
            self.monitor.on_fill(self.node, ctx.block, EXCLUSIVE, frame.data, False)

    def _act_apply_mshr_write(self, ctx):
        self._apply_write(ctx.frame, ctx.mshr.stamp)

    def _act_mark_si_from_grant(self, ctx):
        if ctx.msg.si:
            self.cache.mark_si(ctx.frame)
            self._after_si_fill(ctx.frame)
        else:
            self.cache.mark_si(ctx.frame, marked=False)

    def _act_write_granted(self, ctx):
        self._write_granted(ctx.mshr, ctx.msg, ctx.frame)

    def _act_write_complete(self, ctx):
        self._write_complete(ctx.mshr, 0)

    def _act_record_inv(self, ctx):
        self.misses.bump("explicit_invalidations")
        if self.history is not None:
            self.history.record(ctx.block)
        # A migratory (clean) exclusive copy acknowledges without data —
        # the directory still holds the current contents.
        ctx.inv_data = ctx.frame.data

    def _act_mark_upgrade_invalidated(self, ctx):
        ctx.mshr.invalidated = True  # the directory will answer with DATA_EX

    def _act_consume_si_notice(self, ctx):
        # The copy died at a self-invalidation whose notice has not left
        # the node yet.  The reply below enters the node->home lane first,
        # so the dirty data must ride it: a dataless ack would complete
        # the home's racing transaction with a stale memory copy, and the
        # late notice would then be dropped as stale — losing the write.
        notice = self._pending_notices.pop(ctx.block)
        ctx.inv_data = notice.data

    def _act_reply_inv_ack(self, ctx):
        self._reply(MsgKind.INV_ACK, ctx.msg)

    def _act_reply_inv_ack_data(self, ctx):
        self._reply(MsgKind.INV_ACK_DATA, ctx.msg, data=ctx.inv_data, dirty=True)

    def _act_si_sync_silent(self, ctx):
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        if self.obs is not None:
            self.obs.cache_self_invalidate(self.node, ctx.block, at_sync=True)
        self.cache.invalidate(ctx.frame)

    def _act_si_sync_notify(self, ctx):
        ctx.notices.append(self._si_notice(ctx.frame))
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        if self.obs is not None:
            self.obs.cache_self_invalidate(self.node, ctx.block, at_sync=True)
        self.cache.invalidate(ctx.frame)

    def _act_si_early_silent(self, ctx):
        self.misses.bump("self_invalidations")
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        if self.obs is not None:
            self.obs.cache_self_invalidate(self.node, ctx.block, at_sync=False)
        self.cache.invalidate(ctx.frame)

    def _act_si_early_notify(self, ctx):
        self.misses.bump("self_invalidations")
        notice = self._si_notice(ctx.frame)
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        if self.obs is not None:
            self.obs.cache_self_invalidate(self.node, ctx.block, at_sync=False)
        self.cache.invalidate(ctx.frame)
        self._pending_notices[ctx.block] = notice
        self.resource.submit(
            self.config.si_flush_cycles_per_block,
            self._send_pending_notice,
            notice,
        )

    def _send_pending_notice(self, notice):
        if self._pending_notices.get(notice.block) is notice:
            del self._pending_notices[notice.block]
            self.network.send(notice)

    def _act_sc_drop_tearoff(self, ctx):
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        if self.obs is not None:
            self.obs.cache_self_invalidate(self.node, ctx.block, at_sync=False)
        self.misses.bump("self_invalidations")
        self.cache.invalidate(ctx.frame)

    # -- Tardis (leased logical timestamps) ----------------------------
    def _act_tardis_read_hit(self, ctx):
        self.pts = max(self.pts, ctx.frame.wts)
        if self.monitor:
            self.monitor.on_read(self.node, ctx.block, ctx.frame.data)
        self.misses.bump("read_hits")

    def _act_tardis_write_hit(self, ctx):
        self._tardis_write_bump(ctx.frame)
        self._apply_write(ctx.frame, ctx.stamp)
        self.misses.bump("write_hits")

    def _act_lease_expire_si(self, ctx):
        # The free self-invalidation: no message, no ack — the copy just
        # stops being readable at this node's program time.  An MSHR
        # allocated later in the same dispatch (the renewal miss) sees
        # ``lease_reload`` and tags its transaction, so causal accounting
        # can attribute the reload stall to the expired lease rather than
        # a cold miss.
        ctx.lease_reload = True
        self.misses.bump("self_invalidations")
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        if self.obs is not None:
            self.obs.lease_expire(self.node, ctx.block)
        self.cache.invalidate(ctx.frame)

    def _act_tardis_fill_s(self, ctx):
        mshr, msg = ctx.mshr, ctx.msg

        def then(frame):
            frame.wts = msg.wts
            frame.rts = msg.rts
            self.pts = max(self.pts, msg.wts)
            self._read_complete(mshr, msg, frame)

        self._fill(msg.block, SHARED, msg.data, then=then)

    def _act_tardis_fill_e(self, ctx):
        mshr, msg = ctx.mshr, ctx.msg

        def then(frame):
            frame.wts = msg.wts
            frame.rts = msg.rts
            self.pts = max(self.pts, msg.wts)
            self._write_granted(mshr, msg, frame)

        self._fill(msg.block, EXCLUSIVE, mshr.stamp, dirty=True, then=then)

    def _act_tardis_apply_upgrade(self, ctx):
        # Runs after PROMOTE_TO_EXCLUSIVE (which set ctx.frame).
        frame, msg = ctx.frame, ctx.msg
        frame.wts = msg.wts
        frame.rts = msg.rts
        self.pts = max(self.pts, msg.wts)
        self._apply_write(frame, ctx.mshr.stamp)

    def _act_tardis_owner_wb(self, ctx):
        frame = ctx.frame
        if self.monitor:
            self.monitor.on_invalidate(self.node, ctx.block)
        self.network.send(
            Message(
                MsgKind.WB,
                ctx.block,
                src=self.node,
                dst=self.home_map.home_of(ctx.block),
                data=frame.data,
                dirty=True,
                carries_data=True,
                wts=frame.wts,
                rts=frame.rts,
                txn_id=ctx.msg.txn_id,
            )
        )
        self.cache.invalidate(frame)

    def _act_drop_stale_wb_req(self, ctx):
        pass  # this node's own writeback is already on its way to the home

    def _act_evict_wb_ts(self, ctx):
        victim = ctx.victim
        if self.monitor:
            self.monitor.on_invalidate(self.node, victim.block)
        self.network.send(
            Message(
                MsgKind.WB,
                victim.block,
                src=self.node,
                dst=self.home_map.home_of(victim.block),
                data=victim.data,
                dirty=True,
                carries_data=True,
                wts=victim.wts,
                rts=victim.rts,
            )
        )

    def _act_evict_count(self, ctx):
        self.misses.bump("replacements")
        if self.obs is not None:
            self.obs.cache_evict(self.node, ctx.victim.block, ctx.victim.dirty)

    def _act_evict_wb(self, ctx):
        victim = ctx.victim
        if self.monitor:
            self.monitor.on_invalidate(self.node, victim.block)
        self.network.send(
            Message(
                MsgKind.WB,
                victim.block,
                src=self.node,
                dst=self.home_map.home_of(victim.block),
                data=victim.data,
                si_marked=victim.s_bit,
                dirty=True,
                carries_data=True,
            )
        )

    def _act_evict_repl(self, ctx):
        victim = ctx.victim
        if self.monitor:
            self.monitor.on_invalidate(self.node, victim.block)
        self.network.send(
            Message(
                MsgKind.REPL,
                victim.block,
                src=self.node,
                dst=self.home_map.home_of(victim.block),
                si_marked=victim.s_bit,
            )
        )

    # ------------------------------------------------------------------
    def deadlock_diagnostic(self):
        return cache_diagnostic(self)


#: CacheAction -> unbound action method, resolved once at import time.
_ACTIONS = {
    action: getattr(CacheController, f"_act_{action.value}")
    for action in A
}

#: variant -> CompiledTable, memoized like cache_table's own cache.
_COMPILED = {}


def compiled_cache_table(variant):
    """The compiled (integer-indexed) form of ``cache_table(variant)``."""
    compiled = _COMPILED.get(variant)
    if compiled is None:
        compiled = compile_table(
            cache_table(variant), CACHE_STATES, CACHE_EVENTS, _Ctx, _ACTIONS
        )
        _COMPILED[variant] = compiled
    return compiled
