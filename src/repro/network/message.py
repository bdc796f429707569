"""Coherence protocol messages.

The protocol is a full-map three-state write-invalidate directory protocol
(Dir_n NB); the message vocabulary below covers the base protocol, the
weak-consistency variant (parallel grant + single forwarded acknowledgment)
and the DSI extensions (self-invalidation notifications, version numbers,
tear-off responses).
"""

import enum


class MsgKind(enum.IntEnum):
    # cache -> home directory: requests
    GETS = 0  # read miss: request a shared-readable copy
    GETX = 1  # write miss: request an exclusive copy
    UPGRADE = 2  # write hit on a shared copy: request exclusivity, no data

    # home directory -> cache: responses
    DATA = 3  # shared-readable data
    DATA_EX = 4  # exclusive data
    UPGRADE_ACK = 5  # exclusivity granted without data
    ACK_DONE = 6  # (WC) all invalidation acks collected for an earlier grant

    # home directory -> cache
    INV = 7  # explicit invalidation

    # cache -> home directory
    INV_ACK = 8  # invalidation acknowledged (shared copy)
    INV_ACK_DATA = 9  # invalidation acknowledged with modified data (exclusive copy)
    WB = 10  # replacement writeback of a modified block
    REPL = 11  # replacement notification for a clean block
    SI_NOTIFY = 12  # self-invalidation notification for a tracked block

    # home directory -> cache (Tardis only)
    WB_REQ = 13  # ask the exclusive owner for a timestamped writeback


# Message kinds whose destination is the home directory (everything else
# is delivered to a cache controller).
DIR_BOUND = frozenset(
    (
        MsgKind.GETS,
        MsgKind.GETX,
        MsgKind.UPGRADE,
        MsgKind.INV_ACK,
        MsgKind.INV_ACK_DATA,
        MsgKind.WB,
        MsgKind.REPL,
        MsgKind.SI_NOTIFY,
    )
)


class Message:
    """One protocol message.

    Attributes
    ----------
    kind:
        A :class:`MsgKind`.
    block:
        Block number (byte address >> block_shift).
    src, dst:
        Node ids.
    version:
        Version number accompanying a request (``None`` when the cache had
        no matching tag), or attached to a data response.
    si:
        Response flag: the block is marked for self-invalidation.
    tearoff:
        Response flag: the copy is untracked (tear-off, §3.3).
    inval_wait:
        Response metadata: cycles the directory spent waiting for
        invalidation acknowledgments before it could respond.  This is the
        component the paper reports as read/write *invalidation* time.
    data:
        Write-stamp of the block contents (data-value tracking).
    acks_pending:
        (WC) exclusive grant was sent before invalidations completed; an
        ACK_DONE will follow.
    si_marked:
        Notification flag: the replaced block carried the s bit (drives the
        Idle_SI directory state).
    dirty:
        Notification flag: the invalidated/self-invalidated copy was
        modified (the message carries the data block).
    carries_data:
        The message carries a full cache block (adds 8 injection cycles).
    wts, rts:
        (Tardis) logical write/read timestamps piggybacked on data and
        upgrade responses and on owner writebacks.
    ts:
        (Tardis) requester metadata: the program timestamp on a request,
        and the requester's cached ``wts`` on an UPGRADE (the home grants
        exclusivity without data only when it matches the memory copy).
    txn_id:
        Causal-tracing transaction id (:mod:`repro.obs.causal`): the id of
        the cache-side coherence transaction this message belongs to.
        Requests carry their MSHR's id; responses, INVs triggered by the
        request, the INV acks they provoke and the WC ACK_DONE all echo
        it, so the whole fan-out shares one causal parent.  ``None``
        whenever no instrument is attached (ids are only allocated under
        observation) or the message is not part of a transaction
        (writebacks, replacement notices, SI notifications).
    """

    __slots__ = (
        "kind",
        "block",
        "src",
        "dst",
        "version",
        "si",
        "tearoff",
        "inval_wait",
        "data",
        "acks_pending",
        "si_marked",
        "dirty",
        "carries_data",
        "wts",
        "rts",
        "ts",
        "txn_id",
    )

    def __init__(
        self,
        kind,
        block,
        src,
        dst,
        txn_id=None,
        version=None,
        data=0,
        carries_data=False,
        si=False,
        tearoff=False,
        inval_wait=0,
        acks_pending=False,
        dirty=False,
        si_marked=False,
        wts=0,
        rts=0,
        ts=None,
    ):
        # Parameter order puts what the hot senders pass first, so each
        # builds its message from a short positional prefix.
        self.kind = kind
        self.block = block
        self.src = src
        self.dst = dst
        self.txn_id = txn_id
        self.version = version
        self.data = data
        self.carries_data = carries_data
        self.si = si
        self.tearoff = tearoff
        self.inval_wait = inval_wait
        self.acks_pending = acks_pending
        self.dirty = dirty
        self.si_marked = si_marked
        self.wts = wts
        self.rts = rts
        self.ts = ts

    def __repr__(self):
        flags = []
        if self.si:
            flags.append("si")
        if self.tearoff:
            flags.append("tearoff")
        if self.dirty:
            flags.append("dirty")
        if self.acks_pending:
            flags.append("acks_pending")
        extra = f" [{','.join(flags)}]" if flags else ""
        return (
            f"Message({self.kind.name} blk={self.block} {self.src}->{self.dst}{extra})"
        )
