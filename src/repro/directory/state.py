"""Directory entry state.

The base protocol has the three states of the paper's Figure 1: Idle,
Shared, Exclusive.  The DSI additional-states scheme (§4.1) refines them:

* ``Shared_SI`` — represented as ``state == DIR_SHARED`` with
  ``shared_si`` set: every subsequent read obtains a self-invalidate block.
* ``Idle_X`` / ``Idle_S`` — idle reached through *self-invalidation* of an
  exclusive / shared copy: ``state == DIR_IDLE`` with ``idle_flavor``.
* ``Idle_SI`` — idle reached through cache *replacement* of a block that
  was marked for self-invalidation.

The version-number scheme instead uses ``version`` (4 bits, wraps) and
``read_ctr`` (a 2-bit shift register of shared grants for the current
version).  Both sets of fields live in every entry; only the active
identification policy reads its own.

Sharers are a bit mask; ``owner`` is the single exclusive holder.
"""

from repro.core.tearoff import TearoffTracker

DIR_IDLE = 0
DIR_SHARED = 1
DIR_EXCLUSIVE = 2

FLAVOR_PLAIN = 0  # plain Idle
FLAVOR_X = 1  # Idle_X: self-invalidated from Exclusive
FLAVOR_S = 2  # Idle_S: self-invalidated from Shared
FLAVOR_SI = 3  # Idle_SI: replacement of a self-invalidate block

_STATE_NAMES = {DIR_IDLE: "Idle", DIR_SHARED: "Shared", DIR_EXCLUSIVE: "Exclusive"}
_FLAVOR_NAMES = {FLAVOR_PLAIN: "", FLAVOR_X: "_X", FLAVOR_S: "_S", FLAVOR_SI: "_SI"}


class DirEntry:
    """One block's directory entry (allocated on first touch)."""

    __slots__ = (
        "state",
        "sharers",
        "owner",
        "idle_flavor",
        "shared_si",
        "last_writer",
        "version",
        "read_ctr",
        "tearoff",
        "data",
        "busy",
        "txn",
        "deferred",
        "migratory",
        "wts",
        "rts",
        "lease",
    )

    def __init__(self):
        self.state = DIR_IDLE
        self.sharers = 0  # bit mask of tracked shared copies
        self.owner = None  # node id of the exclusive holder
        self.idle_flavor = FLAVOR_PLAIN
        self.shared_si = False
        self.last_writer = None
        self.version = 0
        self.read_ctr = 0
        self.tearoff = TearoffTracker()
        self.data = 0  # write-stamp of the memory copy
        self.busy = False  # a transaction is collecting acks
        self.txn = None
        # Requests queued behind the transaction: short and mostly empty,
        # so a list (56 bytes) rather than a deque (760).
        self.deferred = []
        self.migratory = False  # detected read-then-write migration
        self.wts = 0  # (Tardis) logical write timestamp of the memory copy
        self.rts = 0  # (Tardis) latest outstanding read lease
        self.lease = 0  # (Tardis) per-block adaptive lease (0 = use static)

    # ------------------------------------------------------------------
    def sharer_list(self):
        sharers, node, out = self.sharers, 0, []
        while sharers:
            if sharers & 1:
                out.append(node)
            sharers >>= 1
            node += 1
        return out

    def sharer_count(self):
        return bin(self.sharers).count("1")

    def has_sharer(self, node):
        return bool(self.sharers & (1 << node))

    def add_sharer(self, node):
        self.sharers |= 1 << node

    def remove_sharer(self, node):
        self.sharers &= ~(1 << node)

    def state_name(self):
        """Paper-style state name, e.g. ``Shared_SI`` or ``Idle_X``."""
        if self.state == DIR_IDLE:
            return "Idle" + _FLAVOR_NAMES[self.idle_flavor]
        if self.state == DIR_SHARED and self.shared_si:
            return "Shared_SI"
        return _STATE_NAMES[self.state]

    def __repr__(self):
        extra = f" owner={self.owner}" if self.state == DIR_EXCLUSIVE else ""
        if self.state == DIR_SHARED:
            extra = f" sharers={self.sharer_list()}"
        return f"DirEntry({self.state_name()}{extra}, v={self.version})"
