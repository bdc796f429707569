"""The per-node cache: set-associative, LRU, with the DSI extensions.

Beyond a textbook cache this model carries the paper's hardware additions:

* an ``s`` bit per frame marking the block for self-invalidation (§4.2);
* a small version number per frame, retained *after* invalidation together
  with the tag so a subsequent miss can present it to the directory
  (§4.1, version-number scheme);
* a tear-off flag marking untracked copies (§3.3);
* the linked list of s-marked frames used by the selective-flush
  self-invalidation mechanism (modelled as a Python list, which is exactly
  the hardware linked list's behaviour: only marked frames are visited).

State is per-frame: INVALID, SHARED or EXCLUSIVE (the paper's "exclusive"
is writable-and-possibly-dirty, i.e. an M state).

Besides its frames the cache keeps :attr:`Cache.valid_map`, a
``block -> frame`` dict of its valid copies maintained by :meth:`Cache.fill`
and :meth:`Cache.invalidate`, so a lookup is one dict probe.  The frames
stay the state of record: :meth:`Cache.snapshot` and
:meth:`Cache.valid_blocks` walk them, which gives the coherence audit and
the tests a view of the cache independent of the map.
"""

from repro.errors import SimulationError

INVALID = 0
SHARED = 1
EXCLUSIVE = 2

_STATE_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E"}


class CacheFrame:
    """One cache frame (tag + state + DSI metadata).

    The tag and version survive invalidation (``valid = False`` but the tag
    sticks around) — that is what lets the version-number scheme send the
    stale version with the next miss.
    """

    __slots__ = (
        "tag",
        "valid",
        "state",
        "dirty",
        "s_bit",
        "tearoff",
        "version",
        "data",
        "lru",
        "pinned",
        "wts",
        "rts",
    )

    def __init__(self):
        self.tag = -1
        self.valid = False
        self.state = INVALID
        self.dirty = False
        self.s_bit = False
        self.tearoff = False
        self.version = None
        self.data = 0
        self.lru = 0
        self.pinned = False  # an upgrade is outstanding; not evictable
        self.wts = 0  # (Tardis) logical write timestamp of the copy
        self.rts = 0  # (Tardis) lease: readable while pts <= rts

    def state_name(self):
        return _STATE_NAMES[self.state if self.valid else INVALID]

    def __repr__(self):
        return (
            f"CacheFrame(tag={self.tag}, {self.state_name()}"
            f"{', s' if self.s_bit else ''}{', tearoff' if self.tearoff else ''})"
        )


class Victim:
    """What got evicted to make room for a fill."""

    __slots__ = ("block", "state", "dirty", "s_bit", "tearoff", "data", "wts", "rts")

    def __init__(self, frame):
        self.block = frame.tag
        self.state = frame.state
        self.dirty = frame.dirty
        self.s_bit = frame.s_bit
        self.tearoff = frame.tearoff
        self.data = frame.data
        self.wts = frame.wts
        self.rts = frame.rts


class LazySets:
    """Cache sets materialized on first touch.

    Workloads touch a small fraction of the index space (a few hundred of
    2048 sets at the paper's scale), so frames are created per-set on the
    first access instead of eagerly — at 32 processors that turns ~260k
    ``CacheFrame`` constructions per run into a few thousand.  An
    untouched set is indistinguishable from an all-invalid one: indexing
    materializes it on demand, while iteration (tests, the coherence
    audit) visits only materialized sets in index order — untouched sets
    hold no valid frames, so nothing is missed.  Hits never index the sets
    (they go through :attr:`Cache.valid_map`); the tag-history probes read
    the backing ``_sets`` dict and treat absence as all-invalid without
    materializing.
    """

    __slots__ = ("_sets", "_n_sets", "_assoc")

    def __init__(self, n_sets, assoc):
        self._sets = {}
        self._n_sets = n_sets
        self._assoc = assoc

    def __len__(self):
        return self._n_sets

    def __getitem__(self, set_idx):
        frames = self._sets.get(set_idx)
        if frames is None:
            frames = self._sets[set_idx] = [CacheFrame() for _ in range(self._assoc)]
        return frames

    def __iter__(self):
        sets = self._sets
        return iter([sets[set_idx] for set_idx in sorted(sets)])


class Cache:
    """A 4-way (configurable) set-associative LRU cache."""

    def __init__(self, config, node):
        self.node = node
        self.n_sets = config.n_sets
        self.assoc = config.cache_assoc
        self.sets = LazySets(self.n_sets, self.assoc)
        self._sets_map = self.sets._sets  # direct dict view for tag probes
        self._clock = 0
        # block -> frame for every valid copy.  Well defined because a tag
        # lives in at most one frame of its set: ``fill`` reuses the frame
        # that already holds it.
        self.valid_map = {}
        # Frames currently holding s-marked valid blocks — the hardware
        # linked list of §4.2, modelled as an insertion-ordered dict (a
        # plain set would iterate in id() order, making runs
        # irreproducible and unlike the hardware).
        self.si_frames = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, block, touch=True):
        """Return the valid frame holding ``block``, or None on a miss.

        One probe of :attr:`valid_map`; ``touch`` makes the frame the most
        recently used of its set.
        """
        frame = self.valid_map.get(block)
        if frame is not None and touch:
            self._clock += 1
            frame.lru = self._clock
        return frame

    def stored_version(self, block):
        """Version retained with a matching tag (valid or not), else None."""
        frames = self._sets_map.get(block % self.n_sets)
        if frames is None:
            return None
        for frame in frames:
            if frame.tag == block:
                return frame.version
        return None

    def stored_wts(self, block):
        """(Tardis) write timestamp retained with a matching tag, else 0.

        Like the version number, ``wts`` survives invalidation: a renewal
        miss presents the expired copy's ``wts`` so the home can tell a
        wasted expiry (block unchanged) from a justified one."""
        frames = self._sets_map.get(block % self.n_sets)
        if frames is None:
            return 0
        for frame in frames:
            if frame.tag == block:
                return frame.wts
        return 0

    # ------------------------------------------------------------------
    # Fill / evict
    # ------------------------------------------------------------------
    def fill(self, block, state, data, version=None, s_bit=False, tearoff=False, dirty=False):
        """Install ``block``; returns ``(frame, victim_or_None)``.

        Returns ``(None, None)`` if every frame in the set is pinned by an
        outstanding transaction (the caller must retry later).
        """
        # One pass picks the frame already holding this tag (keeps history
        # compact), else the LRU invalid unpinned frame (no eviction; among
        # several, the least recently used, because recently invalidated
        # frames keep their tag+version history alive for the
        # version-number scheme), else the LRU unpinned frame.
        target = invalid = oldest = None
        for frame in self.sets[block % self.n_sets]:
            if frame.tag == block:
                target = frame
                break
            if frame.pinned:
                continue
            if not frame.valid:
                if invalid is None or frame.lru < invalid.lru:
                    invalid = frame
            elif oldest is None or frame.lru < oldest.lru:
                oldest = frame
        if target is None:
            target = invalid if invalid is not None else oldest
            if target is None:
                return None, None
        victim = None
        if target.valid:
            if target.tag == block:
                raise SimulationError(f"fill of block {block} already valid in cache {self.node}")
            victim = Victim(target)
            self._drop_si(target)
            del self.valid_map[target.tag]
        target.tag = block
        target.valid = True
        target.state = state
        target.dirty = dirty
        target.data = data
        target.version = version
        target.tearoff = tearoff
        target.s_bit = s_bit
        self._clock += 1
        target.lru = self._clock
        if s_bit:
            self.si_frames[target] = None
        self.valid_map[block] = target
        return target, victim

    def invalidate(self, frame, keep_version=True):
        """Drop a copy (explicit INV, replacement, or self-invalidation).

        The tag — and, per the version-number scheme, the version — remain
        in the frame so a later miss can present the stale version.
        """
        self._drop_si(frame)
        if frame.valid:
            del self.valid_map[frame.tag]
        frame.valid = False
        frame.state = INVALID
        frame.dirty = False
        frame.tearoff = False
        # Note: ``pinned`` is left alone — the cache controller manages pins
        # (an upgrade MSHR keeps its frame reserved across an invalidation).
        if not keep_version:
            frame.version = None

    def mark_si(self, frame, marked=True):
        """Set/clear the s bit, maintaining the selective-flush list."""
        if marked and frame.valid:
            frame.s_bit = True
            self.si_frames[frame] = None
        else:
            self._drop_si(frame)

    def _drop_si(self, frame):
        if frame.s_bit:
            frame.s_bit = False
            self.si_frames.pop(frame, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def valid_blocks(self):
        """{block: frame} for every valid copy (test/monitor helper)."""
        return {
            frame.tag: frame
            for cache_set in self.sets
            for frame in cache_set
            if frame.valid
        }

    def snapshot(self):
        """{block: (state letter, dirty, s bit, tearoff)} for every valid
        copy — a plain-value view used by the quiesce-time coherence audit
        (:func:`repro.obs.audit.audit_coherence`) to diff directory state
        against actual cache contents."""
        return {
            frame.tag: (frame.state_name(), frame.dirty, frame.s_bit, frame.tearoff)
            for cache_set in self.sets
            for frame in cache_set
            if frame.valid
        }

    def occupancy(self):
        return sum(1 for s in self.sets for f in s if f.valid)
