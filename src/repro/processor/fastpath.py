"""Direct execution: retire runs of plain cache hits outside the engine.

The Wisconsin Wind Tunnel got its speed from direct execution — the
overwhelming majority of memory accesses (private/valid hits) never enter
the discrete-event core.  This module is that idea for the trace-driven
processor: a :class:`FastPath` classifies a large *window* of upcoming
trace ops against the cache's vectorized tag snapshot
(:attr:`repro.memory.cache.Cache.tag_read` / ``tag_write``) with one
numpy compare, resolving each op to its cache frame up front, then
retires eligible runs in a tight loop that applies exactly the side
effects of the interpreted hit path (LRU touch, write stamps, hit
counters, compute time).  Each retirement checks the op's per-set
generation counter (:attr:`~repro.memory.cache.Cache.set_gens`, bumped
on every eligibility change): an unchanged set means the classification
is still exact and the op retires with a single integer compare.  A
changed set falls back to re-verifying the resolved frame
(tag/valid/s-bit/tear-off/state) and *heals* entries whose block moved
to another way, so a window survives fills and invalidations instead of
being rebuilt per miss — windows are rebuilt only when the processor
walks past their end.

Equivalence contract (proved run-for-run by
:mod:`repro.harness.equivalence`): the batcher must be invisible in the
:class:`~repro.stats.record.RunRecord`.  Concretely:

* **Eligibility** — an op is retired only when the interpreted loop's
  ``try_read`` / ``try_write`` would succeed *and* touch no DSI
  machinery: the block's frame is valid, unmarked (no s bit), not a
  tear-off copy, and — for writes — EXCLUSIVE.  Everything else
  (misses, marked blocks, WC write-buffer merges, sync ops) hands off
  to the unchanged scalar loop, which is the interpreted loop.
* **Scheduling** — the processor's bounded lookahead re-enters the
  event queue once per quantum.  The batcher finds the first quantum
  boundary arithmetically (a bisection of the window's cost
  prefix-sums) and schedules the *same* wakeup, at the same cycle, with
  the same gap-charged carry state, that the interpreted loop would —
  ``events_fired`` and every event timestamp are bit-identical.  A gap
  that crosses the quantum yields *before* its op is dispatched (the op
  needs no eligibility); a hit that crosses yields after retiring it.
* **State** — retirement replays the interpreted per-op effects in
  order: ``cache._clock``/``frame.lru`` bumps, one
  :class:`~repro.processor.cpu.StampSource` stamp per write (in global
  program order; misses still draw their stamps in the scalar path),
  ``read_hits``/``write_hits``, and ``breakdown.compute``.

The fast path is disabled under Tardis (hits mutate lease state), under
``check_invariants`` (the monitor observes every access), and via
``SystemConfig.direct_execution=False`` (``dsi-sim run --no-fastpath``).
Instrumented runs keep it on: the interpreted hit path fires no probes,
so neither does the batcher.
"""

from bisect import bisect_left

import numpy as np

from repro.memory.cache import EXCLUSIVE

OP_WRITE = 1

#: ops per classification window; amortizes the vectorized tag compare
WINDOW = 4096


class FastPath:
    """Per-processor direct-execution batcher."""

    __slots__ = (
        "proc", "sim", "cache", "misses", "stamps", "breakdown",
        "gaps", "kinds", "n_ops", "blocks", "sets_of",
        "quantum", "hit_cycles",
        "_ws", "_we", "_frames", "_blocks", "_kinds", "_sets", "_cum", "_gaps",
        "_setgens",
        "retired_ops", "windows_built", "handoffs", "boundaries",
    )

    def __init__(self, proc):
        ctrl = proc.controller
        self.proc = proc
        self.sim = proc.sim
        self.cache = ctrl.cache
        self.misses = ctrl.misses
        self.stamps = proc.stamps
        self.breakdown = proc.breakdown
        trace = proc.trace
        self.gaps = trace.gaps
        self.kinds = trace.kinds
        self.n_ops = len(trace.kinds)
        self.blocks = trace.addrs >> proc.block_shift
        self.sets_of = self.blocks % self.cache.n_sets
        self.quantum = proc.quantum
        self.hit_cycles = proc.hit_cycles
        self._ws = 0
        self._we = 0  # empty window: [0, 0)
        self._frames = []
        self._blocks = []
        self._kinds = []
        self._sets = []
        self._cum = None
        self._gaps = []
        self._setgens = []
        self.retired_ops = 0
        self.windows_built = 0
        self.handoffs = 0
        self.boundaries = 0

    # ------------------------------------------------------------------
    def _build_window(self, idx):
        """Classify ops [idx, idx+WINDOW) against the tag snapshot."""
        ws = idx
        we = min(self.n_ops, idx + WINDOW)
        blk = self.blocks[ws:we]
        knd = self.kinds[ws:we]
        sets_idx = self.sets_of[ws:we]
        cache = self.cache
        match = np.where(
            (knd == OP_WRITE)[:, None],
            cache.tag_write[sets_idx] == blk[:, None],
            cache.tag_read[sets_idx] == blk[:, None],
        )
        hit = match.any(axis=1) & (knd <= OP_WRITE)
        way = match.argmax(axis=1).tolist()
        hit = hit.tolist()
        sets_map = cache._sets_map  # materialized sets only; a hit implies a fill
        sets_list = sets_idx.tolist()
        self._frames = [
            sets_map[sets_list[p]][way[p]] if hit[p] else None
            for p in range(we - ws)
        ]
        self._ws = ws
        self._we = we
        self._blocks = blk.tolist()
        self._kinds = knd.tolist()
        self._sets = sets_list
        set_gens = cache.set_gens
        self._setgens = [set_gens[s] for s in sets_list]
        self._gaps = self.gaps[ws:we].tolist()
        self._cum = np.cumsum(self.gaps[ws:we] + self.hit_cycles).tolist()
        self.windows_built += 1

    # ------------------------------------------------------------------
    def advance(self, idx, elapsed):
        """Retire eligible ops starting at ``idx``.

        Returns ``None`` when a quantum boundary was reached: the
        processor's resume state is saved and the wakeup scheduled (the
        caller returns).  Otherwise returns ``(next_idx, elapsed)``:
        ops ``[idx, next_idx)`` were retired and the interpreted loop
        continues *in the same wakeup* at ``next_idx`` — scalar-path
        work, or the start of the next window.
        """
        if idx >= self._we or idx < self._ws:
            if idx >= WINDOW and (
                self.retired_ops * 4 < idx
                or self.retired_ops < 2 * self.handoffs
            ):
                # This processor's stream is miss-dominated or so heavily
                # DSI-marked that fast runs average under ~2 ops: the
                # per-call boundary arithmetic outruns the retirement
                # savings.  The batcher is semantically invisible, so
                # simply unplug it — the scalar loop alone is the
                # interpreted behaviour.
                self.proc._fast = None
                self.handoffs += 1
                return idx, elapsed
            self._build_window(idx)
        ws = self._ws
        p = idx - ws

        # Quick scalar check of the first op before binding anything else:
        # the common handoff (op idx is a miss/sync) must stay O(1) cheap —
        # at miss-heavy scales this path runs once per protocol transaction.
        kinds = self._kinds
        kind = kinds[p]
        if kind > OP_WRITE:
            self.handoffs += 1
            return idx, elapsed
        frames = self._frames
        cache = self.cache
        set_gens = cache.set_gens
        wingens = self._setgens
        sets_w = self._sets
        frame = frames[p]
        if set_gens[sets_w[p]] == wingens[p]:
            # The set is untouched since classification: the resolution is
            # still exact — no per-frame verification needed.
            if frame is None:
                self.handoffs += 1
                return idx, elapsed
        else:
            block = self._blocks[p]
            sets_map = cache._sets_map
            if (
                frame is None or frame.tag != block or not frame.valid
                or frame.s_bit or frame.tearoff
                or (kind and frame.state != EXCLUSIVE)
            ):
                frame = None
                for cand in sets_map.get(sets_w[p], ()):
                    if cand.tag == block and cand.valid:
                        frame = cand
                        break
                if (
                    frame is None or frame.s_bit or frame.tearoff
                    or (kind and frame.state != EXCLUSIVE)
                ):
                    self.handoffs += 1
                    return idx, elapsed
                frames[p] = frame
            wingens[p] = set_gens[sets_w[p]]

        # Boundary arithmetic over the window's cost prefix-sums:
        # F(j) = base + cum[j - ws] is the completion time of op j if
        # every op through j retires as a hit.
        cum = self._cum
        quantum = self.quantum
        hit_cycles = self.hit_cycles
        base = elapsed - (cum[p - 1] if p else 0)
        if self.proc._gap_charged:
            base -= self._gaps[p]
        j0 = ws + bisect_left(cum, quantum - base)
        gap_boundary = False
        if j0 < self._we:
            gap_boundary = base + cum[j0 - ws] - hit_cycles >= quantum
        # Retire [idx, stop); in the gap-boundary case op j0 itself is
        # *not* retired — the interpreted loop yields on its gap charge,
        # before dispatching it (so it needs no eligibility check).
        stop = min(j0 if gap_boundary else j0 + 1, self._we)
        if stop <= idx:
            # Op idx's own gap crosses the quantum: nothing retires; the
            # interpreted loop would charge the gap and yield carrying it.
            self.boundaries += 1
            done = base + cum[p] - hit_cycles
            self.breakdown.compute += done - elapsed
            proc = self.proc
            proc.idx = idx
            proc._gap_charged = True
            self.sim.schedule(done, proc._run)
            return None

        clock = cache._clock
        stamp = self.stamps._next
        blocks = self._blocks
        sets_map = cache._sets_map
        reads = 0
        writes = 0
        q = p  # first verified above
        limit = stop - ws
        while True:
            clock += 1
            frame.lru = clock
            if kind:
                stamp += 1
                frame.data = stamp
                frame.dirty = True
                writes += 1
            else:
                reads += 1
            q += 1
            if q >= limit:
                break
            frame = frames[q]
            kind = kinds[q]
            if kind > OP_WRITE:
                break
            if set_gens[sets_w[q]] == wingens[q]:
                # Unchanged set: the classified resolution is still exact.
                if frame is None:
                    break
                continue
            block = blocks[q]
            if (
                frame is None or frame.tag != block or not frame.valid
                or frame.s_bit or frame.tearoff
                or (kind and frame.state != EXCLUSIVE)
            ):
                frame = None
                for cand in sets_map.get(sets_w[q], ()):
                    if cand.tag == block and cand.valid:
                        frame = cand
                        break
                if (
                    frame is None or frame.s_bit or frame.tearoff
                    or (kind and frame.state != EXCLUSIVE)
                ):
                    break
                frames[q] = frame
            wingens[q] = set_gens[sets_w[q]]
        cache._clock = clock
        self.stamps._next = stamp
        self.misses.read_hits += reads
        self.misses.write_hits += writes
        self.retired_ops += q - p

        end = ws + q  # first op NOT retired
        done = base + cum[q - 1]  # completion time of the last retired op
        proc = self.proc
        if end < stop or j0 >= self._we:
            # Stopped at an ineligible op, or ran out of window, short of
            # any quantum boundary: continue in the interpreted loop.
            self.breakdown.compute += done - elapsed
            proc._gap_charged = False
            return end, done
        self.boundaries += 1
        if gap_boundary:
            # end == j0: charge op j0's gap and yield with it carried.
            done = base + cum[j0 - ws] - hit_cycles
            self.breakdown.compute += done - elapsed
            proc.idx = j0
            proc._gap_charged = True
            self.sim.schedule(done, proc._run)
            return None
        # end == j0 + 1: op j0's hit completed at/after the quantum.
        self.breakdown.compute += done - elapsed
        proc.idx = end
        proc._gap_charged = False
        self.sim.schedule(done, proc._run)
        return None
