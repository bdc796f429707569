"""Direct execution: retire plain cache hits outside the engine.

The Wisconsin Wind Tunnel got its speed from direct execution — the
overwhelming majority of memory accesses (private/valid hits) never enter
the discrete-event core.  This module is that idea for the trace-driven
processor: :meth:`FastPath.advance` walks the processor's decoded op
window (:meth:`repro.processor.cpu.Processor._decode`) one op at a time,
probes the cache's ``block -> frame`` map
(:attr:`repro.memory.cache.Cache.valid_map`) for each, and retires every
hit in place with exactly the side effects of the interpreted hit path.

Equivalence contract: the fast path must be invisible in the
:class:`~repro.stats.record.RunRecord`.  The golden record digests
(``tests/test_golden_records.py``) hold every record to the same digest
with the fast path on (the default run) and off (the monitored run,
``check_invariants=True``).  Concretely:

* **Eligibility** — exactly the first branch of the controller's
  ``try_read`` / ``try_write``: a load retires when the block has a valid
  frame, a store when that frame is EXCLUSIVE.  With the fast path on,
  Tardis and the invariant monitor are off, and then that branch fires no
  probe and has no DSI side effect — an s-marked or tear-off copy is a
  plain hit.  Everything else (misses, WC write-buffer merges, sync ops)
  hands off to the interpreted loop in
  :meth:`~repro.processor.cpu.Processor._run`.
* **Order** — the loop keeps the interpreted loop's per-op order and
  quantum checks.  It checks the op is a hit first (a side-effect-free
  probe); then charges the op's gap and, if the gap crosses the quantum,
  yields with the gap carried (``_gap_charged``) before retiring the op;
  then retires it and yields if the hit crosses the quantum.  Every
  wakeup lands on the same cycle as in the interpreted run, so
  ``events_fired`` and every event timestamp are bit-identical.
* **State** — retirement replays the interpreted per-op effects in
  order: ``cache._clock``/``frame.lru`` bumps, one
  :class:`~repro.processor.cpu.StampSource` stamp per write, ``frame.data``
  and ``frame.dirty`` for writes, ``read_hits``/``write_hits`` and
  ``breakdown.compute``.

The fast path runs whenever it is eligible: everywhere but under Tardis
(hits mutate lease state) and under ``check_invariants`` (the monitor
observes every access).  Instrumented runs keep it on: the interpreted
hit path fires no probes, so neither does the fast path.
"""

from repro.memory.cache import EXCLUSIVE
from repro.trace.ops import OP_WRITE


class FastPath:
    """Per-processor direct execution of cache hits."""

    __slots__ = (
        "proc", "sim", "cache", "valid_map", "misses", "stamps", "breakdown",
        "quantum", "hit_cycles", "retired_ops", "handoffs", "boundaries",
    )

    def __init__(self, proc):
        ctrl = proc.controller
        self.proc = proc
        self.sim = proc.sim
        self.cache = ctrl.cache
        self.valid_map = ctrl.cache.valid_map
        self.misses = ctrl.misses
        self.stamps = proc.stamps
        self.breakdown = proc.breakdown
        self.quantum = proc.quantum
        self.hit_cycles = proc.hit_cycles
        self.retired_ops = 0
        self.handoffs = 0  # returns at an op that is not a hit
        self.boundaries = 0  # quantum yields scheduled here

    def advance(self, idx, elapsed):
        """Retire hits starting at op ``idx`` of the current window.

        Returns ``None`` when a quantum boundary was reached: the
        processor's resume state is saved and the wakeup scheduled (the
        caller returns).  Otherwise returns ``(next_idx, elapsed)``: ops
        ``[idx, next_idx)`` retired, and either op ``next_idx`` is not a
        hit (the interpreted loop runs it in the same wakeup) or the
        window ended there.
        """
        proc = self.proc
        ws, we, gaps, kinds, blocks = proc._window
        p = idx - ws
        # The common handoff (op idx is a miss or a sync op) stays cheap:
        # at miss-heavy scales it runs once per protocol transaction.
        kind = kinds[p]
        frame = self.valid_map.get(blocks[p]) if kind <= OP_WRITE else None
        if frame is None or (kind and frame.state != EXCLUSIVE):
            self.handoffs += 1
            return idx, elapsed

        valid_map = self.valid_map
        quantum = self.quantum
        hit_cycles = self.hit_cycles
        cache = self.cache
        clock = cache._clock
        stamp = self.stamps._next
        gap_charged = proc._gap_charged
        start = elapsed
        first = p
        end = we - ws
        writes = 0
        boundary = True
        while True:
            # Op p is a hit on ``frame``.
            if not gap_charged:
                elapsed += gaps[p]
                if elapsed >= quantum:
                    # The gap crosses the quantum: yield before the op,
                    # carrying the charged gap.
                    gap_charged = True
                    break
            clock += 1
            frame.lru = clock
            if kind:
                stamp += 1
                frame.data = stamp
                frame.dirty = True
                writes += 1
            elapsed += hit_cycles
            p += 1
            gap_charged = False
            if elapsed >= quantum:
                break
            if p == end:
                boundary = False
                break
            kind = kinds[p]
            frame = valid_map.get(blocks[p]) if kind <= OP_WRITE else None
            if frame is None or (kind and frame.state != EXCLUSIVE):
                self.handoffs += 1
                boundary = False
                break

        retired = p - first
        cache._clock = clock
        self.stamps._next = stamp
        misses = self.misses
        misses.read_hits += retired - writes
        misses.write_hits += writes
        self.retired_ops += retired
        self.breakdown.compute += elapsed - start
        proc._gap_charged = gap_charged
        idx = ws + p
        if boundary:
            self.boundaries += 1
            proc.idx = idx
            self.sim.schedule(elapsed, proc._run)
            return None
        return idx, elapsed
