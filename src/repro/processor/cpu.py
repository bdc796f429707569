"""The trace-driven processor model.

Each processor walks its trace, folding compute gaps and cache hits into
*computation* time, and blocking (or, under WC, buffering) on everything
else.  To keep the event count proportional to misses rather than
references, runs of hits are batched: the processor advances its local
time privately and re-synchronizes with the global event queue whenever
it blocks or after ``config.quantum`` cycles — the same bounded-lookahead
approach the Wisconsin Wind Tunnel used (its quantum was the 100-cycle
network latency).  Every *blocking* operation is realigned to the exact
cycle first, so stall accounting is precise.

Stall attribution follows the paper's Figure 3 categories: the directory
reports how long it waited for invalidation acknowledgments before
responding (``inval_wait``), which becomes read/write *invalidation* time;
the rest of a miss is read/write *other*; synchronization operations
accumulate ``synch_wb`` (write-buffer drain), ``dsi`` (self-invalidation
flush) and ``sync`` (lock/barrier waiting, including lock-word transfer).

The processor reads its trace through a window of plain Python lists
(gaps, kinds, block numbers) decoded from the numpy arrays once per
:data:`WINDOW` ops; the interpreted loop and the direct-execution fast
path (:mod:`repro.processor.fastpath`) both index it.
"""

from repro.config import CACHE_HIT_CYCLES
from repro.processor.fastpath import FastPath
from repro.stats.breakdown import Breakdown
from repro.trace.ops import OP_LOCK, OP_READ, OP_UNLOCK, OP_WRITE

#: ops decoded per window.  A decoded op costs a block-number int object
#: and three list slots, about 55 bytes on every processor: at 4096 ops
#: the windows were 60% of a finished 32-processor machine's host memory.
WINDOW = 1024


class StampSource:
    """Globally increasing write stamps (the simulated "data")."""

    __slots__ = ("_next",)

    def __init__(self):
        self._next = 0

    def next(self):
        self._next += 1
        return self._next


class Processor:
    """One trace-driven CPU."""

    def __init__(self, sim, config, node, controller, trace, locks, barrier, stamps,
                 instrument=None):
        self.sim = sim
        self.node = node
        self.controller = controller
        self.trace = trace
        self.locks = locks
        self.barrier = barrier
        self.stamps = stamps
        self.obs = instrument
        self.block_shift = config.block_shift
        self.hit_cycles = CACHE_HIT_CYCLES
        self.quantum = max(1, config.quantum)
        self.breakdown = Breakdown()
        self.idx = 0
        # (start, end, gaps, kinds, blocks): ops [start, end) as lists.
        self._window = (0, 0, (), (), ())
        self._gap_charged = False
        self._stall_start = 0
        self.finished = False
        self.finish_time = None
        # WWT-style direct execution (repro.processor.fastpath): off under
        # Tardis (hits mutate lease state) and under the invariant monitor
        # (it must observe every access).  Instrumented runs keep it — the
        # interpreted hit path fires no probes, so neither does the fast path.
        if not config.tardis and not config.check_invariants:
            self._fast = FastPath(self)
        else:
            self._fast = None

    def start(self):
        self.sim.schedule(0, self._run)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _decode(self, idx):
        """Decode ops ``[idx, idx + WINDOW)`` into the list window.

        Block numbers are ``addr >> block_shift``; a sync op's operand (a
        lock address or barrier id) is read from the trace itself."""
        trace = self.trace
        end = min(len(trace), idx + WINDOW)
        self._window = window = (
            idx,
            end,
            trace.gaps[idx:end].tolist(),
            trace.kinds[idx:end].tolist(),
            (trace.addrs[idx:end] >> self.block_shift).tolist(),
        )
        return window

    def _run(self):
        sim = self.sim
        ctrl = self.controller
        breakdown = self.breakdown
        quantum = self.quantum
        hit_cycles = self.hit_cycles
        fast = self._fast
        ws, we, gaps, kinds, blocks = self._window
        idx = self.idx
        elapsed = 0
        while True:
            if idx >= we:
                if idx >= len(self.trace):
                    self.idx = idx
                    if elapsed:
                        sim.schedule(elapsed, self._run)
                    else:
                        self._finish()
                    return
                ws, we, gaps, kinds, blocks = self._decode(idx)
            if fast is not None:
                # Direct execution: retire the hits from idx on.  None =
                # quantum boundary scheduled (state saved); otherwise op
                # idx is the first that is not a hit (or the window ended).
                result = fast.advance(idx, elapsed)
                if result is None:
                    return
                idx, elapsed = result
                if idx >= we:
                    continue
            p = idx - ws
            if not self._gap_charged:
                gap = gaps[p]
                if gap:
                    breakdown.compute += gap
                    elapsed += gap
                self._gap_charged = True
                if elapsed >= quantum:
                    self.idx = idx
                    sim.schedule(elapsed, self._run)
                    return
            kind = kinds[p]
            if kind == OP_READ:
                block = blocks[p]
                # With direct execution on, ``fast.advance`` has just found
                # this load missing.  Otherwise one probe serves both
                # try_read and, in this wake-up, read.
                frame = None if fast is not None else ctrl.cache.lookup(block)
                if fast is None and ctrl.try_read(block, frame):
                    breakdown.compute += hit_cycles
                    elapsed += hit_cycles
                    idx += 1
                    self._gap_charged = False
                    if elapsed >= quantum:
                        self.idx = idx
                        sim.schedule(elapsed, self._run)
                        return
                    continue
                self.idx = idx
                if elapsed:
                    sim.schedule(elapsed, self._run)
                    return
                self._stall_start = sim.now
                ctrl.read(block, frame, self._read_done)
                return
            if kind == OP_WRITE:
                block = blocks[p]
                # One probe serves both try_write and, in this wake-up,
                # write.
                frame = ctrl.cache.lookup(block)
                if ctrl.try_write(block, frame, self.stamps.next()):
                    breakdown.compute += hit_cycles
                    elapsed += hit_cycles
                    idx += 1
                    self._gap_charged = False
                    if elapsed >= quantum:
                        self.idx = idx
                        sim.schedule(elapsed, self._run)
                        return
                    continue
                self.idx = idx
                if elapsed:
                    sim.schedule(elapsed, self._run)
                    return
                self._stall_start = sim.now
                status = ctrl.write(block, frame, self.stamps.next(), self._write_done)
                if status == "wait":
                    return
                # WC: the write was buffered and its request issued.
                breakdown.compute += hit_cycles
                elapsed += hit_cycles
                idx += 1
                self._gap_charged = False
                continue
            # Synchronization operation: always realign first.
            self.idx = idx
            if elapsed:
                sim.schedule(elapsed, self._run)
                return
            self._do_sync(kind, int(self.trace.addrs[idx]))
            return

    # ------------------------------------------------------------------
    # Completion callbacks
    # ------------------------------------------------------------------
    def _advance(self):
        self.idx += 1
        self._gap_charged = False
        self.sim.schedule(0, self._run)

    def _read_done(self, inval_wait, reason):
        stall = self.sim.now - self._stall_start
        breakdown = self.breakdown
        if reason == "read_wb":
            breakdown.read_wb += stall
        else:
            inval = min(inval_wait, stall)
            breakdown.read_inval += inval
            breakdown.read_other += stall - inval
        self._advance()

    def _write_done(self, inval_wait, reason):
        stall = self.sim.now - self._stall_start
        breakdown = self.breakdown
        if reason == "wb_full":
            breakdown.wb_full += stall
        else:
            inval = min(inval_wait, stall)
            breakdown.write_inval += inval
            breakdown.write_other += stall - inval
        self._advance()

    # ------------------------------------------------------------------
    # Synchronization operations
    # ------------------------------------------------------------------
    def _do_sync(self, kind, addr):
        sim = self.sim
        breakdown = self.breakdown
        drain_start = sim.now
        if self.obs is not None:
            name = "lock" if kind == OP_LOCK else ("unlock" if kind == OP_UNLOCK else "barrier")
            self.obs.sync_enter(self.node, name)

        def drained():
            breakdown.synch_wb += sim.now - drain_start
            flush_start = sim.now

            def flushed():
                breakdown.dsi += sim.now - flush_start
                if kind == OP_LOCK:
                    self._lock(addr)
                elif kind == OP_UNLOCK:
                    self._unlock(addr)
                else:
                    self._barrier(addr)

            self.controller.flush_si(flushed)

        self.controller.drain_wb(drained)

    def _sync_write(self, block, done):
        status = self.controller.sync_write(
            block, self.stamps.next(), lambda _iw, _reason: done()
        )
        if status == "done":
            done()

    def _lock(self, addr):
        sim = self.sim
        start = sim.now
        block = addr >> self.block_shift

        def after_swap():
            if self.locks.acquire(addr, self.node, granted):
                self.breakdown.sync += sim.now - start
                if self.obs is not None:
                    self.obs.sync_exit(self.node, "lock")
                self._advance()

        def granted():
            # Handed the lock: the holder's release write invalidated our
            # copy of the lock word, so swap it back in.
            self._sync_write(block, finish)

        def finish():
            self.breakdown.sync += sim.now - start
            if self.obs is not None:
                self.obs.sync_exit(self.node, "lock")
            self._advance()

        self._sync_write(block, after_swap)

    def _unlock(self, addr):
        sim = self.sim
        start = sim.now
        block = addr >> self.block_shift

        def after_release():
            self.locks.release(addr, self.node)
            self.breakdown.sync += sim.now - start
            if self.obs is not None:
                self.obs.sync_exit(self.node, "unlock")
            self._advance()

        self._sync_write(block, after_release)

    def _barrier(self, barrier_id):
        sim = self.sim
        start = sim.now

        def released():
            self.breakdown.sync += sim.now - start
            if self.obs is not None:
                self.obs.sync_exit(self.node, "barrier")
            self._advance()

        self.barrier.arrive(self.node, barrier_id, released)

    # ------------------------------------------------------------------
    def _finish(self):
        drain_start = self.sim.now

        def drained():
            self.breakdown.synch_wb += self.sim.now - drain_start
            self.finished = True
            self.finish_time = self.sim.now

        self.controller.drain_wb(drained)

    def deadlock_diagnostic(self):
        if not self.finished:
            return f"proc {self.node}: stopped at op {self.idx}/{len(self.trace)}"
        return None
