"""Direct-execution fast-path boundary behaviour.

The fast path (:mod:`repro.processor.fastpath`) retires every op the
interpreted loop's ``try_read`` / ``try_write`` would take on their
first branch — any valid frame for a load, an EXCLUSIVE one for a store,
DSI-marked and tear-off copies included — and must hand control back to
the interpreted loop at exactly the right ops: the first miss, the first
store to a non-exclusive copy (including write-buffer interactions), and
every synchronization operation.  These tests pin that boundary three
ways:

* **Probe-sequence equality** — a recording instrument captures every
  timestamped probe (transitions, messages, fills, self-invalidations,
  write-buffer and sync events) from a fast run and an interpreted
  run of the same deterministic trace; the sequences must be identical.
  Since the interpreted hit path fires no probes, any op the fast path
  wrongly retires (or wrongly hands off at a different cycle) shows up
  as a sequence difference.
* **Counter arithmetic** — on traces simple enough to reason about
  exactly, the fast path's ``retired_ops`` / ``handoffs`` / ``boundaries``
  counters are asserted against hand-computed values.
* **Record equality at the edges** — sync ops exactly on a batch edge,
  FIFO-overflow bursts, Tardis ``lease=1`` expiry and the tear-off
  write shapes: configs outside the equivalence grid, whose compiled and
  interpreted records must match, ``events_fired`` included.
"""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.config import Consistency, IdentifyScheme, SIMechanism, SystemConfig
from repro.harness.configs import workload_args
from repro.memory.cache import EXCLUSIVE, Cache
from repro.network.message import Message
from repro.obs.instrument import Instrument
from repro.processor.cpu import Processor
from repro.protocol.controller import CacheController
from repro.stats.record import RunRecord
from repro.system import Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program
from repro.workloads import by_name

BLOCK = 32  # bytes per block (config default)
SEGMENT = 1 << 22  # bytes per home segment (repro.memory.address)


def _addr(block, segment=0):
    # ``home_exclusion`` (on by default) exempts locally-homed blocks
    # from DSI, so blocks that must earn marked/tear-off grants for
    # processor 0 have to live in another processor's segment.
    return segment * SEGMENT + block * BLOCK


# ---------------------------------------------------------------------------
# Probe recording
# ---------------------------------------------------------------------------

_PROBES = (
    "message_send",
    "message_receive",
    "cache_fill",
    "cache_evict",
    "cache_self_invalidate",
    "protocol_transition",
    "mshr_open",
    "mshr_close",
    "dir_grant",
    "inv_sent",
    "inv_acked",
    "fifo_push",
    "fifo_pop",
    "fifo_overflow",
    "wb_fill",
    "wb_drain",
    "sync_enter",
    "sync_exit",
)


def _plain(value):
    if isinstance(value, Message):
        return (value.kind.name, value.block, value.src, value.dst)
    return value


class ProbeRecorder(Instrument):
    """Instrument that keeps the full timestamped probe sequence."""

    def __init__(self):
        super().__init__()
        self.seq = []


def _recording(name, original):
    def probe(self, *args, **kwargs):
        entry = (self.now, name) + tuple(_plain(a) for a in args)
        if kwargs:
            entry += tuple(sorted((k, _plain(v)) for k, v in kwargs.items()))
        self.seq.append(entry)
        return original(self, *args, **kwargs)

    return probe


for _name in _PROBES:
    setattr(ProbeRecorder, _name, _recording(_name, getattr(Instrument, _name)))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _run(config, program, record_probes=False):
    instrument = ProbeRecorder() if record_probes else None
    machine = Machine(config, program, instrument=instrument)
    result = machine.run()
    return machine, RunRecord.from_result(result), instrument


def _reference(config):
    return replace(config, compiled_dispatch=False, direct_execution=False)


def _fastpaths(machine):
    return [p._fast for p in machine.processors]


# ---------------------------------------------------------------------------
# Exact counter arithmetic on single-processor traces
# ---------------------------------------------------------------------------


class TestExactBoundaries:
    def test_private_hit_run_fully_retired(self):
        # write A (cold miss, scalar), then 100 reads of A (all retired).
        builder = TraceBuilder().write(_addr(5))
        for _ in range(100):
            builder.read(_addr(5))
        program = Program("private", [builder.build()])
        config = SystemConfig(n_processors=1, quantum=1000)
        machine, record, _ = _run(config, program)
        fast = _fastpaths(machine)[0]
        assert fast.retired_ops == 100
        assert fast.handoffs == 1  # exactly the cold miss
        assert fast.boundaries == 0  # quantum never reached
        assert record.misses.read_hits == 100
        # And the interpreted run agrees on everything measured.
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record

    def test_hit_boundary_reenters_event_queue(self):
        # 100 reads x 1 cycle against quantum=10: the fast path must stop at
        # every quantum boundary exactly as the interpreted loop does.
        builder = TraceBuilder().write(_addr(5))
        for _ in range(100):
            builder.read(_addr(5))
        program = Program("quantum", [builder.build()])
        config = SystemConfig(n_processors=1, quantum=10)
        machine, record, _ = _run(config, program)
        fast = _fastpaths(machine)[0]
        assert fast.retired_ops == 100
        assert fast.boundaries == 10  # 100 hit cycles / 10-cycle quantum
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired

    def test_gap_boundary_carries_gap_charge(self):
        # Gaps of 7 + 1 hit cycle against quantum=10: boundaries land
        # mid-gap, exercising the gap-charged carry path.
        builder = TraceBuilder().write(_addr(5))
        for _ in range(50):
            builder.compute(7).read(_addr(5))
        program = Program("gaps", [builder.build()])
        config = SystemConfig(n_processors=1, quantum=10)
        machine, record, _ = _run(config, program)
        fast = _fastpaths(machine)[0]
        assert fast.retired_ops == 50
        assert fast.boundaries > 0
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired

    def test_miss_dominated_stream_bails_out(self):
        # Reads of 6000 distinct blocks: nothing ever re-hits (capacity
        # misses), so every op hands off to the interpreted loop, across
        # a window boundary — and the record must not change.
        builder = TraceBuilder()
        for i in range(6000):
            builder.read(_addr(1000 + 7 * i))
        program = Program("colds", [builder.build()])
        config = SystemConfig(n_processors=1)
        machine, record, _ = _run(config, program)
        assert _fastpaths(machine)[0].retired_ops == 0
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record


# ---------------------------------------------------------------------------
# The full boundary soup: tear-off reads, FIFO self-invalidation,
# write-buffer stalls, locks — probe-for-probe against the interpreter
# ---------------------------------------------------------------------------


def _boundary_program():
    """Two processors alternating private hits with every handoff cause.

    Processor 1 produces shared blocks under a lock; processor 0 consumes
    them (the repeated invalidate-then-remiss pattern drives the version
    scheme to grant tear-off copies), with runs of private hits in
    between, enough distinct writes to overflow a 2-entry write buffer,
    and more marked blocks than a 4-entry FIFO holds.
    """
    shared = [_addr(100 + i, segment=1) for i in range(10)]
    lock = _addr(900, segment=1)

    p0 = TraceBuilder()
    p1 = TraceBuilder()
    for round_no in range(6):
        # Producer: update every shared block under the lock.
        p1.lock(lock)
        for addr in shared:
            p1.write(addr)
        p1.unlock(lock)
        # Consumer: a run of private hits, then read all shared blocks
        # (cold/coherence misses, later tear-off grants), then a burst of
        # private writes that outruns the write buffer.
        private = _addr(200 + 16 * round_no)
        p0.write(private)
        for _ in range(20):
            p0.read(private)
        p0.lock(lock)
        for addr in shared:
            p0.read(addr)
        if round_no % 2:
            # Write rounds (back half only, so the front half keeps its
            # read-only history and earns tear-off grants): identified
            # blocks granted exclusive carry the s bit, not tear-off, so
            # they enter the 4-entry FIFO — six of them force overflow
            # self-invalidations.
            for addr in shared[4:]:
                p0.write(addr)
        p0.unlock(lock)
        for i in range(6):
            p0.write(_addr(300 + 32 * round_no + i))
        p0.barrier(round_no)
        p1.barrier(round_no)
    return Program("boundary", [p0.build(), p1.build()])


def _boundary_config():
    return SystemConfig(
        n_processors=2,
        consistency=Consistency.WC,
        identify=IdentifyScheme.VERSION,
        si_mechanism=SIMechanism.FIFO,
        tearoff=True,
        fifo_entries=4,
        write_buffer_entries=2,
    )


class TestBoundarySoup:
    @pytest.fixture(scope="class")
    def runs(self):
        program = _boundary_program()
        config = _boundary_config()
        fast = _run(config, program, record_probes=True)
        ref = _run(_reference(config), program, record_probes=True)
        return fast, ref

    def test_scenario_exercises_every_handoff_cause(self, runs):
        (machine, record, instrument), _ = runs
        fast = _fastpaths(machine)[0]
        assert fast is not None and fast.retired_ops > 0  # private hits batched
        assert fast.handoffs > 0
        assert record.misses.fifo_overflows > 0  # FIFO self-invalidation
        assert instrument.counts["cache_fill_tearoff"] > 0  # tear-off grants
        assert instrument.counts["wb_fill"] > 0  # write buffer touched
        assert sum(b.wb_full for b in record.breakdowns) > 0  # ...and stalled
        assert instrument.counts["self_invalidate"] > 0

    def test_probe_sequences_identical(self, runs):
        (_, _, fast_inst), (_, _, ref_inst) = runs
        assert fast_inst.seq, "no probes recorded"
        # Timestamped probe-for-probe equality: the fast path handed off at
        # exactly the ops — and cycles — the interpreted loop blocked at.
        assert fast_inst.seq == ref_inst.seq

    def test_records_identical(self, runs):
        (_, fast_record, _), (_, ref_record, _) = runs
        assert fast_record == ref_record
        assert fast_record.events_fired == ref_record.events_fired


# ---------------------------------------------------------------------------
# DSI-marked and tear-off copies are plain hits
# ---------------------------------------------------------------------------


@pytest.fixture
def frame_hits(monkeypatch):
    """Count the frame hits that reach the interpreted ``try_read`` /
    ``try_write``, by the copy they hit: marked, tear-off or plain."""
    hits = Counter()
    try_read, try_write = CacheController.try_read, CacheController.try_write

    def kind(frame):
        return "tearoff" if frame.tearoff else "marked" if frame.s_bit else "plain"

    def counting_read(self, block, frame):
        if try_read(self, block, frame):
            hits[kind(frame)] += 1
            return True
        return False

    def counting_write(self, block, frame, stamp):
        exclusive = frame is not None and frame.state == EXCLUSIVE
        if try_write(self, block, frame, stamp):
            if exclusive:  # not a write-buffer merge
                hits[kind(frame)] += 1
            return True
        return False

    monkeypatch.setattr(CacheController, "try_read", counting_read)
    monkeypatch.setattr(CacheController, "try_write", counting_write)
    return hits


class TestMarkedHitsRetireDirectly:
    @pytest.mark.parametrize("copy, fields", [
        ("marked", {"identify": IdentifyScheme.VERSION}),
        ("tearoff", {"consistency": Consistency.WC,
                     "identify": IdentifyScheme.VERSION, "tearoff": True}),
    ], ids=["SC+V", "WC+V+TO"])
    def test_marked_and_tearoff_hits_retire_directly(self, frame_hits, copy, fields):
        # Sparse under V re-reads the shared vector through s-marked
        # (SC) or tear-off (WC) copies between barriers.
        config = SystemConfig(n_processors=4, cache_size=16384, **fields)
        program = by_name("sparse", n_procs=4, x_words=512, iterations=3,
                          a_words_per_proc=128)
        machine, record, inst = _run(config, program, record_probes=True)
        fast_hits = dict(frame_hits)
        frame_hits.clear()
        _, ref_record, ref_inst = _run(_reference(config), program, record_probes=True)
        assert frame_hits[copy] > 0  # the interpreter hit such copies...
        assert fast_hits == {}  # ...the fast path left none of them to it
        assert sum(f.retired_ops for f in _fastpaths(machine)) == sum(frame_hits.values())
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired
        assert inst.seq == ref_inst.seq


# ---------------------------------------------------------------------------
# Span-boundary regressions (deterministic, hand-sized)
# ---------------------------------------------------------------------------


def _assert_paths_identical(config, program):
    """Run ``program`` on the compiled paths and on the interpreted
    reference; the records must be equal, ``events_fired`` included."""
    _, fast, _ = _run(config, program)
    _, ref, _ = _run(_reference(config), program)
    assert fast == ref
    assert fast.events_fired == ref.events_fired
    return fast


class TestBatchBoundaries:
    """Configs the 230-pair equivalence grid does not reach."""

    def test_sync_exactly_on_batch_edge(self):
        # Two processors ping through a barrier placed so the preceding
        # hit run's cost lands exactly on the processor quantum: with
        # hit_cycles=1 and quantum=N, N hits complete *at* the batch
        # edge and the sync op is the first op of the next span.  Sweep
        # the quantum across the run length so every alignment of the
        # barrier relative to the edge occurs, including exact ones.
        for quantum in (4, 5, 6, 8):
            builders = [TraceBuilder(), TraceBuilder()]
            for node, builder in enumerate(builders):
                mine = _addr(2 + node, segment=node)
                builder.write(mine)
                for _ in range(quantum):  # hits filling exactly one span
                    builder.read(mine)
                builder.barrier(0)
                theirs = _addr(2 + (1 - node), segment=1 - node)
                builder.read(theirs)
                builder.barrier(1)
            program = Program("sync-edge", [b.build() for b in builders])
            config = SystemConfig(n_processors=2, quantum=quantum)
            record = _assert_paths_identical(config, program)
            assert record.misses.read_misses >= 2  # the cross reads missed

    def test_fifo_overflow_burst_mid_batch(self):
        # A DSI-FIFO config with a tiny FIFO: every fill of a marked
        # block pushes an entry and the burst overflows the FIFO in the
        # middle of a hit span.  The overflow invalidation changes which
        # later accesses hit — any drift in when the burst lands shows up
        # as a miss-mix difference.
        config = SystemConfig(
            n_processors=4,
            identify=IdentifyScheme.VERSION,
            si_mechanism=SIMechanism.FIFO,
            fifo_entries=2,
            cache_size=16384,
        )
        program = by_name("sparse", n_procs=4, x_words=512, iterations=3,
                          a_words_per_proc=128)
        record = _assert_paths_identical(config, program)
        assert record.misses.fifo_overflows > 0  # the burst actually burst

    def test_tardis_lease_expiry_exactly_at_read(self):
        # lease=1: every granted lease is already expiring at the next
        # logical tick, so reads keep landing exactly on the expiry
        # boundary and must renew rather than hit.
        config = SystemConfig(n_processors=4, tardis=True, lease=1)
        program = by_name("producer_consumer", n_procs=4)
        _assert_paths_identical(config, program)

    def test_wc_write_buffer_and_tearoff_shapes(self):
        # A store to the registered SC tear-off copy (the GETX shape, not
        # the upgrade shape) and the WC buffered write path, both on a
        # workload with real write sharing.
        for fields in (
            {"identify": IdentifyScheme.STATES, "sc_tearoff": True},
            {"consistency": Consistency.WC, "identify": IdentifyScheme.VERSION,
             "tearoff": True},
        ):
            config = SystemConfig(n_processors=4, cache_size=16384, **fields)
            program = by_name("producer_consumer", n_procs=4)
            _assert_paths_identical(config, program)


# ---------------------------------------------------------------------------
# A load the fast path found missing is not probed again
# ---------------------------------------------------------------------------


class TestMissHandoff:
    def test_missing_load_is_not_probed_again(self, monkeypatch):
        # Barnes at a 16 KB cache: remote coherence misses dominate.  With
        # direct execution on, every load that reaches the interpreted
        # loop was just found missing by FastPath.advance, so the
        # processor issues it without calling try_read, and ``read``
        # takes that miss (a None frame) without a Cache.lookup of its
        # own; the interpreted reference probes every load itself.
        probes = Counter()
        try_read, read, lookup = CacheController.try_read, CacheController.read, Cache.lookup
        reading = []

        def counting_try_read(self, block, frame):
            probes["try_read"] += 1
            return try_read(self, block, frame)

        def watched_read(self, *args):
            probes["read"] += 1
            reading.append(True)
            try:
                return read(self, *args)
            finally:
                reading.pop()

        def counting_lookup(self, *args, **kwargs):
            if reading:
                probes["lookup_in_read"] += 1
            return lookup(self, *args, **kwargs)

        monkeypatch.setattr(CacheController, "try_read", counting_try_read)
        monkeypatch.setattr(CacheController, "read", watched_read)
        monkeypatch.setattr(Cache, "lookup", counting_lookup)
        config = SystemConfig(n_processors=4, cache_size=16384,
                              identify=IdentifyScheme.VERSION)
        program = by_name("barnes", n_procs=4, bodies_per_proc=8, cells=48,
                          iterations=2, gather=6)
        _, record, _ = _run(config, program)
        assert probes["try_read"] == 0
        assert probes["lookup_in_read"] == 0
        assert probes["read"] >= record.misses.read_misses > 100  # miss-heavy
        _, ref_record, _ = _run(_reference(config), program)
        assert probes["try_read"] > record.misses.read_misses
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired

    @pytest.mark.parametrize("fields", [
        {"tardis": True},
        {"identify": IdentifyScheme.VERSION, "check_invariants": True},
    ], ids=["TARDIS", "monitor"])
    def test_load_is_probed_once_per_wakeup(self, monkeypatch, fields):
        # Under Tardis or the invariant monitor the interpreted loop runs
        # every op: it probes each load and store once and hands the
        # frame to try_read/try_write and, in the same wake-up, to
        # read/write.  So the lookups made by Processor._run and inside
        # try_read number exactly its try_read and try_write calls.
        calls = Counter()
        lookup, read = Cache.lookup, CacheController.read
        try_read, try_write = CacheController.try_read, CacheController.try_write
        probing = {Processor._run.__code__, try_read.__code__}

        def counting_lookup(self, *args, **kwargs):
            if sys._getframe(1).f_code in probing:
                calls["probe"] += 1
            return lookup(self, *args, **kwargs)

        def counting_try_read(self, *args):
            calls["op"] += 1
            return try_read(self, *args)

        def counting_try_write(self, *args):
            calls["op"] += 1
            return try_write(self, *args)

        def counting_read(self, *args):
            calls["read"] += 1
            return read(self, *args)

        monkeypatch.setattr(Cache, "lookup", counting_lookup)
        monkeypatch.setattr(CacheController, "try_read", counting_try_read)
        monkeypatch.setattr(CacheController, "try_write", counting_try_write)
        monkeypatch.setattr(CacheController, "read", counting_read)
        config = SystemConfig(n_processors=4, cache_size=16384, **fields)
        program = by_name("barnes", **workload_args("barnes", quick=True, n_procs=4))
        _, record, _ = _run(config, program)
        assert calls["read"] >= record.misses.read_misses > 100
        assert calls["probe"] == calls["op"] > calls["read"]

    @pytest.mark.parametrize("workload, fields", [
        ("barnes", {}),
        ("sparse", {"consistency": Consistency.WC, "write_buffer_entries": 2}),
    ], ids=["SC", "WC"])
    def test_store_is_probed_once_per_wakeup(self, monkeypatch, workload, fields):
        # A store that is no exclusive hit goes to try_write and then, in
        # the same wake-up, to write: both take the frame the processor
        # probed, so write does no Cache.lookup of its own.  (A WC retry
        # after a full write buffer probes before calling write.)
        calls = Counter()
        write, lookup = CacheController.write, Cache.lookup
        retry = CacheController._wc_write_retry
        writing = []

        def counting_retry(self, *args):
            calls["retry"] += 1
            return retry(self, *args)

        def watched_write(self, *args):
            calls["write"] += 1
            writing.append(True)
            try:
                return write(self, *args)
            finally:
                writing.pop()

        def counting_lookup(self, *args, **kwargs):
            if writing:
                calls["lookup_in_write"] += 1
            return lookup(self, *args, **kwargs)

        monkeypatch.setattr(CacheController, "write", watched_write)
        monkeypatch.setattr(CacheController, "_wc_write_retry", counting_retry)
        monkeypatch.setattr(Cache, "lookup", counting_lookup)
        config = SystemConfig(n_processors=4, cache_size=16384,
                              identify=IdentifyScheme.VERSION, **fields)
        program = by_name(workload, **workload_args(workload, quick=True, n_procs=4))
        _, record, _ = _run(config, program)
        _, ref_record, _ = _run(_reference(config), program)
        assert calls["write"] > 100
        assert (calls["retry"] > 0) == bool(fields)
        assert calls["lookup_in_write"] == 0
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired
