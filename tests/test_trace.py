"""Trace encoding, builder, validation and IO."""

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.builder import TraceBuilder
from repro.trace.io import load_program, save_program
from repro.trace.ops import (
    OP_BARRIER,
    OP_LOCK,
    OP_READ,
    OP_UNLOCK,
    OP_WRITE,
    Program,
    Trace,
)


class TestBuilder:
    def test_compute_accumulates_into_gap(self):
        trace = TraceBuilder().compute(5).compute(7).read(0x40).build()
        assert trace.op(0) == (12, OP_READ, 0x40)

    def test_sequence(self):
        trace = (
            TraceBuilder()
            .read(0x40)
            .compute(3)
            .write(0x80)
            .lock(0x100)
            .unlock(0x100)
            .barrier(2)
            .build()
        )
        assert list(trace.kinds) == [OP_READ, OP_WRITE, OP_LOCK, OP_UNLOCK, OP_BARRIER]
        assert trace.op(1) == (3, OP_WRITE, 0x80)
        assert trace.op(4) == (0, OP_BARRIER, 2)

    def test_ranges(self):
        trace = TraceBuilder().read_range(0, 128, 32).write_range(0, 64, 32).build()
        counts = trace.counts()
        assert counts == {"read": 4, "write": 2}

    def test_negative_compute_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder().compute(-1)

    def test_len(self):
        builder = TraceBuilder().read(0).write(0)
        assert len(builder) == 2

    def test_built_builder_refuses_further_ops(self):
        # build() hands the builder's buffers to the trace uncopied.
        builder = TraceBuilder().compute(2).read(0x40).write(0x80)
        trace = builder.build()
        assert not trace.addrs.flags.owndata
        for append in (
            lambda: builder.read(0xC0),
            lambda: builder.barrier(1),
            lambda: builder.extend([0], [OP_READ], [0xC0]),
            lambda: builder.extend([], [], []),
        ):
            with pytest.raises(TraceError, match="trace is built"):
                append()
        assert len(builder) == 2
        assert [trace.op(i) for i in range(2)] == [(2, OP_READ, 0x40), (0, OP_WRITE, 0x80)]


class TestBulkAppend:
    def test_pending_compute_folds_into_first_op(self):
        trace = TraceBuilder().compute(5).extend([2, 3], [OP_READ, OP_WRITE], [0x40, 0x80]).build()
        assert trace.op(0) == (7, OP_READ, 0x40)
        assert trace.op(1) == (3, OP_WRITE, 0x80)

    def test_empty_run_keeps_pending_gap(self):
        builder = TraceBuilder().compute(5).extend([], [], [])
        assert len(builder) == 0
        assert builder.read(0x40).build().op(0) == (5, OP_READ, 0x40)

    def test_interleaves_with_single_ops_in_program_order(self):
        trace = (
            TraceBuilder()
            .read(0x40)
            .compute(1)
            .extend(
                np.array([0, 2], dtype=np.int64),
                np.array([OP_WRITE, OP_READ], dtype=np.uint8),
                np.array([0x80, 0xC0], dtype=np.int64),
            )
            .compute(4)
            .barrier(3)
            .extend([1], [OP_LOCK], [0x100])
            .unlock(0x100)
            .build()
        )
        assert [trace.op(i) for i in range(len(trace))] == [
            (0, OP_READ, 0x40),
            (1, OP_WRITE, 0x80),
            (2, OP_READ, 0xC0),
            (4, OP_BARRIER, 3),
            (1, OP_LOCK, 0x100),
            (0, OP_UNLOCK, 0x100),
        ]
        assert (trace.gaps.dtype, trace.kinds.dtype, trace.addrs.dtype) == (
            np.int64,
            np.uint8,
            np.int64,
        )

    def test_bad_run_refused_at_build(self):
        builder = TraceBuilder().compute(2).extend([-3], [OP_READ], [0])
        with pytest.raises(TraceError, match="negative compute gap"):
            builder.build()
        builder = TraceBuilder().extend([0, 0], [OP_READ, 9], [0, 0])
        with pytest.raises(TraceError, match=r"unknown op kinds \[9\]"):
            builder.build()

    def test_kind_wider_than_a_byte_refused_on_append(self):
        # Stored, 256 would wrap to OP_READ.
        for kind in (256, -1):
            with pytest.raises(TraceError, match=rf"unknown op kinds \[{kind}\]"):
                TraceBuilder().extend([0], np.array([kind]), [0])

    def test_length_mismatch_refused(self):
        with pytest.raises(TraceError, match="equal length"):
            TraceBuilder().extend([0], [OP_READ, OP_READ], [0, 0])


class TestTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            Trace([0], [OP_READ, OP_READ], [0, 0])

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            Trace([-1], [OP_READ], [0])

    def test_unknown_op_kind_rejected(self, tmp_path):
        # Unchecked, kind 9 would run as a barrier and the uint8 cast
        # would wrap int64 256 to OP_READ.
        with pytest.raises(TraceError, match=r"unknown op kinds \[9\]"):
            Trace([0, 0], [OP_READ, 9], [0, 0])
        with pytest.raises(TraceError, match=r"unknown op kinds \[256\]"):
            Trace([0], np.array([256], dtype=np.int64), [0])
        # A saved program is checked on load too.
        path = tmp_path / "bad.npz"
        header = {"name": "bad", "n_procs": 1, "home": "segment", "meta": {}}
        np.savez(
            path,
            gaps_0=np.zeros(1, dtype=np.int64),
            kinds_0=np.array([9], dtype=np.uint8),
            addrs_0=np.zeros(1, dtype=np.int64),
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        with pytest.raises(TraceError, match="unknown op kinds"):
            load_program(path)

    def test_counts_and_totals(self):
        trace = TraceBuilder().compute(10).read(0).compute(5).barrier(0).build()
        assert trace.total_compute() == 15
        assert trace.barrier_count() == 1

    def test_empty_trace(self):
        trace = TraceBuilder().build()
        assert len(trace) == 0
        assert trace.counts() == {}


class TestProgramValidation:
    def test_unbalanced_barriers_rejected(self):
        t0 = TraceBuilder().barrier(0).build()
        t1 = TraceBuilder().build()
        with pytest.raises(TraceError, match="unbalanced barriers"):
            Program("bad", [t0, t1])

    def test_double_lock_rejected(self):
        trace = TraceBuilder().lock(64).lock(64).build()
        with pytest.raises(TraceError, match="acquired twice"):
            Program("bad", [trace])

    def test_unlock_without_lock_rejected(self):
        trace = TraceBuilder().unlock(64).build()
        with pytest.raises(TraceError, match="not held"):
            Program("bad", [trace])

    def test_lock_held_at_end_rejected(self):
        trace = TraceBuilder().lock(64).build()
        with pytest.raises(TraceError, match="still held"):
            Program("bad", [trace])

    def test_lock_reacquire_ok(self):
        trace = TraceBuilder().lock(64).unlock(64).lock(64).unlock(64).build()
        Program("ok", [trace])

    def test_empty_program_rejected(self):
        with pytest.raises(TraceError):
            Program("bad", [])

    def test_describe(self):
        trace = TraceBuilder().read(0).barrier(0).build()
        program = Program("p", [trace], meta={"x": 1})
        description = program.describe()
        assert description["name"] == "p"
        assert description["n_procs"] == 1
        assert description["total_ops"] == 2
        assert description["x"] == 1


class TestIO:
    def test_roundtrip(self, tmp_path):
        traces = [
            TraceBuilder().compute(5).read(64).write(64).barrier(0).build(),
            TraceBuilder().read(128).barrier(0).build(),
        ]
        program = Program("roundtrip", traces, home="round-robin", meta={"seed": 3})
        path = tmp_path / "program.npz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.name == "roundtrip"
        assert loaded.home == "round-robin"
        assert loaded.meta == {"seed": 3}
        assert loaded.n_procs == 2
        for original, restored in zip(program.traces, loaded.traces):
            assert np.array_equal(original.gaps, restored.gaps)
            assert np.array_equal(original.kinds, restored.kinds)
            assert np.array_equal(original.addrs, restored.addrs)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(TraceError):
            load_program(path)
