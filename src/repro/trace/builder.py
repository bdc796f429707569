"""A convenient, append-only builder for per-processor traces."""

from array import array

import numpy as np

from repro.errors import TraceError
from repro.trace.ops import (
    OP_BARRIER,
    OP_LOCK,
    OP_READ,
    OP_UNLOCK,
    OP_WRITE,
    Trace,
)


class TraceBuilder:
    """Builds one processor's :class:`~repro.trace.ops.Trace`.

    ``compute(n)`` accumulates into the *gap* of the next memory operation,
    so interleaving ``compute``/``read``/``write`` calls in program order
    produces the compact encoding directly.  :meth:`extend` appends a
    whole run of ops from arrays into the same buffers, so per-op and bulk
    appends mix freely.

    >>> b = TraceBuilder()
    >>> b.compute(10).read(0x40).write(0x40).barrier(0)
    TraceBuilder(ops=3)
    >>> trace = b.build()
    >>> trace.counts()
    {'read': 1, 'write': 1, 'barrier': 1}
    """

    def __init__(self):
        self._gaps = array("q")
        self._kinds = array("B")
        self._addrs = array("q")
        self._pending_gap = 0

    def __repr__(self):
        return f"TraceBuilder(ops={len(self._kinds)})"

    def compute(self, cycles):
        """Accumulate compute cycles before the next operation."""
        if cycles < 0:
            raise TraceError("negative compute time")
        self._pending_gap += int(cycles)
        return self

    def _emit(self, kind, addr):
        self._gaps.append(self._pending_gap)
        self._kinds.append(kind)
        self._addrs.append(int(addr))
        self._pending_gap = 0
        return self

    def read(self, addr):
        return self._emit(OP_READ, addr)

    def write(self, addr):
        return self._emit(OP_WRITE, addr)

    def lock(self, addr):
        return self._emit(OP_LOCK, addr)

    def unlock(self, addr):
        return self._emit(OP_UNLOCK, addr)

    def barrier(self, barrier_id=0):
        return self._emit(OP_BARRIER, barrier_id)

    def extend(self, gaps, kinds, addrs):
        """Append ``len(kinds)`` ops from three equal-length arrays.

        A pending :meth:`compute` folds into the first op's gap; an empty
        run appends nothing and leaves it pending.  Gaps and kinds are
        checked by :meth:`build`, as for single ops, except that a kind
        too large for the byte-wide buffer is refused here.
        """
        gaps = np.ascontiguousarray(gaps, dtype=np.int64)
        kinds = np.ascontiguousarray(kinds)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        if not (len(gaps) == len(kinds) == len(addrs)):
            raise TraceError("trace arrays must have equal length")
        if not len(kinds):
            return self
        if kinds.dtype != np.uint8:
            wide = kinds[(kinds < 0) | (kinds > 255)]
            if wide.size:
                raise TraceError(f"unknown op kinds {sorted(set(wide.tolist()))}")
            kinds = kinds.astype(np.uint8)
        first = len(self._gaps)
        self._gaps.frombytes(memoryview(gaps).cast("B"))
        self._kinds.frombytes(memoryview(kinds).cast("B"))
        self._addrs.frombytes(memoryview(addrs).cast("B"))
        self._gaps[first] += self._pending_gap
        self._pending_gap = 0
        return self

    def read_range(self, base, nbytes, stride):
        """Reads covering ``[base, base+nbytes)`` at the given byte stride."""
        return self._range(OP_READ, base, nbytes, stride)

    def write_range(self, base, nbytes, stride):
        return self._range(OP_WRITE, base, nbytes, stride)

    def _range(self, kind, base, nbytes, stride):
        addrs = np.arange(base, base + nbytes, stride, dtype=np.int64)
        return self.extend(
            np.zeros(len(addrs), dtype=np.int64),
            np.full(len(addrs), kind, dtype=np.uint8),
            addrs,
        )

    def __len__(self):
        return len(self._kinds)

    def build(self):
        return Trace(
            np.frombuffer(self._gaps, dtype=np.int64).copy(),
            np.frombuffer(self._kinds, dtype=np.uint8).copy(),
            np.frombuffer(self._addrs, dtype=np.int64).copy(),
        )
