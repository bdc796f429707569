"""Operation encoding.

A trace is three parallel numpy arrays per processor:

* ``gaps``  — compute cycles since the previous operation (models
  instruction execution between memory references);
* ``kinds`` — operation codes below;
* ``addrs`` — byte address (READ/WRITE), lock-word byte address
  (LOCK/UNLOCK), or barrier id (BARRIER).

The compact encoding keeps multi-million-reference programs cheap to hold
in memory and fast to iterate.
"""

import numpy as np

from repro.errors import TraceError

OP_READ = 0
OP_WRITE = 1
OP_LOCK = 2
OP_UNLOCK = 3
OP_BARRIER = 4

OP_NAMES = {
    OP_READ: "read",
    OP_WRITE: "write",
    OP_LOCK: "lock",
    OP_UNLOCK: "unlock",
    OP_BARRIER: "barrier",
}


class Trace:
    """One processor's operation stream."""

    __slots__ = ("gaps", "kinds", "addrs")

    def __init__(self, gaps, kinds, addrs):
        self.gaps = np.asarray(gaps, dtype=np.int64)
        kinds = np.asarray(kinds)
        # Checked before the uint8 cast, which would wrap 256 to OP_READ.
        unknown = kinds[(kinds < OP_READ) | (kinds > OP_BARRIER)]
        if unknown.size:
            raise TraceError(f"unknown op kinds {sorted(set(unknown.tolist()))}")
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.addrs = np.asarray(addrs, dtype=np.int64)
        if not (len(self.gaps) == len(self.kinds) == len(self.addrs)):
            raise TraceError("trace arrays must have equal length")
        if len(self.gaps) and self.gaps.min() < 0:
            raise TraceError("negative compute gap")

    def __len__(self):
        return len(self.kinds)

    def op(self, index):
        """(gap, kind, addr) tuple for one operation (slow; for tests)."""
        return int(self.gaps[index]), int(self.kinds[index]), int(self.addrs[index])

    def counts(self):
        """{op name: count} summary."""
        unique, counts = np.unique(self.kinds, return_counts=True)
        return {OP_NAMES[int(k)]: int(c) for k, c in zip(unique, counts)}

    def barrier_count(self):
        return int(np.count_nonzero(self.kinds == OP_BARRIER))

    def total_compute(self):
        return int(self.gaps.sum())


class Program:
    """A complete workload: one trace per processor plus metadata."""

    def __init__(self, name, traces, home="segment", meta=None):
        if not traces:
            raise TraceError("a program needs at least one trace")
        self.name = name
        self.traces = list(traces)
        self.home = home  # "segment" (local allocation) or "round-robin"
        self.meta = dict(meta or {})
        self.validate()

    @property
    def n_procs(self):
        return len(self.traces)

    def validate(self):
        """Structural checks: balanced barriers, balanced lock/unlock."""
        barrier_counts = {t.barrier_count() for t in self.traces}
        if len(barrier_counts) > 1:
            raise TraceError(
                f"program {self.name!r}: unbalanced barriers across processors "
                f"({sorted(barrier_counts)})"
            )
        for proc, trace in enumerate(self.traces):
            held = {}
            kinds = trace.kinds
            sync = np.flatnonzero((kinds == OP_LOCK) | (kinds == OP_UNLOCK))
            for kind, addr in zip(kinds[sync].tolist(), trace.addrs[sync].tolist()):
                if kind == OP_LOCK:
                    if held.get(addr):
                        raise TraceError(
                            f"program {self.name!r} proc {proc}: lock {addr:#x} "
                            "acquired twice without release"
                        )
                    held[addr] = True
                elif kind == OP_UNLOCK:
                    if not held.get(addr):
                        raise TraceError(
                            f"program {self.name!r} proc {proc}: unlock of "
                            f"{addr:#x} not held"
                        )
                    held[addr] = False
            if any(held.values()):
                raise TraceError(
                    f"program {self.name!r} proc {proc}: locks still held at end"
                )

    def total_ops(self):
        return sum(len(t) for t in self.traces)

    def describe(self):
        return {
            "name": self.name,
            "n_procs": self.n_procs,
            "total_ops": self.total_ops(),
            "barriers": self.traces[0].barrier_count(),
            "home": self.home,
            **self.meta,
        }
