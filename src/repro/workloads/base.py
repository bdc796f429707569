"""Shared infrastructure for the workload generators."""

import numpy as np

from repro.memory.address import Allocator
from repro.trace.builder import TraceBuilder
from repro.trace.ops import OP_READ, Program

#: simulated word size in bytes (1995-era 32-bit data words)
WORD = 4

#: cache block size assumed by the generators (matches the paper's 32 bytes)
BLOCK = 32


class WorkloadContext:
    """Allocator + per-processor trace builders + synchronization helpers.

    Generators allocate named regions ("local allocation": a processor's
    data lives in its own segment, making it the home node), then emit
    operations into per-processor builders, and finally call
    :meth:`program`.
    """

    def __init__(self, name, n_procs, seed=0):
        self.name = name
        self.n_procs = n_procs
        self.alloc = Allocator(n_procs, BLOCK)
        self.builders = [TraceBuilder() for _ in range(n_procs)]
        self.rng = np.random.default_rng(seed)
        self._next_barrier = 0
        self._lock_home = 0

    # ------------------------------------------------------------------
    # Memory layout
    # ------------------------------------------------------------------
    def alloc_words(self, node, n_words):
        """Reserve ``n_words`` words on ``node``; returns the base address."""
        return self.alloc.alloc(node, n_words * WORD)

    def alloc_array(self, n_words_per_proc):
        """A distributed array: ``n_words_per_proc`` words on every node.
        Returns the list of per-node base addresses."""
        return [self.alloc_words(node, n_words_per_proc) for node in range(self.n_procs)]

    def new_lock(self, home=None):
        """Allocate a lock word in its own cache block (no false sharing)."""
        if home is None:
            home = self._lock_home
            self._lock_home = (self._lock_home + 1) % self.n_procs
        return self.alloc.alloc(home, BLOCK)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def barrier_all(self):
        """Emit one global barrier into every processor's trace."""
        barrier_id = self._next_barrier
        self._next_barrier += 1
        for builder in self.builders:
            builder.barrier(barrier_id)

    # ------------------------------------------------------------------
    def program(self, home="segment", **meta):
        meta.setdefault("seed", None)
        meta = {k: v for k, v in meta.items() if v is not None}
        return Program(
            self.name,
            [builder.build() for builder in self.builders],
            home=home,
            meta=meta,
        )

    def stream_private(self, proc, base, n_words, stride_words=8, read_frac=1.0):
        """Stream over a private region (capacity pressure: models the rest
        of a program's data set).  ``stride_words=8`` touches one word per
        32-byte block.  With ``read_frac < 1`` each word is kept on one
        ``rng.random()`` draw, drawn in word order."""
        words = np.arange(0, n_words, stride_words)
        if read_frac < 1.0:
            words = words[self.rng.random(len(words)) < read_frac]
        self.builders[proc].extend(
            np.zeros(len(words), dtype=np.int64),
            np.full(len(words), OP_READ, dtype=np.uint8),
            base + words * WORD,
        )


def spread_indices(rng, total, count, exclude_range=None):
    """``count`` distinct indices in ``[0, total)``, optionally avoiding a
    half-open ``exclude_range`` — used to pick *remote* neighbours."""
    if exclude_range is None:
        pool = total
        picks = rng.choice(pool, size=min(count, pool), replace=False)
        return picks.tolist()
    lo, hi = exclude_range
    pool = total - (hi - lo)
    if pool <= 0:
        return []
    picks = rng.choice(pool, size=min(count, pool), replace=False)
    return [int(p) if p < lo else int(p) + (hi - lo) for p in picks]
