"""Tomcatv: vectorized mesh generation (paper: "512x512, 5 iterations").

Sharing pattern: several large arrays are row-partitioned; almost all
accesses are to a processor's own partition, with a small amount of
boundary-row sharing between neighbours and barriers between the phases of
each iteration.  What matters is the *working set*:

* at the small cache size the per-processor working set does not fit, so
  execution is dominated by capacity misses to idle (home-local) blocks
  that **no coherence optimisation helps** — the paper sees no change for
  any protocol at 256 KB;
* at the large cache size the arrays fit and execution is compute-bound
  with a small coherence tail from the boundary rows, yielding the paper's
  few-percent improvements (larger under a slow network, Figure 4).

Default geometry: 3 arrays x ``rows_per_proc=16`` x ``cols=128`` x 4-byte
words = 24 KB per processor — between the scaled cache sizes (16 KB /
128 KB) exactly as 512x512 sat between 256 KB and 2 MB.
"""

import numpy as np

from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import WORD, WorkloadContext

N_ARRAYS = 3


def tomcatv(
    n_procs=32,
    rows_per_proc=16,
    cols=128,
    iterations=3,
    compute_per_point=8,
    read_stride_words=2,
    seed=505,
):
    """Build the Tomcatv program."""
    ctx = WorkloadContext("tomcatv", n_procs, seed=seed)
    row_words = cols
    arrays = [
        [ctx.alloc_words(p, rows_per_proc * row_words) for p in range(n_procs)]
        for _ in range(N_ARRAYS)
    ]

    def row_addr(array, proc, local_row):
        return arrays[array][proc] + local_row * row_words * WORD

    stride = read_stride_words * WORD
    # Byte offset of every visited point of a band, row by row.
    col_bytes = np.arange(0, row_words * WORD, stride)
    row_starts = np.arange(rows_per_proc)[:, None] * row_words * WORD
    points = (row_starts + col_bytes).ravel()
    n_points = len(points)

    # Phase 1 visits each point with four ops: read arrays 0 and 1,
    # compute, write array 2, then read array 2's previous point.  That
    # recurrence (tomcatv's sweeps carry row dependencies) is skipped at
    # a row's first point; under WC it finds its block's write still
    # outstanding — the paper's "read wb" stall that cancels the
    # write-buffer win at the small cache size.
    keep = np.ones((n_points, 4), dtype=bool)
    keep[:, 3] = np.tile(col_bytes > 0, rows_per_proc)
    keep = keep.ravel()
    stencil_gaps = np.tile([0, 0, compute_per_point, 0], n_points)[keep]
    stencil_kinds = np.tile(
        np.array([OP_READ, OP_READ, OP_WRITE, OP_READ], dtype=np.uint8), n_points
    )[keep]
    # Phase 2 visits each point with two: read array 2, compute, write array 0.
    copy_gaps = np.tile([0, compute_per_point], n_points)
    copy_kinds = np.tile(np.array([OP_READ, OP_WRITE], dtype=np.uint8), n_points)

    stencil = []
    copy = []
    for proc in range(n_procs):
        a0, a1, a2 = (arrays[a][proc] + points for a in range(N_ARRAYS))
        stencil.append(np.column_stack([a0, a1, a2, a2 - stride]).ravel()[keep])
        copy.append(np.column_stack([a2, a0]).ravel())
    # Boundary rows of the neighbours: every fourth visited column.
    row_bytes = row_words * WORD
    ghost_step = read_stride_words * 4 * WORD

    ctx.barrier_all()
    for _iteration in range(iterations):
        # Phase 1: stencil over own rows of arrays 0/1, writing array 2;
        # boundary rows of the neighbours are read once.
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            if proc > 0:
                builder.read_range(
                    row_addr(0, proc - 1, rows_per_proc - 1), row_bytes, ghost_step
                )
            if proc < n_procs - 1:
                builder.read_range(row_addr(0, proc + 1, 0), row_bytes, ghost_step)
            builder.extend(stencil_gaps, stencil_kinds, stencil[proc])
        ctx.barrier_all()
        # Phase 2: sweep array 2 back into array 0 (private traffic).
        for proc in range(n_procs):
            ctx.builders[proc].extend(copy_gaps, copy_kinds, copy[proc])
        ctx.barrier_all()
    return ctx.program(
        seed=seed,
        rows=n_procs * rows_per_proc,
        cols=cols,
        arrays=N_ARRAYS,
        iterations=iterations,
        wss_bytes_per_proc=N_ARRAYS * rows_per_proc * cols * WORD,
    )
