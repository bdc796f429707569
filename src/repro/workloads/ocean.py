"""Ocean: red-black relaxation over a row-partitioned grid
(paper: "98x98, 1 day").

Sharing pattern: each processor owns a thin band of grid rows (the paper's
98-row ocean over 32 processors leaves ~3 rows per processor, so *most*
rows are boundary rows shared with a neighbour).  Within a sweep every
processor first reads its neighbours' adjacent (ghost) rows, then updates
its own rows — and all processors sweep concurrently, so a neighbour's
ghost-row read races with the owner's rewrite *inside* the sweep.  Those
are the paper's "un-synchronized accesses to shared data": no
synchronization separates the conflicting read from the conflicting
write, so self-invalidation (which happens at sync operations) fires too
late and the directory must still send explicit invalidations — DSI has
little effect on Ocean while weak consistency, which simply overlaps the
write latency, helps a lot (§5.2).

Rows mix two update rates, as the real multigrid code does across levels:
even-indexed rows are updated every sweep (alternating columns), odd rows
only on odd sweeps.  A neighbour's ghost re-read of an every-sweep row is
always version-mismatched — DSI marks it, and under tear-off the owner's
next write needs no invalidation; a ghost re-read of an every-other-sweep
row matches half the time and fetches a normal block whose invalidation
remains explicit.  The blend reproduces Table 3's *partial* invalidation
reduction (~half) with little execution-time change.
"""

import numpy as np

from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import WORD, WorkloadContext


def ocean(
    n_procs=32,
    rows_per_proc=3,
    cols=64,
    sweeps_per_day=4,
    days=3,
    compute_per_point=2,
    ghost_stride=2,
    seed=303,
):
    """Build the Ocean program (row-partitioned red-black sweeps; one
    barrier per sweep, mirroring the convergence check of the real code)."""
    ctx = WorkloadContext("ocean", n_procs, seed=seed)
    row_words = cols
    band_base = [ctx.alloc_words(p, rows_per_proc * row_words) for p in range(n_procs)]

    def row_addr(proc, local_row):
        return band_base[proc] + local_row * row_words * WORD

    # Own-row updates of one sweep, by sweep parity and processor: even
    # rows every sweep (columns alternate by colour), odd rows on odd
    # sweeps only.  Each updated point is a read, a compute step and a
    # write.
    band = np.arange(rows_per_proc * row_words).reshape(rows_per_proc, row_words) * WORD
    colour = np.arange(cols) % 2
    updates = ([], [])
    for proc in range(n_procs):
        even_row = (proc * rows_per_proc + np.arange(rows_per_proc)) % 2 == 0
        for parity, by_proc in enumerate(updates):
            updated = np.where(even_row[:, None], colour == parity, parity == 1)
            by_proc.append(np.repeat(band_base[proc] + band[updated], 2))
    update_gaps = np.tile([0, compute_per_point], band.size)
    update_kinds = np.tile(np.array([OP_READ, OP_WRITE], dtype=np.uint8), band.size)
    row_bytes = row_words * WORD
    ghost_step = ghost_stride * WORD

    ctx.barrier_all()
    for _day in range(days):
        for sweep in range(sweeps_per_day):
            parity = sweep % 2
            for proc in range(n_procs):
                builder = ctx.builders[proc]
                # Ghost rows: read the adjacent rows of both neighbours.
                if proc > 0:
                    builder.read_range(
                        row_addr(proc - 1, rows_per_proc - 1), row_bytes, ghost_step
                    )
                if proc < n_procs - 1:
                    builder.read_range(row_addr(proc + 1, 0), row_bytes, ghost_step)
                addrs = updates[parity][proc]
                builder.extend(
                    update_gaps[: len(addrs)], update_kinds[: len(addrs)], addrs
                )
            ctx.barrier_all()
    return ctx.program(
        seed=seed,
        rows=n_procs * rows_per_proc,
        cols=cols,
        sweeps_per_day=sweeps_per_day,
        days=days,
    )
