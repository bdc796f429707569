"""Sparse: iterative solve with a broadcast vector
(paper: "512x512 dense, 5 iterations").

Sharing pattern: the solution vector ``x`` is chunk-distributed (chunk
``p`` rewritten by processor ``p`` every iteration) while the
matrix-vector product makes **every processor sweep the whole vector in
the same order** immediately after the barrier.  Homes are round-robin, so
the writer of a chunk is (almost) never its home.

This is the access pattern where DSI shines brightest, for two reasons the
paper's §5.2 highlights:

* **read invalidation** — the first reader of each freshly-written block
  triggers a three-hop owner invalidation at a remote home, and because
  all processors sweep in lockstep, the other ~31 readers queue behind the
  busy directory entry and *all* absorb that invalidation latency.  DSI
  flushes the writer's copy at its synchronization point, so the whole
  convoy finds the block idle.  Weak consistency cannot eliminate any of
  this, which is why the paper measures DSI *outperforming* WC on Sparse.
* **write invalidation** — each owner's rewrite otherwise finds ~31
  sharers; with DSI the readers' (version-mismatched) copies flushed at
  the barrier.

The per-processor self-invalidate set (~``x_words/8`` blocks, default 224
non-home blocks) deliberately exceeds a 64-entry FIFO while the vector is
re-swept within the iteration, reproducing Figure 5: early FIFO
self-invalidation forces re-misses that return *normal* blocks and forfeit
most of DSI's benefit.
"""

import numpy as np

from repro.errors import ConfigError
from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import WORD, WorkloadContext


def sparse(
    n_procs=32,
    x_words=2048,
    rows_per_proc=2,
    sweeps_per_row=2,
    sweep_stride=2,
    a_words_per_proc=1024,
    a_stride=8,
    iterations=4,
    compute_per_chunk=2,
    seed=101,
):
    """Build the Sparse program.

    Each of the ``rows_per_proc`` rows sweeps the full vector
    ``sweeps_per_row`` times at ``sweep_stride`` words, interleaved with
    strided reads of a private matrix panel of ``a_words_per_proc``
    words; afterwards every processor rewrites its own chunk of ``x``.
    The vector holds ``n_procs * (x_words // n_procs)`` words, an equal
    chunk per processor (recorded as the program's ``x_words``).
    """
    if n_procs > x_words:
        raise ConfigError(
            f"sparse needs at least one word of x per processor: "
            f"n_procs={n_procs} > x_words={x_words}"
        )
    ctx = WorkloadContext("sparse", n_procs, seed=seed)
    chunk_words = x_words // n_procs
    x_words = n_procs * chunk_words
    x_chunks = ctx.alloc_array(chunk_words)
    a_base = [ctx.alloc_words(p, a_words_per_proc) for p in range(n_procs)]
    y_base = [ctx.alloc_words(p, rows_per_proc) for p in range(n_procs)]
    residual_lock = ctx.new_lock()
    residual = ctx.alloc_words(0, 1)

    # One sweep of x: a read per visited word, then a compute step; the
    # first word and every fourth after it add a matrix-panel read.
    words = np.arange(0, x_words, sweep_stride)
    has_panel = np.arange(len(words)) % 4 == 0
    width = 1 + has_panel
    x_slot = np.cumsum(width) - width
    sweep_x = np.zeros(int(width.sum()), dtype=np.int64)
    sweep_x[x_slot] = np.asarray(x_chunks)[words // chunk_words] + words % chunk_words * WORD
    sweep_panel = np.zeros(len(sweep_x), dtype=bool)
    sweep_panel[x_slot[has_panel] + 1] = True
    sweep_ends_word = np.ones(len(sweep_x), dtype=bool)
    sweep_ends_word[x_slot[has_panel]] = False

    # The matrix-vector product: each row's sweeps, then its y write.  It
    # is the same for every processor up to two bases, so the template
    # holds offsets in the panel slots (the cursor runs on across sweeps
    # and rows) and the y slots, and each processor adds its own bases.
    def layout(sweep, y_op):
        return np.tile(np.append(np.tile(sweep, sweeps_per_row), y_op), rows_per_proc)

    offsets = layout(sweep_x, 0)
    in_panel = layout(sweep_panel, False)
    is_y = layout(np.zeros(len(sweep_x), dtype=bool), True)
    ends_word = layout(sweep_ends_word, False)
    offsets[in_panel] = np.arange(np.count_nonzero(in_panel)) * a_stride % a_words_per_proc * WORD
    offsets[is_y] = np.arange(rows_per_proc) * WORD
    # An op's gap is the compute step of the word finished just before it.
    gaps = np.zeros(len(offsets), dtype=np.int64)
    gaps[1:][ends_word[:-1]] = compute_per_chunk
    kinds = np.where(is_y, OP_WRITE, OP_READ).astype(np.uint8)
    matvec = [
        offsets + in_panel * a_base[proc] + is_y * y_base[proc] for proc in range(n_procs)
    ]

    ctx.barrier_all()
    for _iteration in range(iterations):
        # Matrix-vector product: every processor sweeps x front-to-back.
        for proc in range(n_procs):
            ctx.builders[proc].extend(gaps, kinds, matvec[proc])
        # Lock-protected residual reduction.
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            builder.lock(residual_lock)
            builder.read(residual).compute(4).write(residual)
            builder.unlock(residual_lock)
        ctx.barrier_all()
        # x = f(y): every owner rewrites its chunk, invalidating the world.
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            builder.read(y_base[proc])
            builder.write_range(x_chunks[proc], chunk_words * WORD, WORD)
            builder.compute(compute_per_chunk * 8)
        ctx.barrier_all()
    # Round-robin homes: the vector interleaves across the machine, so a
    # reader's miss on a freshly-written block takes a three-hop
    # invalidation through a remote home.
    return ctx.program(
        home="round-robin",
        seed=seed,
        x_words=x_words,
        rows_per_proc=rows_per_proc,
        sweeps_per_row=sweeps_per_row,
        iterations=iterations,
    )
