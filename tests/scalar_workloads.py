"""Scalar reference generators: one builder call per op.

These are the per-op loops the bulk generators in ``repro.workloads``
replaced, kept as the definition of the traces those generators must
reproduce byte for byte (``test_workload_equivalence.py``).  They emit
into :class:`ListBuilder`, the list-backed builder that the array-backed
``TraceBuilder`` replaced, so the comparison covers the builder too.
Only ``sparse`` differs from its original loop: it distributes and
sweeps ``n_procs * (x_words // n_procs)`` words, as the bulk generator
does.
"""

import numpy as np

from repro.trace.ops import OP_BARRIER, OP_LOCK, OP_READ, OP_UNLOCK, OP_WRITE, Trace
from repro.workloads.base import WORD, WorkloadContext, spread_indices

N_ARRAYS = 3


class ListBuilder:
    """Per-op trace builder over Python lists."""

    def __init__(self):
        self._gaps = []
        self._kinds = []
        self._addrs = []
        self._pending_gap = 0

    def compute(self, cycles):
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

    def build(self):
        return Trace(
            np.array(self._gaps, dtype=np.int64),
            np.array(self._kinds, dtype=np.uint8),
            np.array(self._addrs, dtype=np.int64),
        )


def _context(name, n_procs, seed):
    ctx = WorkloadContext(name, n_procs, seed=seed)
    ctx.builders = [ListBuilder() for _ in range(n_procs)]
    return ctx


def stream_private(ctx, proc, base, n_words, stride_words=8, read_frac=1.0):
    """``WorkloadContext.stream_private``, one draw and one read per word."""
    builder = ctx.builders[proc]
    for word in range(0, n_words, stride_words):
        if read_frac >= 1.0 or ctx.rng.random() < read_frac:
            builder.read(base + word * WORD)


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
    ctx = _context("sparse", n_procs, seed)
    chunk_words = x_words // n_procs
    x_words = n_procs * chunk_words
    x_chunks = ctx.alloc_array(chunk_words)
    a_base = [ctx.alloc_words(p, a_words_per_proc) for p in range(n_procs)]
    y_base = [ctx.alloc_words(p, rows_per_proc) for p in range(n_procs)]
    residual_lock = ctx.new_lock()
    residual = ctx.alloc_words(0, 1)

    def x_addr(word):
        owner, offset = divmod(word, chunk_words)
        return x_chunks[owner] + offset * WORD

    ctx.barrier_all()
    for _iteration in range(iterations):
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            a_cursor = 0
            for row in range(rows_per_proc):
                for _sweep in range(sweeps_per_row):
                    for word in range(0, x_words, sweep_stride):
                        builder.read(x_addr(word))
                        if word % (sweep_stride * 4) == 0:
                            builder.read(a_base[proc] + (a_cursor % a_words_per_proc) * WORD)
                            a_cursor += a_stride
                        builder.compute(compute_per_chunk)
                builder.write(y_base[proc] + row * WORD)
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            builder.lock(residual_lock)
            builder.read(residual).compute(4).write(residual)
            builder.unlock(residual_lock)
        ctx.barrier_all()
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            builder.read(y_base[proc])
            for offset in range(chunk_words):
                builder.write(x_chunks[proc] + offset * WORD)
            builder.compute(compute_per_chunk * 8)
        ctx.barrier_all()
    return ctx.program(
        home="round-robin",
        seed=seed,
        x_words=x_words,
        rows_per_proc=rows_per_proc,
        sweeps_per_row=sweeps_per_row,
        iterations=iterations,
    )


def tomcatv(
    n_procs=32,
    rows_per_proc=16,
    cols=128,
    iterations=3,
    compute_per_point=8,
    read_stride_words=2,
    seed=505,
):
    ctx = _context("tomcatv", n_procs, seed)
    row_words = cols
    arrays = [
        [ctx.alloc_words(p, rows_per_proc * row_words) for p in range(n_procs)]
        for _ in range(N_ARRAYS)
    ]

    def row_addr(array, proc, local_row):
        return arrays[array][proc] + local_row * row_words * WORD

    stride = read_stride_words * WORD

    ctx.barrier_all()
    for _iteration in range(iterations):
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            if proc > 0:
                for col in range(0, cols, read_stride_words * 4):
                    builder.read(row_addr(0, proc - 1, rows_per_proc - 1) + col * WORD)
            if proc < n_procs - 1:
                for col in range(0, cols, read_stride_words * 4):
                    builder.read(row_addr(0, proc + 1, 0) + col * WORD)
            for local_row in range(rows_per_proc):
                for col_byte in range(0, row_words * WORD, stride):
                    builder.read(row_addr(0, proc, local_row) + col_byte)
                    builder.read(row_addr(1, proc, local_row) + col_byte)
                    builder.compute(compute_per_point)
                    builder.write(row_addr(2, proc, local_row) + col_byte)
                    if col_byte:
                        builder.read(row_addr(2, proc, local_row) + col_byte - stride)
        ctx.barrier_all()
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            for local_row in range(rows_per_proc):
                for col_byte in range(0, row_words * WORD, stride):
                    builder.read(row_addr(2, proc, local_row) + col_byte)
                    builder.compute(compute_per_point)
                    builder.write(row_addr(0, proc, local_row) + col_byte)
        ctx.barrier_all()
    return ctx.program(
        seed=seed,
        rows=n_procs * rows_per_proc,
        cols=cols,
        arrays=N_ARRAYS,
        iterations=iterations,
        wss_bytes_per_proc=N_ARRAYS * rows_per_proc * cols * WORD,
    )


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
    ctx = _context("ocean", n_procs, seed)
    row_words = cols
    band_base = [ctx.alloc_words(p, rows_per_proc * row_words) for p in range(n_procs)]

    def row_addr(proc, local_row):
        return band_base[proc] + local_row * row_words * WORD

    def read_row(builder, base):
        for col in range(0, cols, ghost_stride):
            builder.read(base + col * WORD)

    ctx.barrier_all()
    for _day in range(days):
        for sweep in range(sweeps_per_day):
            parity = sweep % 2
            for proc in range(n_procs):
                builder = ctx.builders[proc]
                if proc > 0:
                    read_row(builder, row_addr(proc - 1, rows_per_proc - 1))
                if proc < n_procs - 1:
                    read_row(builder, row_addr(proc + 1, 0))
                for local_row in range(rows_per_proc):
                    global_row = proc * rows_per_proc + local_row
                    base = row_addr(proc, local_row)
                    if global_row % 2 == 0:
                        columns = range(parity, cols, 2)
                    elif parity == 1:
                        columns = range(cols)
                    else:
                        continue
                    for col in columns:
                        builder.read(base + col * WORD)
                        builder.compute(compute_per_point)
                        builder.write(base + col * WORD)
            ctx.barrier_all()
    return ctx.program(
        seed=seed,
        rows=n_procs * rows_per_proc,
        cols=cols,
        sweeps_per_day=sweeps_per_day,
        days=days,
    )


def em3d(
    n_procs=32,
    nodes_per_proc=128,
    degree=5,
    remote_frac=0.05,
    iterations=5,
    compute_per_node=3,
    private_words=1024,
    seed=202,
):
    ctx = _context("em3d", n_procs, seed)
    total = n_procs * nodes_per_proc
    e_base = ctx.alloc_array(nodes_per_proc)
    h_base = ctx.alloc_array(nodes_per_proc)
    edge_base = [ctx.alloc_words(p, 2 * nodes_per_proc * degree) for p in range(n_procs)]
    priv_base = [ctx.alloc_words(p, max(private_words, 1)) for p in range(n_procs)]

    def addr_of(bases, global_node):
        owner, offset = divmod(global_node, nodes_per_proc)
        return bases[owner] + offset * WORD

    def build_edges():
        table = {}
        for proc in range(n_procs):
            own_lo = proc * nodes_per_proc
            own_hi = own_lo + nodes_per_proc
            rows = []
            for _node in range(nodes_per_proc):
                n_remote = sum(1 for _ in range(degree) if ctx.rng.random() < remote_frac)
                remote = spread_indices(ctx.rng, total, n_remote, exclude_range=(own_lo, own_hi))
                n_local = degree - len(remote)
                local = (own_lo + ctx.rng.integers(0, nodes_per_proc, size=n_local)).tolist()
                rows.append(remote + local)
            table[proc] = rows
        return table

    e_edges = build_edges()
    h_edges = build_edges()

    def phase(read_bases, write_bases, edges, edge_offset):
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            rows = edges[proc]
            for node in range(nodes_per_proc):
                for neighbour in rows[node]:
                    builder.read(addr_of(read_bases, neighbour))
                builder.read(edge_base[proc] + (edge_offset + node * degree) * WORD)
                builder.compute(compute_per_node)
                builder.write(write_bases[proc] + node * WORD)
            if private_words:
                stream_private(ctx, proc, priv_base[proc], private_words)
        ctx.barrier_all()

    ctx.barrier_all()
    for _iteration in range(iterations):
        phase(h_base, e_base, e_edges, 0)
        phase(e_base, h_base, h_edges, nodes_per_proc * degree)
    return ctx.program(
        seed=seed,
        nodes=2 * total,
        degree=degree,
        remote_frac=remote_frac,
        iterations=iterations,
        private_words=private_words,
    )
