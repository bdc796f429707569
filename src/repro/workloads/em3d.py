"""EM3D: electromagnetic wave propagation on a bipartite graph
(paper: "192,000 nodes, degree 5, 5% remote").

Sharing pattern: the graph is bipartite — E nodes and H nodes — and
locally allocated: every node's value lives on the processor that owns and
updates it, so **all modifications to shared data occur at the home node**
(§5.2).  Each iteration has two barrier-separated phases:

* E phase: every processor reads the H-node values its E nodes depend on
  (``remote_frac`` of the edges cross processors) and rewrites its own
  E-node values;
* H phase: symmetrically, reads E values and rewrites H values.

Within a phase readers and writers touch *different* arrays, so all
conflicting accesses are cleanly separated by the barriers — the pattern
DSI handles perfectly:

* the producer's rewrite finds remote sharers -> **write invalidation**
  dominates coherence cost under SC;
* **read invalidation is ~zero**: a consumer's miss finds the block
  exclusive at its *home*, so invalidating it is a local hop;
* consumers' copies are version-mismatched every iteration and flush at
  the phase barrier, so the producer's writes find the block idle.

``private_words`` streams a per-processor private region once per phase,
modelling the rest of the program's data set: at the small cache size it
evicts the shared blocks (destroying the retained tag+version history and
with it some of DSI's accuracy), reproducing the paper's smaller gains at
256 KB than at 2 MB.

Each edge table draws its raw PCG64 words once and replays numpy's use
of them (``_replayed_edges``); ``_scalar_edges`` draws it one call at a
time, in the order the replay reproduces.
"""

import numpy as np

from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import BLOCK, RAW, WORD, WorkloadContext, replay_bounded, spread_indices

#: ``random()`` keeps a raw word's top 53 bits: ``(w >> 11) * 2**-53``.
_DOUBLE = 2.0**-53

#: Up to this pool, ``choice(pool, size=k, replace=False)`` always runs
#: Floyd's algorithm; above it numpy shuffles a tail once ``k > pool // 50``.
_FLOYD_POOL = 10_000


def _scalar_edges(rng, n_procs, nodes_per_proc, degree, remote_frac):
    """One edge table, one numpy call per draw.

    Per node, in this order: ``degree`` uniforms (an edge is remote
    below ``remote_frac``), the remote neighbours, the local ones.
    Returns the ``(n_procs * nodes_per_proc, degree)`` global node ids.
    """
    total = n_procs * nodes_per_proc
    rows = np.empty((total, degree), dtype=np.int64)
    for node, row in enumerate(rows):
        own_lo = node - node % nodes_per_proc
        n_remote = int(np.count_nonzero(rng.random(degree) < remote_frac))
        if n_remote:  # a ``choice`` of none would draw nothing
            own = (own_lo, own_lo + nodes_per_proc)
            remote = spread_indices(rng, total, n_remote, exclude_range=own)
            n_remote = len(remote)
            row[:n_remote] = remote
        row[n_remote:] = own_lo + rng.integers(0, nodes_per_proc, size=degree - n_remote)
    return rows


def _draw_slots(pool, nodes_per_proc, degree):
    """A node's bounded draws after its uniforms, per count ``k`` of
    remote neighbours (row ``k``).

    ``choice(pool, size=k, replace=False)`` is Floyd's ``k`` draws, with
    bounds ``pool - k + 1`` up to ``pool``, then a shuffle of ``k - 1``
    draws, bounds ``k`` down to 2; the local neighbours are ``degree - k``
    draws bounded by ``nodes_per_proc``.  A bound of 1 draws nothing.
    Returns each slot's bound (rows padded with 1) and whether it holds
    one of the node's edges: every slot but the shuffle's.
    """
    k_max = min(degree, pool)
    bounds = np.ones((k_max + 1, degree + max(k_max - 1, 0)), dtype=np.int64)
    edge = np.zeros(bounds.shape, dtype=bool)
    for k in range(k_max + 1):
        row = [*range(pool - k + 1, pool + 1), *range(k, 1, -1)] + [nodes_per_proc] * (degree - k)
        bounds[k, : len(row)] = row
        edge[k, :k] = True
        edge[k, max(2 * k - 1, 0) : len(row)] = True
    return bounds, edge


def _floyd_shuffle(draws, pool, k):
    """``choice(pool, size=k, replace=False)`` from its ``2k - 1``
    bounded draws: Floyd's picks (a value already picked gives way to
    ``j``), then the shuffle's swaps."""
    picks = []
    for j, pick in zip(range(pool - k, pool), draws):
        picks.append(j if pick in picks else pick)
    for i, j in zip(range(k - 1, 0, -1), draws[k:]):
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def _set_position(bit_generator, state, n_words, has_uint32, uinteger):
    """Put a PCG64 generator ``n_words`` words past ``state``, with
    ``has_uint32``/``uinteger`` (the buffered high half) as given."""
    bit_generator.state = state
    bit_generator.advance(n_words)  # clears the buffer
    end = bit_generator.state
    end["has_uint32"], end["uinteger"] = has_uint32, uinteger
    bit_generator.state = end


def _replayed_edges(bit_generator, state, n_procs, nodes_per_proc, degree, remote_frac):
    """``_scalar_edges`` from one block of raw words, drawn from
    ``state``, which must be the generator's current state.

    Returns None where numpy would not draw as replayed here: a rejected
    bounded draw, or ``choice``'s tail shuffle.  Otherwise the generator
    is left where numpy's own calls would leave it.
    """
    total = n_procs * nodes_per_proc
    pool = total - nodes_per_proc
    slot_bounds, slot_edge = _draw_slots(pool, nodes_per_proc, degree)
    k_of_remote = np.minimum(np.arange(degree + 1), len(slot_bounds) - 1)
    halves_of_remote = (slot_bounds > 1).sum(axis=1)[k_of_remote]
    buffered = state["has_uint32"]
    words = bit_generator.random_raw(total * (degree + (int(halves_of_remote.max()) + 1) // 2))
    # Per word: the remote count of the ``degree`` uniforms starting there.
    remote = np.concatenate([[0], np.cumsum((words >> 11) * _DOUBLE < remote_frac)])
    remote_at = remote[degree:] - remote[: len(remote) - degree]
    halves_at = halves_of_remote[remote_at].tolist()
    # Place the nodes.  A uniform takes a whole word; a bounded draw takes
    # a 32-bit half: the buffered one if any (``odd``), else a new word's
    # low half, whose high half waits, past any uniforms, for the next.
    starts = []
    word, odd = 0, buffered
    for _ in range(total):
        starts.append(word)
        halves = halves_at[word]
        word += degree + ((halves - odd + 1) >> 1)
        odd = (odd + halves) & 1
    starts = np.array(starts, dtype=np.int64)
    ks = k_of_remote[remote_at[starts]]
    if pool > _FLOYD_POOL and (ks > pool // 50).any():
        return None
    uniform = np.zeros(word, dtype=bool)
    uniform[(starts[:, None] + np.arange(degree)).ravel()] = True
    spare = words[:word][~uniform]
    stream = np.empty(buffered + 2 * len(spare), dtype=np.int64)
    stream[:buffered] = state["uinteger"]
    stream[buffered::2] = spare & (RAW - 1)
    stream[buffered + 1 :: 2] = spare >> 32
    # Every node's slots in a row: node ``i`` has ``n_slots[i]`` from ``first[i]``.
    n_slots = degree + np.maximum(ks - 1, 0)
    first = np.cumsum(n_slots) - n_slots
    slot_k = np.repeat(ks, n_slots)
    slot = np.arange(len(slot_k)) - np.repeat(first, n_slots)
    bounds = slot_bounds[slot_k, slot]
    drawn = bounds > 1
    n_drawn = int(np.count_nonzero(drawn))
    values = np.zeros(len(bounds), dtype=np.int64)
    values[drawn], replayed = replay_bounded(stream[:n_drawn], bounds[drawn])
    if not replayed.all():
        return None
    rows = values[slot_edge[slot_k, slot]].reshape(total, degree)
    for node in np.flatnonzero(ks > 1).tolist():
        k, lo = int(ks[node]), int(first[node])
        rows[node, :k] = _floyd_shuffle(values[lo : lo + 2 * k - 1].tolist(), pool, k)
    own_lo = np.repeat(np.arange(n_procs) * nodes_per_proc, nodes_per_proc)[:, None]
    remote_edge = np.arange(degree) < ks[:, None]
    rows = np.where(remote_edge, rows + (rows >= own_lo) * nodes_per_proc, own_lo + rows)
    # The generator ends ``word`` words on; the stream's last half was
    # the last one buffered, and still is unless a draw took it.
    last = int(stream[-1]) if len(stream) else state["uinteger"]
    _set_position(bit_generator, state, word, len(stream) - n_drawn, last)
    return rows


def _edge_table(rng, n_procs, nodes_per_proc, degree, remote_frac):
    """One edge table as ``(n_procs, nodes_per_proc, degree)`` global node
    ids, replayed from raw words; where the replay does not model numpy's
    draws, the generator is rewound and the table drawn one call at a
    time."""
    bit_generator = rng.bit_generator
    state = bit_generator.state
    args = (n_procs, nodes_per_proc, degree, remote_frac)
    rows = _replayed_edges(bit_generator, state, *args)
    if rows is None:
        bit_generator.state = state
        rows = _scalar_edges(rng, *args)
    return rows.reshape(n_procs, nodes_per_proc, degree)


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
    """Build the EM3D program.

    ``nodes_per_proc`` counts each class: a processor owns that many E
    nodes and as many H nodes.  ``private_words`` sizes the per-processor
    private streaming region (3k words = 12 KB by default).
    """
    ctx = WorkloadContext("em3d", n_procs, seed=seed)
    total = n_procs * nodes_per_proc  # per class
    # Node values (one word per node), locally allocated per owner.
    e_base = ctx.alloc_array(nodes_per_proc)
    h_base = ctx.alloc_array(nodes_per_proc)
    # Private edge lists and streaming region.
    edge_base = [ctx.alloc_words(p, 2 * nodes_per_proc * degree) for p in range(n_procs)]
    priv_base = [ctx.alloc_words(p, max(private_words, 1)) for p in range(n_procs)]

    e_edges = _edge_table(ctx.rng, n_procs, nodes_per_proc, degree, remote_frac)  # E reads H
    h_edges = _edge_table(ctx.rng, n_procs, nodes_per_proc, degree, remote_frac)  # H reads E

    # Per node: read its neighbours' values and its own edge list,
    # compute, write its value.  Then stream the private region: one read
    # per 32-byte block.
    private = np.arange(0, private_words, BLOCK // WORD) * WORD
    gaps = np.concatenate([
        np.tile([0] * (degree + 1) + [compute_per_node], nodes_per_proc),
        np.zeros(len(private), dtype=np.int64),
    ])
    kinds = np.concatenate([
        np.tile(np.array([OP_READ] * (degree + 1) + [OP_WRITE], dtype=np.uint8), nodes_per_proc),
        np.full(len(private), OP_READ, dtype=np.uint8),
    ])
    nodes = np.arange(nodes_per_proc)

    def phase_addrs(read_bases, write_bases, edges, edge_offset):
        """Every processor's op addresses for one phase."""
        read_bases = np.asarray(read_bases)
        by_proc = []
        for proc in range(n_procs):
            owner, offset = np.divmod(edges[proc], nodes_per_proc)
            neighbours = read_bases[owner] + offset * WORD
            edge_list = edge_base[proc] + (edge_offset + nodes * degree) * WORD
            value = write_bases[proc] + nodes * WORD
            node_addrs = np.column_stack([neighbours, edge_list, value]).ravel()
            by_proc.append(np.concatenate([node_addrs, priv_base[proc] + private]))
        return by_proc

    def phase(addrs):
        for proc in range(n_procs):
            ctx.builders[proc].extend(gaps, kinds, addrs[proc])
        ctx.barrier_all()

    e_phase = phase_addrs(h_base, e_base, e_edges, 0)  # E phase: read H, write E
    h_phase = phase_addrs(e_base, h_base, h_edges, nodes_per_proc * degree)  # H phase
    ctx.barrier_all()
    for _iteration in range(iterations):
        phase(e_phase)
        phase(h_phase)
    return ctx.program(
        seed=seed,
        nodes=2 * total,
        degree=degree,
        remote_frac=remote_frac,
        iterations=iterations,
        private_words=private_words,
    )
