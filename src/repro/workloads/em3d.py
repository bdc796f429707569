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
"""

import numpy as np

from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import WORD, WorkloadContext, spread_indices


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

    def build_edges():
        # Per node, in this order: ``degree`` uniforms (an edge is remote
        # below ``remote_frac``), the remote neighbours, the local ones.
        rng = ctx.rng
        table = {}
        for proc in range(n_procs):
            own_lo = proc * nodes_per_proc
            own_hi = own_lo + nodes_per_proc
            rows = np.empty((nodes_per_proc, degree), dtype=np.int64)
            for row in rows:
                n_remote = int(np.count_nonzero(rng.random(degree) < remote_frac))
                if n_remote:  # a ``choice`` of none would draw nothing
                    remote = spread_indices(rng, total, n_remote, exclude_range=(own_lo, own_hi))
                    n_remote = len(remote)
                    row[:n_remote] = remote
                row[n_remote:] = own_lo + rng.integers(0, nodes_per_proc, size=degree - n_remote)
            table[proc] = rows
        return table

    e_edges = build_edges()  # E nodes read these H nodes
    h_edges = build_edges()  # H nodes read these E nodes

    # Per node: read its neighbours' values and its own edge list,
    # compute, write its value.
    node_gaps = np.tile([0] * (degree + 1) + [compute_per_node], nodes_per_proc)
    node_kinds = np.tile(
        np.array([OP_READ] * (degree + 1) + [OP_WRITE], dtype=np.uint8), nodes_per_proc
    )
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
            by_proc.append(np.column_stack([neighbours, edge_list, value]).ravel())
        return by_proc

    def phase(addrs):
        for proc in range(n_procs):
            ctx.builders[proc].extend(node_gaps, node_kinds, addrs[proc])
            if private_words:
                ctx.stream_private(proc, priv_base[proc], private_words)
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
