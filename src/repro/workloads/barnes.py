"""Barnes: hierarchical N-body (paper: "2048 bodies, 5 iterations").

Sharing pattern: the paper attributes Barnes' behaviour to *fine-grain
locking and load imbalance for this small data set* — a large
synchronization component that neither weak consistency nor DSI reduces
(§5.2).  The generator reproduces both properties:

* **tree build**: every body inserts into a shared tree; each touched cell
  is protected by one of a pool of fine-grain locks (lock, read cell,
  write cell, unlock) with real contention;
* **force computation**: a gather over many tree cells and a few other
  processors' bodies, with a heavy per-interaction compute gap;
* **imbalance**: body counts per processor are deterministically skewed
  (up to ~2x), so the per-phase barriers collect long waits.

Each iteration's draws come from one ``rng.integers`` call with
per-element bounds, in the order of the per-body loop
(``tests/scalar_workloads.py``), and each phase is laid out with numpy.
"""

import numpy as np

from repro.trace.ops import OP_LOCK, OP_READ, OP_UNLOCK, OP_WRITE
from repro.workloads.base import BLOCK, RAW, WorkloadContext, replay_bounded


def _scalar_draws(rng, counts, cells, gather):
    """One iteration's draws, one ``rng.integers`` call each."""
    n_procs, n_bodies = len(counts), int(counts.sum())
    tree = [int(rng.integers(0, cells)) for _ in range(n_bodies)]
    force = []
    for _ in range(n_bodies):
        row = [int(rng.integers(0, cells)) for _ in range(gather)]
        for _ in range(2):
            other = int(rng.integers(0, n_procs))
            row += [other, int(rng.integers(0, counts[other]))]
        force.append(row)
    return np.array(tree, dtype=np.int64), np.array(force, dtype=np.int64).reshape(-1, gather + 4)


def _iteration_draws(rng, counts, cells, gather):
    """One iteration's draws, in the per-body loop's order.

    Returns the tree-build cells (one per body) and the force phase's
    ``(bodies, gather + 4)`` table: ``gather`` cells, then twice a
    processor and one of its bodies.  One call draws them all; should
    numpy reject a body-index word, the generator is rewound and the
    iteration drawn one call at a time.
    """
    n_bodies = int(counts.sum())
    force_bounds = [cells] * gather + [len(counts), RAW] * 2
    bounds = np.concatenate([np.full(n_bodies, cells), np.tile(force_bounds, n_bodies)])
    state = rng.bit_generator.state
    draws = rng.integers(0, bounds)
    force = draws[n_bodies:].reshape(n_bodies, gather + 4)
    picks, replayed = replay_bounded(force[:, gather + 1 :: 2], counts[force[:, gather::2]])
    if replayed.all():
        force[:, gather + 1 :: 2] = picks
        return draws[:n_bodies], force
    rng.bit_generator.state = state
    return _scalar_draws(rng, counts, cells, gather)


def barnes(
    n_procs=32,
    bodies_per_proc=24,
    cells=128,
    locks=32,
    gather=16,
    imbalance=0.8,
    iterations=3,
    compute_per_interaction=6,
    seed=404,
):
    """Build the Barnes program.

    ``imbalance`` skews per-processor body counts: processor ``p`` gets
    ``bodies_per_proc * (1 + imbalance * p / (n_procs - 1))`` bodies.
    """
    ctx = WorkloadContext("barnes", n_procs, seed=seed)
    # Shared tree cells: one cache block each, distributed round-robin.
    cell_addr = np.array([ctx.alloc.alloc(c % n_procs, BLOCK) for c in range(cells)])
    cell_locks = [ctx.new_lock() for _ in range(locks)]
    cell_lock = np.array(cell_locks)[np.arange(cells) % locks]
    # Bodies: each processor's bodies in its own segment (a block per
    # body), numbered processor by processor.
    counts = np.array([
        max(1, round(bodies_per_proc * (1 + imbalance * p / max(1, n_procs - 1))))
        for p in range(n_procs)
    ])
    body_addr = np.array([ctx.alloc.alloc(p, BLOCK) for p in range(n_procs) for _ in range(counts[p])])
    first_body = np.concatenate([[0], np.cumsum(counts)])

    # Per body, phase 1: compute, lock, read cell, compute, write cell,
    # unlock.  Phase 2: gather reads with compute after each, two remote
    # body reads, compute, write own body.
    most = int(counts.max())
    tree_gaps = np.tile([4, 0, 3, 0], most)
    tree_kinds = np.tile(np.array([OP_LOCK, OP_READ, OP_WRITE, OP_UNLOCK], dtype=np.uint8), most)
    cpi = compute_per_interaction
    force_gaps = np.tile([0] + [cpi] * gather + [0, 2 * cpi], most)
    force_kinds = np.tile(np.array([OP_READ] * (gather + 2) + [OP_WRITE], dtype=np.uint8), most)

    def phase(gaps, kinds, addrs):
        width = addrs.shape[1]
        for proc in range(n_procs):
            lo, hi = first_body[proc], first_body[proc + 1]
            n_ops = (hi - lo) * width
            ctx.builders[proc].extend(gaps[:n_ops], kinds[:n_ops], addrs[lo:hi].ravel())
        ctx.barrier_all()

    ctx.barrier_all()
    for _iteration in range(iterations):
        tree, force = _iteration_draws(ctx.rng, counts, cells, gather)
        # Phase 1: tree build with fine-grain cell locking.
        locked, cell = cell_lock[tree], cell_addr[tree]
        phase(tree_gaps, tree_kinds, np.column_stack([locked, cell, cell, locked]))
        # Phase 2: force computation — gather over cells and remote bodies.
        remote = body_addr[first_body[force[:, gather::2]] + force[:, gather + 1 :: 2]]
        gathered = cell_addr[force[:, :gather]]
        phase(force_gaps, force_kinds, np.column_stack([gathered, remote, body_addr]))
    return ctx.program(
        seed=seed,
        bodies=int(counts.sum()),
        cells=cells,
        locks=locks,
        iterations=iterations,
        imbalance=imbalance,
    )
