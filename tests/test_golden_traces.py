"""Cross-tree golden traces: every paper generator's program pinned by digest.

``test_workload_equivalence.py`` compares each bulk generator with its
scalar reference inside one tree, so a change that moves both alike (a
shared helper, ``WorkloadContext``, a numpy whose streams differ) still
passes it.  ``golden_traces.json`` pins the programs instead: for each
grid point, the program's name, home and meta and, per processor, the
sha256 of its ``gaps``, ``kinds`` and ``addrs`` bytes.  The grid is the
five paper generators x 1, 3, 5, 8 and 32 processors x quick and
default scale x the default seed and seed 7, keyed
``workload/n_procs/scale/seed``.  Tier-1 checks the quick, default-seed
spine; ``DSI_EQUIV_FULL=1`` checks the whole file.  Regenerate it only
for a change that is meant to move traces:
``PYTHONPATH=src python tests/test_golden_traces.py``.
"""

import hashlib
import json
import os

import pytest

from repro.harness.configs import WORKLOADS, workload_args
from repro.workloads import by_name

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_traces.json")

PROCS = (1, 3, 5, 8, 32)
SCALES = ("quick", "default")
SEEDS = (None, 7)


def key(workload, n_procs, scale, seed):
    return f"{workload}/{n_procs}/{scale}/{'default' if seed is None else seed}"


GRID = {
    key(workload, n_procs, scale, seed): (workload, n_procs, scale, seed)
    for workload in WORKLOADS
    for n_procs in PROCS
    for scale in SCALES
    for seed in SEEDS
}
SPINE = [k for k, (_w, _p, scale, seed) in GRID.items() if scale == "quick" and seed is None]


def program_digest(workload, n_procs, scale, seed):
    """Name, home, meta and one sha256 per processor for one grid point."""
    args = workload_args(workload, quick=scale == "quick", n_procs=n_procs)
    if seed is not None:
        args["seed"] = seed
    program = by_name(workload, **args)
    traces = []
    for trace in program.traces:
        digest = hashlib.sha256()
        for field in (trace.gaps, trace.kinds, trace.addrs):
            digest.update(field.tobytes())
        traces.append(digest.hexdigest())
    return {"name": program.name, "home": program.home, "meta": program.meta, "traces": traces}


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_the_grid():
    assert sorted(_golden()) == sorted(GRID)
    assert len(GRID) == 100 and len(SPINE) == 25


@pytest.mark.parametrize("name", SPINE)
def test_spine_traces_match_golden(name):
    assert program_digest(*GRID[name]) == _golden()[name], name


@pytest.mark.skipif(
    not os.environ.get("DSI_EQUIV_FULL"),
    reason="100 generator runs up to full scale; set DSI_EQUIV_FULL=1",
)
def test_grid_traces_match_golden():
    golden = _golden()
    assert [name for name, point in GRID.items() if program_digest(*point) != golden[name]] == []


if __name__ == "__main__":
    computed = {name: program_digest(*point) for name, point in GRID.items()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(computed, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {GOLDEN_PATH}")
