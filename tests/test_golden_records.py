"""Cross-tree golden records: every fast-path RunRecord pinned by digest.

``python -m repro.harness.equivalence`` compares the fast path with the
interpreter inside one tree, so an edit to code both paths share
(``Resource``, ``Network``, ``Message``, the controllers' ``_dispatch``)
that shifts both alike still passes it.  ``golden_records.json`` pins each
fast-path record instead: the sha256 of its measured fields
(``events_fired`` included, wall-time telemetry excluded), keyed
``variant/workload``, in three sets:

* ``spine`` — the tier-1 spine of ``test_equivalence.py`` (SPINE x
  em3d/sparse, 4 processors), checked on every run;
* ``grid`` — all 46 variants x 5 paper workloads at 8 processors;
* ``grid32`` — all 46 variants x barnes/sparse at 32 processors;

the two grids under ``DSI_EQUIV_FULL=1``.  Regenerate the file only for a
change that is meant to move results:
``PYTHONPATH=src python tests/test_golden_records.py``.
"""

import hashlib
import json
import os

import pytest

from repro.harness import equivalence
from repro.harness.configs import WORKLOADS, workload_args
from repro.harness.runspec import RunSpec
from test_equivalence import PROCS, SPINE, WORKLOAD_SLICE

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_records.json")

#: set name -> (variants, workloads, processors)
SETS = {
    "spine": (SPINE, WORKLOAD_SLICE, PROCS),
    "grid": (equivalence.all_variants(), WORKLOADS, equivalence.SWEEP_PROCS),
    "grid32": (equivalence.all_variants(), ("barnes", "sparse"), 32),
}


def record_digest(variant, workload, n_procs):
    """sha256 of the fast-path record's measured fields."""
    config = equivalence.config_for_variant(variant, n_procs=n_procs)
    spec = RunSpec.create(workload, config, **workload_args(workload, quick=True, n_procs=n_procs))
    record = spec.execute(spec.build_program())
    payload = json.dumps(record._measured_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def digests(name):
    """``{"variant/workload": digest}`` for one set, computed in this tree."""
    variants, workloads, n_procs = SETS[name]
    return {
        f"{variant.describe()}/{workload}": record_digest(variant, workload, n_procs)
        for variant in variants
        for workload in workloads
    }


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_every_set():
    golden = _golden()
    assert set(golden) == set(SETS)
    assert [len(golden[name]) for name in ("spine", "grid", "grid32")] == [16, 230, 92]


@pytest.mark.parametrize("variant", SPINE, ids=lambda v: v.describe())
@pytest.mark.parametrize("workload", WORKLOAD_SLICE)
def test_spine_records_match_golden(variant, workload):
    key = f"{variant.describe()}/{workload}"
    assert record_digest(variant, workload, PROCS) == _golden()["spine"][key], key


@pytest.mark.skipif(
    not os.environ.get("DSI_EQUIV_FULL"),
    reason="230 + 92 fast-path runs; set DSI_EQUIV_FULL=1",
)
@pytest.mark.parametrize("name", ["grid", "grid32"])
def test_grid_records_match_golden(name):
    golden = _golden()[name]
    current = digests(name)
    assert current.keys() == golden.keys()
    assert [key for key in golden if current[key] != golden[key]] == []


if __name__ == "__main__":
    computed = {name: digests(name) for name in SETS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(computed, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {GOLDEN_PATH}")
