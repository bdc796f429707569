"""Cross-tree golden records: every RunRecord pinned by digest, on both
processor paths.

``golden_records.json`` holds the sha256 of each record's measured
fields (``events_fired`` included, wall-time telemetry excluded), keyed
``variant/workload``, in three sets:

* ``spine`` — the tier-1 spine of ``test_equivalence.py`` (SPINE x
  em3d/sparse, 4 processors), checked on every run;
* ``grid`` — all 46 variants x 5 paper workloads at 8 processors;
* ``grid32`` — all 46 variants x barnes/sparse at 32 processors;

the two grids under ``DSI_EQUIV_FULL=1``.  Each record is checked
against the same digest twice: from the default run, where processors
retire cache hits by direct execution, and from the monitored run
(``check_invariants=True``), where every op takes the interpreted
processor loop and the coherence monitor checks every access.  So the
digests pin records across trees, and the fast path against the
interpreted loop within one (``test_equivalence.py`` names the fields
of a spine record on which the two paths differ).  Regenerate the file
only for a change that is meant to move results:
``PYTHONPATH=src python tests/test_golden_records.py``; it refuses to
write when the two paths disagree on any record.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.coherence.variants import all_variants
from repro.harness.configs import WORKLOADS
from test_equivalence import PROCS, SPINE, WORKLOAD_SLICE, run_record, spine_record

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_records.json")

#: set name -> (variants, workloads, processors)
SETS = {
    "spine": (SPINE, WORKLOAD_SLICE, PROCS),
    "grid": (all_variants(), WORKLOADS, 8),
    "grid32": (all_variants(), ("barnes", "sparse"), 32),
}


def record_digest(record):
    """sha256 of a record's measured fields."""
    payload = json.dumps(record._measured_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def digests(name, monitored=False):
    """``{"variant/workload": digest}`` for one set, computed in this tree
    on one path (``monitored``: the coherence monitor on, which takes the
    interpreted processor loop)."""
    variants, workloads, n_procs = SETS[name]
    return {
        f"{variant.describe()}/{workload}": record_digest(
            run_record(variant, workload, n_procs, monitored)
        )
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
    golden = _golden()["spine"][key]
    for monitored in (False, True):
        assert record_digest(spine_record(variant, workload, monitored)) == golden, (key, monitored)


@pytest.mark.skipif(
    not os.environ.get("DSI_EQUIV_FULL"),
    reason="230 + 92 records on two paths; set DSI_EQUIV_FULL=1",
)
@pytest.mark.parametrize("name", ["grid", "grid32"])
def test_grid_records_match_golden(name):
    golden = _golden()[name]
    for monitored in (False, True):
        current = digests(name, monitored)
        assert current.keys() == golden.keys()
        assert [key for key in golden if current[key] != golden[key]] == [], monitored


if __name__ == "__main__":
    computed = {name: digests(name) for name in SETS}
    monitored = {name: digests(name, monitored=True) for name in SETS}
    differ = [
        f"{name}/{key}"
        for name in SETS
        for key in computed[name]
        if monitored[name][key] != computed[name][key]
    ]
    if differ:
        sys.exit(f"not written: the two paths differ on {len(differ)} records: {differ[:5]}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(computed, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {GOLDEN_PATH}")
