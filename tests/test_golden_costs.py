"""Cross-tree golden costs: the benchmark's work counters pinned exactly.

A traced run of the repository benchmark
(``python3 perfbench/run.py --workload W --seed 0 --trace 1``) counts the
work one pass of a workload makes the simulator do: engine events,
processor wake-ups, cache-controller calls, cache and write-buffer calls,
and directory messages.  For a given seed these counts repeat exactly,
while host speed on a shared machine swings by tens of per cent between
runs.  ``golden_costs.json`` pins the five counters for every workload of
``BENCHMARK.json``, so a change that makes the simulator do more work
fails here rather than hiding in the host's noise.

Tier-1 checks the file's shape; the traced runs (about 10 s each) run
under ``DSI_EQUIV_FULL=1``.  A change meant to move a count regenerates
the file and states the old and new counts:
``PYTHONPATH=src python tests/test_golden_costs.py``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden_costs.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
PERFBENCH = os.path.join(ROOT, "perfbench", "run.py")

#: The per-layer metrics of a traced run that count work, not host time.
COUNTERS = ("engine.events", "processor.wakeups", "protocol.calls", "memory.calls", "directory.msgs")


def workloads():
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)["workloads"]]


def traced_result(workload):
    """The result line of one traced benchmark pass at seed 0, run as its
    own process exactly as the benchmark runs it."""
    done = subprocess.run(
        [sys.executable, PERFBENCH, "--workload", workload, "--seed", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"perfbench {workload} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def costs(result):
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_costs_file_covers_every_workload():
    golden = _golden()
    assert sorted(golden) == sorted(workloads())
    for workload, counts in golden.items():
        assert sorted(counts) == sorted(COUNTERS), workload


@pytest.mark.skipif(
    not os.environ.get("DSI_EQUIV_FULL"),
    reason="one traced benchmark pass per workload; set DSI_EQUIV_FULL=1",
)
@pytest.mark.parametrize("workload", workloads())
def test_traced_costs_match_golden(workload):
    result = traced_result(workload)
    assert result["correct"], f"{workload}: {result['failed']} of {result['attempted']} specs failed"
    assert costs(result) == _golden()[workload]


if __name__ == "__main__":
    computed = {}
    for name in workloads():
        traced = traced_result(name)
        if not traced["correct"]:
            raise SystemExit(f"{name}: {traced['failed']} of {traced['attempted']} specs failed")
        computed[name] = costs(traced)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(computed, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {GOLDEN_PATH}")
