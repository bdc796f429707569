"""Execution-path microbenchmark: interpreted vs compiled vs fast path.

One workload, one protocol, three execution modes of the same machine:

``interpreted``
    Both compiled paths off — the reference interpreter (guard-chain
    transition dispatch, every access through the event core).
``compiled``
    Layer 1 only: transition tables lowered to integer-indexed dispatch
    (:mod:`repro.coherence.compile`), accesses still interpreted.
``fastpath``
    Layers 1+2: compiled dispatch plus direct execution
    (:mod:`repro.processor.fastpath`) retiring cache hits outside the
    engine.

All three produce bit-identical :class:`~repro.stats.record.RunRecord`
values (proved by :mod:`repro.harness.equivalence`); this module measures
what that invisibility costs/buys.  Runs under pytest-benchmark
(``pytest benchmarks/bench_dispatch.py --benchmark-only``) or standalone
(``python benchmarks/bench_dispatch.py``) — CI uses the standalone form.
"""

import os
import time

import pytest

from repro.harness.configs import paper_config, workload_args
from repro.harness.runspec import RunSpec

WORKLOAD = os.environ.get("DSI_DISPATCH_WORKLOAD", "sparse")
PROTOCOL = os.environ.get("DSI_DISPATCH_PROTOCOL", "V")
PROCS = int(os.environ.get("DSI_DISPATCH_PROCS", "8"))

MODES = {
    "interpreted": {"compiled_dispatch": False, "direct_execution": False},
    "compiled": {"compiled_dispatch": True, "direct_execution": False},
    "fastpath": {"compiled_dispatch": True, "direct_execution": True},
}

def make_spec(mode):
    config = paper_config(PROTOCOL, n_procs=PROCS, **MODES[mode])
    return RunSpec.create(
        WORKLOAD, config, **workload_args(WORKLOAD, quick=True, n_procs=PROCS)
    )


@pytest.mark.parametrize("mode", list(MODES))
def test_dispatch_mode(benchmark, mode):
    spec = make_spec(mode)
    program = spec.build_program()
    record = benchmark.pedantic(lambda: spec.execute(program), rounds=3, iterations=1)
    assert record.exec_time > 0


def test_modes_agree():
    """The timing comparison is only meaningful if the work is identical."""
    specs = {mode: make_spec(mode) for mode in MODES}
    program = specs["interpreted"].build_program()
    records = {mode: spec.execute(program) for mode, spec in specs.items()}
    assert records["compiled"] == records["interpreted"]
    assert records["fastpath"] == records["interpreted"]


def main():
    print(f"# dispatch microbenchmark: {WORKLOAD}/{PROTOCOL}, {PROCS} processors")
    timings = {}
    baseline_record = None
    for mode in MODES:
        spec = make_spec(mode)
        program = spec.build_program()
        best = None
        record = None
        for _ in range(3):
            started = time.perf_counter()
            record = spec.execute(program)
            wall = time.perf_counter() - started
            best = wall if best is None else min(best, wall)
        timings[mode] = best
        if baseline_record is None:
            baseline_record = record
        elif record != baseline_record:
            raise SystemExit(f"mode {mode!r} produced a different RunRecord")
    base = timings["interpreted"]
    for mode, wall in timings.items():
        print(f"{mode:12s} {wall * 1000:8.1f} ms   {base / wall:5.2f}x vs interpreted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
