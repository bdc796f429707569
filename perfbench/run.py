#!/usr/bin/env python3
"""The repository benchmark: simulator speed and paper accuracy.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload coherence32 --seed 0 --seconds 50 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen and which
per-layer metric should move which end-to-end metric):

``coherence32``
    barnes and sparse at quick generator scale, 32 processors, small
    (16 KB) caches, protocols SC, V and W+V, run in-process through
    ``RunSpec.execute``, repeated until ``--seconds`` are used up.
``sweep``
    a cold ``RunPool`` sweep of the Figure 3 grid at 8 processors and
    quick scale (5 workloads x {SC, W, S, V, TARDIS}) into a
    fresh cache directory, then a warm re-sweep of the same specs.

``--seed n`` shifts every generator's seed by ``n``; seed 0 reproduces
each generator's own default, and at seed 0 every record is checked
against ``perfbench/expected.json``.  ``--trace 0`` measures with no
tracing and prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  The
last line of standard output is one JSON object; result and trace files
go under ``.bench_build/perfbench/`` in the checkout.
"""

import argparse
import gc
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Never fall back to an installed copy: it is not the tree under test.
    raise ImportError(f"perfbench: no simulator source at {os.path.join(SRC, 'repro')}")
sys.path.insert(0, SRC)

from repro.config import SystemConfig  # noqa: E402
from repro.harness import runpool  # noqa: E402
from repro.harness.configs import (  # noqa: E402
    LARGE_CACHE, SMALL_CACHE, WORKLOADS, paper_config, workload_args,
)
from repro.harness.paper_reference import FIGURE3  # noqa: E402
from repro.harness.runpool import RunPool, code_fingerprint  # noqa: E402
from repro.harness.runspec import RunSpec  # noqa: E402
from repro.system import Machine  # noqa: E402
from repro.workloads import CATALOG  # noqa: E402

from layers import LayerTracer  # noqa: E402

#: Set, these re-select the engine inside ``SystemConfig.__post_init__``
#: (or turn on harness logging/profiling), so the run would not measure
#: the default path.
GUARDED_ENV = ("DSI_MODE", "DSI_NO_FASTPATH", "DSI_LOG", "DSI_PROFILE")

#: Each generator's own default seed; ``--seed n`` adds ``n``.
GEN_SEEDS = {
    name: inspect.signature(generator).parameters["seed"].default
    for name, (generator, _description) in CATALOG.items()
}

#: ``setup_s`` is the median of at least this many set-ups, repeated
#: until ``SETUP_SECONDS`` have passed (at most ``SETUP_MAX_REPS``).
SETUP_REPS = 3
SETUP_SECONDS = 6.0
SETUP_MAX_REPS = 60

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("network_messages", "count"),
    ("paper_err", "ratio"),
)

PER_LAYER = (
    ("engine.self_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_op", "events/op"),
    ("processor.self_s", "s"),
    ("processor.wakeups", "count"),
    ("processor.direct_frac", "ratio"),
    ("protocol.self_s", "s"),
    ("protocol.calls", "count"),
    ("memory.self_s", "s"),
    ("memory.calls", "count"),
    ("directory.self_s", "s"),
    ("directory.msgs", "count"),
    ("network.self_s", "s"),
    ("network.remote_msgs", "count"),
    ("network.local_msgs", "count"),
    ("protocol.miss_rate", "ratio"),
    ("protocol.self_invalidations", "count"),
    ("directory.busy_cycles", "cycles"),
    ("network.ni_busy_cycles", "cycles"),
    ("workloads.gen_s", "s"),
    ("workloads.ops", "count"),
    ("system.build_s", "s"),
    ("harness.busy_frac", "ratio"),
    ("harness.cache_hit_s", "s"),
    ("harness.cache_hits", "count"),
    ("harness.record_bytes", "B"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


@dataclass(frozen=True)
class Suite:
    """One benchmark workload: a grid of specs and how it is executed."""

    name: str
    workloads: tuple
    protocols: tuple
    cache: str  # FIGURE3 key: "small" (16 KB) or "large" (128 KB)
    n_procs: int
    quick: bool = False
    seed_offsets: tuple = (0,)
    pooled: bool = False  # through a cold+warm RunPool sweep, not in-process

    def plan(self, seed):
        """Specs grouped by generated program: ``[[(label, spec), ...]]``.
        Every spec of a group shares its program, as RunPool memoizes."""
        cache = SMALL_CACHE if self.cache == "small" else LARGE_CACHE
        groups = []
        for workload in self.workloads:
            for offset in self.seed_offsets:
                args = workload_args(workload, quick=self.quick, n_procs=self.n_procs)
                args["seed"] = GEN_SEEDS[workload] + seed + offset
                groups.append([
                    (
                        f"{workload}/{protocol}/{offset}",
                        RunSpec.create(
                            workload,
                            paper_config(protocol, cache=cache, n_procs=self.n_procs),
                            **args,
                        ),
                    )
                    for protocol in self.protocols
                ])
        return groups

    def tiny(self):
        """The same grid at 4 processors and quick scale (smoke tests)."""
        return replace(self, n_procs=4, quick=True)


SUITES = {
    "coherence32": Suite(
        "coherence32", ("barnes", "sparse"), ("SC", "V", "W+V"), "small", 32, quick=True,
    ),
    "sweep": Suite(
        "sweep", WORKLOADS, ("SC", "W", "S", "V", "TARDIS"), "small", 8,
        quick=True, pooled=True,
    ),
}


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def record_summary(record):
    """The deterministic fields a record is checked on (``events_fired``
    is left out, as in the equivalence harness's observational mode)."""
    return {
        "exec_time": record.exec_time,
        "network": dict(sorted(record.messages.network.items())),
        "local": dict(sorted(record.messages.local.items())),
        "data_blocks_sent": record.messages.data_blocks_sent,
        "misses": record.misses.as_dict(),
    }


class OutputCheck:
    """Counts attempted and failed spec executions.

    A spec fails when it raises, leaves a trace op unretired or a
    processor unfinished, differs from an earlier execution of the same
    spec in this run (the traced pass included), or — at seed 0 —
    differs from the record summary stored in ``expected.json``.
    """

    def __init__(self, expected=None):
        self.expected = expected
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def __call__(self, label, record, problem=None):
        """Check one executed spec; ``problem`` is one the caller found."""
        self.attempted += 1
        problem = problem or self._problem(label, record)
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")

    def error(self, label, exc, count=1):
        """``count`` specs raised (a failed pool batch loses all of them)."""
        self.attempted += count
        self.failed += count
        self.failures.append(f"{label}: {type(exc).__name__}: {exc} ({count} specs)")

    def _problem(self, label, record):
        first = self.first.setdefault(label, record)
        if first is not record and first != record:
            return "record differs from an earlier execution of the same spec"
        if self.expected is not None:
            want = self.expected.get(label)
            got = json.loads(json.dumps(record_summary(record)))
            if want is None:
                return "no expected record"
            if got != want:
                fields = sorted(key for key in want if got.get(key) != want[key])
                return f"differs from expected.json in {', '.join(fields)}"
        return None


def load_expected(suite, seed):
    if seed != 0:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[suite.name]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
UNRETIRED = "not every trace op retired or processor finished"


class RunClock:
    """``RunSpec.execute`` observer: times ``Machine.run`` alone and
    checks that every trace op retired and every processor finished."""

    def attach(self, machine):
        self.machine = machine
        self.started = perf_counter()

    def detach(self):
        self.run_s = perf_counter() - self.started
        machine, self.machine = self.machine, None
        progress = machine.progress()
        self.ops = progress["ops_total"]
        self.retired = progress["ops_retired"] == self.ops and all(
            proc.finished for proc in machine.processors
        )


def measure_setup(suite, seed, reps=SETUP_REPS, seconds=SETUP_SECONDS):
    """Median over repeated set-ups (see ``SETUP_SECONDS``) of program
    generation plus ``Machine`` construction for every spec; also
    returns ops per label."""
    times = []
    ops = {}
    deadline = perf_counter() + seconds
    while len(times) < reps or (
        len(times) < SETUP_MAX_REPS and perf_counter() < deadline
    ):
        machines = []
        started = perf_counter()
        for group in suite.plan(seed):
            program = group[0][1].build_program()
            n_ops = sum(len(trace.kinds) for trace in program.traces)
            for label, spec in group:
                machines.append(Machine(spec.config, program))
                ops[label] = n_ops
        times.append(perf_counter() - started)
        del machines, program
        _collect()
    return statistics.median(times), ops


def _collect():
    """Free the machines just used, outside any timed region.  A machine
    is a reference cycle, so without this the peak resident set would
    depend on when the collector happened to run."""
    gc.collect()


def inprocess_passes(suite, seed, check, seconds=None, cycles=None):
    """Execute the plan in cycles, one program per group per cycle, until
    ``seconds`` are used up (after at least one full cycle; a group that
    would overrun the deadline is not started) or ``cycles`` full cycles
    ran.  Every other cycle runs in reverse order, so each spec's repeats
    fall at different points of the run.  Returns per-label samples."""
    groups = list(enumerate(suite.plan(seed)))
    samples = {"gen": {}, "build": {}, "run": {}, "ops": {}, "records": {}}
    deadline = None if seconds is None else perf_counter() + seconds
    cycle = 0
    while True:
        if cycle % 2:
            order = [(index, group[::-1]) for index, group in reversed(groups)]
        else:
            order = groups
        for index, group in order:
            if cycle and deadline is not None:
                cost = samples["gen"][index][-1] + sum(
                    samples["build"][label][-1] + samples["run"][label][-1]
                    for label, _spec in group
                    if label in samples["run"]
                )
                if perf_counter() + cost > deadline:
                    return samples
            started = perf_counter()
            program = group[0][1].build_program()
            samples["gen"].setdefault(index, []).append(perf_counter() - started)
            for label, spec in group:
                clock = RunClock()
                started = perf_counter()
                try:
                    record = spec.execute(program, observer=clock)
                except Exception as exc:  # a failing spec is counted, not fatal
                    check.error(label, exc)
                    continue
                total = perf_counter() - started
                check(label, record, None if clock.retired else UNRETIRED)
                samples["build"].setdefault(label, []).append(total - clock.run_s)
                samples["run"].setdefault(label, []).append(clock.run_s)
                samples["ops"][label] = clock.ops
                samples["records"].setdefault(label, record)
                _collect()
            del program
        cycle += 1
        if cycles is not None and cycle >= cycles:
            return samples
        if deadline is not None and perf_counter() >= deadline:
            return samples


def sweep_pass(suite, seed, check, jobs):
    """One cold sweep into a fresh cache directory and one warm re-sweep.
    Returns the pass's timings and cold records, or None on failure."""
    labelled = [item for group in suite.plan(seed) for item in group]
    specs = [spec for _label, spec in labelled]
    # Pool workers memoize programs per process; the in-process serial
    # path (jobs=1) would carry that memo from one pass into the next.
    runpool._PROGRAMS.clear()
    os.makedirs(BUILD_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=BUILD_DIR)
    try:
        cold_pool = RunPool(jobs=jobs, cache_dir=cache_dir)
        started = perf_counter()
        try:
            cold = cold_pool.run_batch(specs)
        except Exception as exc:  # the pool drained every worker first
            check.error("sweep", exc, count=len(specs))
            return None
        cold_s = perf_counter() - started
        record_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, files in os.walk(cache_dir)
            for name in files
        )
        warm_pool = RunPool(jobs=jobs, cache_dir=cache_dir)
        started = perf_counter()
        warm = warm_pool.run_batch(specs)
        warm_s = perf_counter() - started
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    served_cached = {
        entry["key"]: entry["cached"] for entry in warm_pool.manifest()["runs"]
    }
    records = {}
    for label, spec in labelled:
        record = cold[spec]
        problem = None
        if any(time is None for time in record.per_proc_time):
            problem = UNRETIRED
        elif not served_cached.get(spec.key()[:16]):
            problem = "warm re-sweep missed the result cache"
        elif warm[spec] != record:
            problem = "warm re-sweep record differs from the cold one"
        check(label, record, problem)
        records[label] = record
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "records": records,
        "exec_s": sum(record.wall_time_s for record in records.values()),
        "record_bytes": record_bytes,
        "cache_hits": warm_pool.cache_hits,
    }


#: One job: ``RunPool``'s serial path in this process.  With a worker
#: per core, load on either core of a small shared host slows every
#: pass, and the fastest pass no longer reads the program's own cost.
SWEEP_JOBS = 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def paper_err(suite, records):
    """Mean |measured normalized time - Figure 3| over the points the
    paper quantifies (the SC base itself excluded: it is 1.00 by
    definition)."""
    errors = []
    for workload in suite.workloads:
        published = FIGURE3.get(workload, {}).get(suite.cache, {})
        for offset in suite.seed_offsets:
            base = records.get(f"{workload}/SC/{offset}")
            for protocol in suite.protocols:
                reference = published.get(protocol)
                record = records.get(f"{workload}/{protocol}/{offset}")
                if protocol == "SC" or reference is None or base is None or record is None:
                    continue
                errors.append(abs(record.exec_time / base.exec_time - reference))
    return statistics.fmean(errors) if errors else 0.0


def simulated_totals(records):
    values = list(records.values())
    return {
        "sim_cycles": sum(record.exec_time for record in values),
        "network_messages": sum(record.messages.total_network() for record in values),
    }


def peak_rss_mb(pooled):
    """Peak resident set of this process, plus the largest pool worker's
    for the sweep (``ru_maxrss`` is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end(suite, seed, seconds, check):
    """Run set-up and the measured passes; returns the end-to-end metrics
    and the raw timing samples they were taken from.

    Host times are the fastest repeat of each unit of work (a spec, or a
    whole sweep pass), summed over the units.  Load from other tenants of
    the host only ever adds time, in bursts of a few seconds, so the
    fastest of many short repeats reads the program's own cost; a mean
    or median over the run reads how busy the host was."""
    setup_s, ops = measure_setup(suite, seed)
    if suite.pooled:
        jobs = SWEEP_JOBS
        passes = []
        deadline = perf_counter() + seconds
        # Stop before a pass that, at the last pass's pace, would overrun.
        while not passes or perf_counter() + passes[-1]["pass_s"] < deadline:
            started = perf_counter()
            result = sweep_pass(suite, seed, check, jobs)
            if result is None:
                break
            result["pass_s"] = perf_counter() - started
            passes.append(result)
        if not passes:
            return None, None
        records = passes[0]["records"]
        raw = [
            {key: p[key] for key in ("cold_s", "warm_s", "exec_s")} for p in passes
        ]
        # A spec's execute time inside the pool, fastest over the passes.
        exec_s = sum(
            min(p["records"][label].wall_time_s for p in passes) for label in records
        )
        metrics = {
            "wall_s": min(p["cold_s"] + p["warm_s"] for p in raw),
            "ops_per_s": _ratio(sum(ops.values()), exec_s),
            "sim_cycles_per_s": _ratio(simulated_totals(records)["sim_cycles"], exec_s),
        }
    else:
        samples = inprocess_passes(suite, seed, check, seconds=seconds)
        records = samples.pop("records")
        if not records:
            return None, None
        raw = samples
        run_s = sum(min(times) for times in samples["run"].values())
        wall = sum(min(times) for times in samples["gen"].values()) + sum(
            min(b + r for b, r in zip(build, samples["run"][label]))
            for label, build in samples["build"].items()
        )
        metrics = {
            "wall_s": wall,
            "ops_per_s": _ratio(sum(samples["ops"].values()), run_s),
            "sim_cycles_per_s": _ratio(simulated_totals(records)["sim_cycles"], run_s),
        }
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb(suite.pooled)
    metrics.update(simulated_totals(records))
    metrics["paper_err"] = paper_err(suite, records)
    return metrics, raw


def traced_run(suite, seed, check):
    """One untraced pass, then the same pass traced; returns the per-layer
    metrics and the raw tracer totals."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if suite.pooled:
        jobs = SWEEP_JOBS
        _setup_s, ops = measure_setup(suite, seed, reps=1, seconds=0)
        plain = sweep_pass(suite, seed, check, jobs)
        dump_dir = tempfile.mkdtemp(prefix="trace-", dir=BUILD_DIR)
        try:
            with LayerTracer(dump_dir=dump_dir) as tracer:
                traced = sweep_pass(suite, seed, check, jobs)
            parts = [tracer.totals()] + tracer.worker_totals()
        finally:
            shutil.rmtree(dump_dir, ignore_errors=True)
        if plain is None or traced is None:
            return None, None
        plain_s = plain["cold_s"] + plain["warm_s"]
        traced_s = traced["cold_s"] + traced["warm_s"]
        records = traced["records"]
        harness = {
            "harness.busy_frac": _ratio(traced["exec_s"], jobs * traced["cold_s"]),
            "harness.cache_hit_s": traced["warm_s"],
            "harness.cache_hits": traced["cache_hits"],
            "harness.record_bytes": traced["record_bytes"],
        }
    else:
        started = perf_counter()
        inprocess_passes(suite, seed, check, cycles=1)
        plain_s = perf_counter() - started
        tracer = LayerTracer()
        started = perf_counter()
        with tracer:
            traced = inprocess_passes(suite, seed, check, cycles=1)
        traced_s = perf_counter() - started
        parts = [tracer.totals()]
        records = traced["records"]
        ops = traced["ops"]
        if not records:
            return None, None
        harness = dict.fromkeys(
            ("harness.busy_frac", "harness.cache_hit_s", "harness.cache_hits",
             "harness.record_bytes"),
            0,
        )
    totals = LayerTracer.merge(parts)
    return layer_metrics(totals, records, sum(ops.values()), plain_s, traced_s, harness), totals


def layer_metrics(totals, records, total_ops, plain_s, traced_s, harness):
    self_s, calls, fired, counts = (
        totals["self_s"], totals["calls"], totals["fired"], totals["counts"]
    )
    values = list(records.values())
    events = sum(record.events_fired for record in values)
    accesses = misses = 0
    for record in values:
        counters = record.misses
        misses += counters.read_misses + counters.write_misses
        accesses += (
            counters.read_hits + counters.write_hits
            + counters.read_misses + counters.write_misses
        )

    def calls_of(*classes):
        return sum(n for label, n in calls.items() if label.split(".")[0] in classes)

    metrics = {
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.events": events,
        "engine.events_per_op": _ratio(events, total_ops),
        "processor.self_s": self_s.get("processor", 0.0),
        "processor.wakeups": fired.get("processor", 0),
        "processor.direct_frac": _ratio(counts.get("direct_ops", 0), total_ops),
        "protocol.self_s": self_s.get("protocol", 0.0),
        "protocol.calls": calls_of("CacheController"),
        "memory.self_s": self_s.get("memory", 0.0),
        "memory.calls": calls_of("Cache", "CoalescingWriteBuffer"),
        "directory.self_s": self_s.get("directory", 0.0),
        "directory.msgs": calls.get("DirectoryController.receive", 0),
        "network.self_s": self_s.get("network", 0.0),
        "network.remote_msgs": sum(r.messages.total_network() for r in values),
        "network.local_msgs": sum(sum(r.messages.local.values()) for r in values),
        "protocol.miss_rate": _ratio(misses, accesses),
        "protocol.self_invalidations": sum(r.misses.self_invalidations for r in values),
        "directory.busy_cycles": sum(r.dir_busy_cycles for r in values),
        "network.ni_busy_cycles": sum(r.ni_busy_cycles for r in values),
        "workloads.gen_s": self_s.get("workloads", 0.0),
        "workloads.ops": total_ops,
        "system.build_s": self_s.get("system.build", 0.0),
        "trace.overhead_frac": _ratio(traced_s, plain_s),
        "trace.unattributed_frac": _ratio(
            self_s.get("system.run", 0.0) + self_s.get("other", 0.0),
            counts.get("run_s", 0.0),
        ),
    }
    metrics.update(harness)
    return metrics


# ----------------------------------------------------------------------
# Provenance and reporting
# ----------------------------------------------------------------------
def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(seed):
    """Where a result came from: compare results only between equal
    engines and the same host."""
    config = SystemConfig()
    return {
        "seed": seed,
        "engine": {
            "execution_mode": config.execution_mode.value,
            "compiled_dispatch": config.compiled_dispatch,
            "direct_execution": config.direct_execution,
        },
        "git_commit": git_commit(),
        "source_fingerprint": code_fingerprint()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def result_line(check, metrics, units):
    return {
        "correct": check.failed == 0,
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units
        },
    }


def guard_environment(environ=os.environ):
    """The names of engine- or telemetry-selecting variables that are set."""
    return [name for name in GUARDED_ENV if environ.get(name)]


def run(workload, seed, seconds, trace):
    """Run one benchmark invocation; returns (result dict, report dict)."""
    suite = SUITES[workload]
    check = OutputCheck(load_expected(suite, seed))
    if trace:
        metrics, details = traced_run(suite, seed, check)
        units = PER_LAYER
    else:
        metrics, details = end_to_end(suite, seed, seconds, check)
        units = END_TO_END
    if metrics is None:
        raise SystemExit(f"perfbench: every spec of {workload} failed: {check.failures[:3]}")
    result = result_line(check, metrics, units)
    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "failed_frac": _ratio(check.failed, check.attempted),
        "failures": check.failures,
        "result": result,
        "layer_totals" if trace else "samples": details,
    }
    return result, report


def record_expected():
    """Rewrite expected.json from this tree's records at seed 0."""
    expected = {}
    for name, suite in SUITES.items():
        check = OutputCheck()
        if suite.pooled:
            records = sweep_pass(suite, 0, check, SWEEP_JOBS)["records"]
        else:
            records = inprocess_passes(suite, 0, check, cycles=1)["records"]
        if check.failures:
            raise SystemExit(f"perfbench: {name} failed: {check.failures}")
        expected[name] = {label: record_summary(records[label]) for label in sorted(records)}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SUITES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", action="store_true",
        help="rewrite perfbench/expected.json from this tree at seed 0",
    )
    args = parser.parse_args(argv)
    guarded = guard_environment()
    if guarded:
        print(
            f"perfbench: refusing to run with {', '.join(guarded)} set: it selects "
            "another engine or turns on harness telemetry",
            file=sys.stderr,
        )
        return 2
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(BUILD_DIR, exist_ok=True)
    path = os.path.join(
        BUILD_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"# provenance {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"# attempted {result['attempted']} failed {result['failed']} "
          f"failed_frac {report['failed_frac']:.4f}")
    for failure in report["failures"][:20]:
        print(f"# FAILED {failure}")
    for name, entry in result["metrics"].items():
        print(f"# {name:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"# report {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
