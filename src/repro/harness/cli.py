"""Command-line front end: ``dsi-sim`` / ``python -m repro.harness.cli``.

Examples::

    dsi-sim figure3                  # full-scale reproduction of Figure 3
    dsi-sim all --quick --procs 8    # fast sanity sweep of every experiment
    dsi-sim all --jobs 8 --cache-dir ~/.cache/dsi
                                     # parallel sweep with a persistent cache
    dsi-sim ablation:fifo_depth      # one ablation
    dsi-sim bars --quick --procs 8   # Figure 3 as terminal stacked bars
    dsi-sim table2 --json            # machine-readable output
    dsi-sim list                     # show available experiments

    dsi-sim run --workload em3d --protocol V --procs 16
                                     # one simulation with full statistics
    dsi-sim run --workload em3d --perfetto trace.json --metrics m.json
                                     # instrumented run: Perfetto trace +
                                     # metrics dump (see docs/OBSERVABILITY.md)
    dsi-sim trace em3d --block 130   # per-block coherence timeline
    dsi-sim why em3d --protocol V    # causal cycle accounting: where did
                                     # every cycle go? (+ top-K transaction
                                     # chains; see docs/OBSERVABILITY.md)
    dsi-sim why em3d --protocol V --diff SC
                                     # mechanistic two-variant diff
    dsi-sim trace em3d --txn 412     # replay one costly transaction as an
                                     # ASCII causal timeline
    dsi-sim analyze migratory        # sharing-pattern classification +
                                     # DSI-accuracy report + runtime audit
    dsi-sim check-protocol           # model-check every protocol variant
    dsi-sim check-protocol --variant 'WC+DSI(V)+FIFO+TO'
                                     # one variant, with its trace on failure
    dsi-sim gen --workload sparse -o sparse.npz
                                     # export a workload trace for reuse
    dsi-sim run --trace sparse.npz --protocol W
                                     # simulate a saved trace

Experiments are executed in two phases: all selected experiments first
declare their simulations as RunSpecs, the union is executed as one batch
through the run pool (``--jobs`` worker processes, persistent
``--cache-dir`` result cache), then each experiment formats its table
from the finished records.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.coherence.variants import Bugs
from repro.errors import ConfigError, TraceError
from repro.harness import ablations, figure2, figure3, figure4, figure5, figure6, table2, table3
from repro.harness.configs import (
    PROTOCOLS,
    SMALL_CACHE,
    WORKLOADS,
    paper_config,
    workload_args,
)
from repro.harness.experiment import ExperimentRunner
from repro.stats.ascii_chart import stacked_bars
from repro.stats.record import RunRecord
from repro.stats.report import format_table
from repro.system import Machine
from repro.trace.io import load_program, save_program
from repro.workloads import by_name

EXPERIMENTS = {
    "figure2": figure2.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "table2": table2.run,
    "table3": table3.run,
}
for name, fn in ablations.ALL.items():
    EXPERIMENTS[f"ablation:{name}"] = fn

#: Plan-phase counterpart of EXPERIMENTS: experiment id -> specs(runner).
#: The union of every selected experiment's specs becomes one pool batch.
PLANNERS = {
    "figure2": figure2.specs,
    "figure3": figure3.specs,
    "figure4": figure4.specs,
    "figure5": figure5.specs,
    "figure6": figure6.specs,
    "table2": table2.specs,
    "table3": table3.specs,
}
for name, fn in ablations.SPECS.items():
    PLANNERS[f"ablation:{name}"] = fn

#: "all" runs the paper experiments (not the ablations).
PAPER_SET = ("figure2", "figure3", "figure4", "figure5", "figure6", "table2", "table3")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dsi-sim",
        description="Reproduce the tables and figures of Lebeck & Wood, "
        "'Dynamic Self-Invalidation' (ISCA 1995).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list') or verb: " + ", ".join(VERBS),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="trace/why/analyze: workload name (equivalent to --workload); "
        "report: the telemetry log",
    )
    parser.add_argument("--procs", type=int, default=32, help="machine size (default 32)")
    parser.add_argument(
        "--quick", action="store_true", help="reduced workload sizes (fast sanity run)"
    )
    parser.add_argument("--verbose", action="store_true", help="log each simulation run")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation batches "
        "(default: all cores; 1 = serial, in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result cache; repeated sweeps of an unchanged "
        "tree re-run nothing",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache entirely"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON on stdout instead of tables",
    )
    # run / gen options
    parser.add_argument(
        "--workload",
        help="workload for run/gen/analyze: a paper application "
        f"({', '.join(sorted(WORKLOADS))}) or a synthetic kernel "
        "(see 'dsi-sim list')",
    )
    parser.add_argument("--trace", help="run: simulate a saved .npz trace instead")
    parser.add_argument(
        "--protocol",
        default="SC",
        help="run: protocol label (SC, W, S, V, W+V, V-FIFO, TARDIS, "
        "W+TARDIS; case-insensitive)",
    )
    parser.add_argument(
        "--lease",
        type=int,
        default=None,
        metavar="N",
        help="run/trace/analyze: Tardis static lease length in logical "
        "ticks (default 8; only meaningful with --protocol tardis)",
    )
    parser.add_argument(
        "--lease-adaptive",
        action="store_true",
        help="run/trace/analyze: per-block adaptive lease predictor "
        "instead of the static lease",
    )
    parser.add_argument(
        "--cache", type=int, default=SMALL_CACHE, help="run: cache bytes (default 16384)"
    )
    parser.add_argument(
        "--latency", type=int, default=100, help="run: network latency in cycles"
    )
    parser.add_argument(
        "-o",
        "--output",
        help="gen: output .npz path; why: write the JSON report here "
        "(in addition to stdout)",
    )
    parser.add_argument(
        "--show-trace",
        type=int,
        default=0,
        metavar="N",
        help="run: print the first N protocol messages (further messages "
        "are counted and reported as dropped)",
    )
    # observability options
    parser.add_argument(
        "--perfetto",
        metavar="PATH",
        help="run/trace/why/analyze: write a Chrome/Perfetto trace.json "
        "of the instrumented run (open in ui.perfetto.dev)",
    )
    # harness observatory options (docs/OBSERVABILITY.md); sweep verbs only
    parser.add_argument(
        "--log",
        metavar="FILE",
        help="experiments/all/ablations/bars: write the sweep's "
        "telemetry events (sweep and run events) as JSONL, overwriting "
        "FILE; analyze with 'dsi-sim report FILE'",
    )
    parser.add_argument(
        "--profile",
        choices=("cprofile",),
        default=None,
        help="experiments/all/ablations/bars: wrap each executed run "
        "in cProfile and write per-run pstats sidecars keyed by RunSpec "
        "hash; 'report' prints the merged hot-function table.  "
        "Never affects results or the result cache",
    )
    parser.add_argument(
        "--profile-dir",
        metavar="DIR",
        default=None,
        help="directory for --profile pstats sidecars "
        "(default: <log>.profiles, else ./dsi-profiles)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON metrics/telemetry dump (run/trace: probe "
        "counts, span latencies, counter series; experiments: run "
        "manifest with per-run wall time and cache disposition)",
    )
    parser.add_argument(
        "--block",
        type=int,
        action="append",
        metavar="N",
        help="trace: restrict the message log to block N (repeatable)",
    )
    parser.add_argument(
        "--txn",
        type=int,
        action="append",
        metavar="ID",
        help="trace: replay causal transaction ID — its messages plus an "
        "ASCII chain/segment timeline (repeatable; ids come from "
        "'dsi-sim why' and are stable across instrumented re-runs)",
    )
    # analyze / why options
    parser.add_argument(
        "--top",
        type=int,
        default=12,
        metavar="N",
        help="analyze: hottest blocks to list; why: costliest "
        "transactions to show with their causal chains",
    )
    parser.add_argument(
        "--diff",
        metavar="PROTOCOL",
        help="why: also run PROTOCOL on the same workload and print a "
        "category-by-category cycle diff (e.g. --protocol V --diff SC)",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="analyze: skip the runtime message ledger and quiesce-time "
        "coherence audit",
    )
    # check-protocol options
    parser.add_argument(
        "--variant",
        metavar="SUBSTR",
        help="check-protocol: only variants whose label contains SUBSTR "
        "(e.g. 'WC+DSI(V)', '+MIG')",
    )
    parser.add_argument(
        "--bug",
        choices=tuple(f.name for f in dataclasses.fields(Bugs)),
        help="check-protocol: re-introduce a fixed historical race and "
        "show the checker catching it",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        action="append",
        metavar="N",
        help="check-protocol: model size override (repeatable; default "
        "2 nodes, plus an asymmetric 3-node run for WC variants)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=3,
        metavar="N",
        help="check-protocol: per-node processor-op budget used with "
        "--nodes (default 3)",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=400_000,
        metavar="N",
        help="check-protocol: per-run state cap (default 400000)",
    )
    return parser


def _telemetry_config(args):
    """The harness-observatory settings from ``--log``/``--profile``, or
    ``None`` when neither was given."""
    from repro.harness.telemetry import TelemetryConfig

    config = TelemetryConfig(
        log_path=args.log, profile=args.profile, profile_dir=args.profile_dir
    )
    return config if config.active else None


def _refused_flag(args, sweeps):
    """The one-line complaint for a harness flag that would do nothing,
    or ``None``.  ``--log``/``--profile``/``--profile-dir`` act only on
    verbs that run a RunPool sweep (``sweeps``); ``report --perfetto``
    has no harness trace to write."""
    verb = args.experiment
    if args.profile_dir and not args.profile:
        return f"{verb}: --profile-dir needs --profile"
    if not sweeps:
        for flag, value in (
            ("--log", args.log),
            ("--profile", args.profile),
            ("--profile-dir", args.profile_dir),
        ):
            if value:
                return (
                    f"{verb}: {flag} does nothing here (it applies only to "
                    f"sweeps: experiment ids, {', '.join(SWEEP_VERBS)})"
                )
    if verb == "report" and args.perfetto:
        return (
            "report: --perfetto does nothing here; it exports instrumented "
            "runs (run, trace, why, analyze)"
        )
    return None


def _make_runner(args):
    """The sweep's runner; a telemetry path that cannot be written raises
    :class:`ConfigError` here, before any spec runs."""
    return ExperimentRunner(
        n_procs=args.procs,
        quick=args.quick,
        verbose=args.verbose,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        telemetry=_telemetry_config(args),
    )


def main(argv=None):
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-report; that is not
        # an error.  Detach stdout so interpreter teardown doesn't
        # traceback on the implicit flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(argv):
    args = build_parser().parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        print("--jobs must be >= 1 (1 = serial, in-process)", file=sys.stderr)
        return 2
    sizes = [("--procs", args.procs), ("--ops", args.ops), ("--max-states", args.max_states)]
    sizes += [("--nodes", nodes) for nodes in args.nodes or ()]
    for flag, value in sizes:
        if value < 1:
            print(f"{flag} must be >= 1", file=sys.stderr)
            return 2
    verb = VERBS.get(args.experiment)
    if verb is None and args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2
    refusal = _refused_flag(args, verb is None or args.experiment in SWEEP_VERBS)
    if refusal is not None:
        print(refusal, file=sys.stderr)
        return 2
    try:
        if verb is None:
            return _experiments(args, (args.experiment,))
        return verb(args)
    except ConfigError as exc:
        # A flag value the configuration refuses (a protocol label, a
        # cache size, a latency, an unwritable telemetry path): one line,
        # as for a size below one.
        print(f"{args.experiment}: {exc}", file=sys.stderr)
        return 2


def _list(args):
    """Every experiment id, then every other verb."""
    for name in (*EXPERIMENTS, *VERBS):
        print(name)
    return 0


def _experiments(args, selected):
    """Run the ``selected`` experiment ids as one batch and print their
    tables."""
    runner = _make_runner(args)
    started = time.perf_counter()
    try:
        # Plan: union every selected experiment's specs into one pool
        # batch, so a multi-experiment sweep parallelizes across
        # experiments too.
        plan = []
        for name in selected:
            plan.extend(PLANNERS[name](runner))
        runner.prefetch(plan)
        # Collect: each experiment reads its finished records into a table.
        results = [EXPERIMENTS[name](runner) for name in selected]
    finally:
        runner.close()  # flush telemetry sinks even when a run fails
    wall = time.perf_counter() - started
    if args.log:
        print(f"# wrote telemetry log -> {args.log} "
              f"(analyze with: dsi-sim report {args.log})", file=sys.stderr)
    summary = (
        f"# {runner.total_sim_runs} simulation runs, {runner.cache_hits} cache hits "
        f"in {wall:.1f}s (procs={args.procs}"
        f"{', quick' if args.quick else ''}, jobs={runner.pool.jobs})"
    )
    meta = {
        "simulation_runs": runner.total_sim_runs,
        "cache_hits": runner.cache_hits,
        "wall_seconds": round(wall, 3),
        "procs": args.procs,
        "quick": args.quick,
        "jobs": runner.pool.jobs,
    }
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(
                {"meta": meta, "run_manifest": runner.pool.manifest()},
                handle,
                indent=2,
            )
        print(f"# wrote run telemetry -> {args.metrics}", file=sys.stderr)
    if args.as_json:
        payload = {
            "experiments": [result.to_dict() for result in results],
            "meta": meta,
            "run_manifest": runner.pool.manifest(),
        }
        print(json.dumps(payload, indent=2))
        print(summary, file=sys.stderr)
    else:
        for result in results:
            print(result.format())
            print()
        print(summary)
    return 0


def _row_label(row):
    guards = f"[{','.join(row.guards)}]" if row.guards else ""
    return f"{row.state.name}/{row.event.name}{guards}"


def _check_protocol(args):
    """Exhaustively model-check the transition tables of every variant.

    Exit status 1 if any variant has an invariant violation *or* an
    unreached NORMAL row (coverage regressions count as failures: a row
    the model cannot reach is either dead or misclassified).
    """
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    from repro.coherence.explore import check_variant
    from repro.coherence.variants import NO_BUGS, all_variants

    variants = all_variants()
    if args.variant:
        wanted = args.variant.lower()
        variants = [v for v in variants if wanted in v.describe().lower()]
        if not variants:
            print(f"no variant label contains {args.variant!r}", file=sys.stderr)
            return 2
    bugs = NO_BUGS
    if args.bug:
        bugs = dataclasses.replace(NO_BUGS, **{args.bug: True})
    configs = tuple((n, args.ops) for n in args.nodes) if args.nodes else None
    check = partial(
        check_variant, bugs=bugs, configs=configs, max_states=args.max_states
    )
    jobs = args.jobs or os.cpu_count() or 1
    started = time.perf_counter()
    if jobs > 1 and len(variants) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(variants))) as pool:
            reports = list(pool.map(check, variants))
    else:
        reports = [check(v) for v in variants]
    wall = time.perf_counter() - started
    payload = []
    for report in reports:
        uncovered = [
            _row_label(t)
            for t in report.uncovered_cache + report.uncovered_dir
        ]
        payload.append(
            {
                "variant": report.describe(),
                "ok": report.ok,
                "states": report.states,
                "violation": report.violation,
                "trace": list(report.trace),
                "uncovered": uncovered,
            }
        )
    failures = sum(1 for entry in payload if not entry["ok"])
    if args.as_json:
        print(
            json.dumps(
                {
                    "bugs": dataclasses.asdict(bugs),
                    "reports": payload,
                    "meta": {
                        "variants": len(payload),
                        "failures": failures,
                        "wall_seconds": round(wall, 3),
                    },
                },
                indent=2,
            )
        )
    else:
        for entry in payload:
            mark = "ok  " if entry["ok"] else "FAIL"
            print(f"{mark} {entry['variant']:30s} {entry['states']:>8d} states")
            if entry["violation"]:
                print(f"     violation: {entry['violation']}")
                for line in entry["trace"]:
                    print(f"       {line}")
            for label in entry["uncovered"]:
                print(f"     unreached NORMAL row: {label}")
        print(
            f"# {len(payload)} variants, {failures} failures in {wall:.1f}s "
            f"(jobs={jobs})"
        )
    return 1 if failures else 0


def _bars(args):
    """Render Figure 3 as terminal stacked bars, one group per workload."""
    runner = _make_runner(args)
    plan = {
        (workload, protocol): runner.spec(
            workload, paper_config(protocol, cache=SMALL_CACHE, n_procs=args.procs)
        )
        for workload in WORKLOADS
        for protocol in PROTOCOLS
    }
    runner.prefetch(plan.values())
    for workload in WORKLOADS:
        results = []
        for protocol in PROTOCOLS:
            result = runner.run_spec(plan[(workload, protocol)])
            result.label = protocol
            results.append(result)
        print(stacked_bars(results, title=f"{workload} (normalized to SC)"))
        print()
    return 0


def _load_run_program(args):
    if args.trace:
        try:
            return load_program(args.trace)
        except (OSError, TraceError) as exc:
            print(f"{args.experiment}: {exc}", file=sys.stderr)
            return None
    if not args.workload:
        print("run: need --workload or --trace", file=sys.stderr)
        return None
    try:
        return by_name(
            args.workload,
            **workload_args(args.workload, quick=args.quick, n_procs=args.procs),
        )
    except KeyError as exc:
        print(f"unknown workload {exc.args[0]}", file=sys.stderr)
        return None


def _make_instrument(args):
    """An :class:`~repro.obs.Instrument` when any observability output was
    requested, else None (probes stay disabled: zero overhead)."""
    if not (args.perfetto or args.metrics):
        return None
    from repro.obs import Instrument

    return Instrument()


def _write_obs_outputs(args, instrument, extra):
    if instrument is None:
        return
    from repro.obs import write_metrics, write_perfetto

    if args.perfetto:
        write_perfetto(instrument, args.perfetto)
        print(f"# wrote Perfetto trace -> {args.perfetto}", file=sys.stderr)
    if args.metrics:
        write_metrics(instrument, args.metrics, extra=extra)
        print(f"# wrote metrics dump -> {args.metrics}", file=sys.stderr)


def _tracer_telemetry(tracer):
    """Run context for the metrics dump: what the MessageTracer kept and,
    crucially, what it dropped (a truncated log is only trustworthy when
    the truncation is visible)."""
    if tracer is None:
        return None
    return {
        "events": len(tracer),
        "dropped": tracer.dropped,
        "max_events": tracer.max_events,
        "blocks": sorted(tracer.blocks) if tracer.blocks else None,
    }


def _run_config(args, protocol, n_procs):
    """The config the run flags describe for ``protocol``; a value it
    refuses raises :class:`ConfigError`."""
    overrides = {}
    if args.lease is not None:
        overrides["lease"] = args.lease
    if args.lease_adaptive:
        overrides["lease_adaptive"] = True
    return paper_config(
        protocol, cache=args.cache, latency=args.latency, n_procs=n_procs, **overrides
    )


def _run_one(args):
    """One simulation with the full statistics dump."""
    program = _load_run_program(args)
    if program is None:
        return 2
    config = _run_config(args, args.protocol, program.n_procs)
    instrument = _make_instrument(args)
    started = time.perf_counter()
    machine = Machine(config, program, instrument=instrument)
    tracer = None
    if args.show_trace:
        from repro.stats.tracer import MessageTracer, attach_tracer

        tracer = attach_tracer(machine, MessageTracer(max_events=args.show_trace))
    result = machine.run()
    wall = time.perf_counter() - started
    record = RunRecord.from_result(result)
    record.set_timing(wall)
    extra = {
        "workload": program.describe(),
        "protocol": config.describe(),
        "wall_time_s": record.wall_time_s,
        "sim_cycles_per_s": record.sim_cycles_per_s,
    }
    if tracer is not None:
        extra["message_trace"] = _tracer_telemetry(tracer)
    _write_obs_outputs(args, instrument, extra=extra)
    if args.as_json:
        payload = {
            "workload": program.describe(),
            "protocol": config.describe(),
            "cache_bytes": config.cache_size,
            "network_latency": config.network_latency,
            "wall_seconds": round(wall, 3),
            "record": record.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    if tracer is not None:
        print(tracer.format())
        print()
    print(f"workload: {program.describe()}")
    print(f"protocol: {config.describe()}  cache={config.cache_size // 1024}KB "
          f"net={config.network_latency}\n")
    fractions = result.aggregate_breakdown().fractions()
    rows = [[category, f"{fractions[category]:.3f}"] for category in fractions if fractions[category]]
    print(format_table(["category", "fraction"], rows, title="execution-time breakdown"))
    print()
    message_rows = sorted(result.messages.network.items())
    print(format_table(["message", "count"], message_rows, title="network messages"))
    print()
    print(f"execution time: {result.exec_time} cycles")
    print(f"miss rate: {result.misses.miss_rate():.4f}")
    print(f"self-invalidations: {result.misses.self_invalidations}")
    print(f"directory occupancy: {result.dir_occupancy():.3f}")
    if record.sim_cycles_per_s:
        print(
            f"({result.events_fired} events in {wall:.1f}s, "
            f"{record.sim_cycles_per_s:,.0f} cycles/s)"
        )
    else:
        print(f"({result.events_fired} events in {wall:.1f}s)")
    return 0


def _trace(args):
    """Instrumented run with an on-terminal coherence timeline.

    Always attaches the instrument (the point of the verb is to look
    inside the run); ``--block`` narrows the message table to chosen
    blocks, ``--txn`` narrows it to chosen causal transactions and
    replays each as an ASCII chain, ``--perfetto``/``--metrics``
    additionally export the trace.
    """
    from repro.obs import CausalInstrument, Instrument, ascii_timeline, format_txn
    from repro.stats.tracer import MessageTracer, attach_tracer

    if args.target and not args.workload and not args.trace:
        args.workload = args.target
    program = _load_run_program(args)
    if program is None:
        return 2
    config = _run_config(args, args.protocol, program.n_procs)
    txns = set(args.txn) if args.txn else None
    # --txn needs the causal stitcher; ids are deterministic across
    # instrumented runs, so an id from 'dsi-sim why' replays here.
    instrument = CausalInstrument(keep_txns=txns) if txns else Instrument()
    started = time.perf_counter()
    machine = Machine(config, program, instrument=instrument)
    tracer = attach_tracer(
        machine,
        MessageTracer(
            blocks=args.block,
            txns=txns,
            max_events=args.show_trace or (200 if (args.block or txns) else 40),
        ),
    )
    result = machine.run()
    wall = time.perf_counter() - started
    print(f"workload: {program.describe()}")
    print(f"protocol: {config.describe()}  cache={config.cache_size // 1024}KB "
          f"net={config.network_latency}\n")
    print(ascii_timeline(instrument))
    print()
    scopes = []
    if args.block:
        scopes.append(f"blocks {sorted(set(args.block))}")
    if txns:
        scopes.append(f"txns {sorted(txns)}")
    scope = f" ({', '.join(scopes)})" if scopes else ""
    print(f"messages{scope}:")
    print(tracer.format())
    print()
    if txns:
        for txn_id in sorted(txns):
            txn = instrument.txn(txn_id)
            if txn is None:
                print(
                    f"txn #{txn_id}: not found in this run "
                    f"({instrument.txn_total} transactions were issued; "
                    f"ids come from 'dsi-sim why' with the same workload, "
                    f"protocol and --procs)"
                )
            else:
                print(format_txn(txn))
            print()
    rows = []
    for category in instrument.CATEGORIES:
        histogram = instrument.latency[category]
        if not histogram.count:
            continue
        pct = histogram.percentiles()
        rows.append(
            [
                category,
                histogram.count,
                f"{histogram.mean():.0f}",
                pct["p50"],
                pct["p90"],
                pct["p99"],
            ]
        )
    print(
        format_table(
            ["span", "count", "mean", "p50", "p90", "p99"],
            rows,
            title="transaction latency (cycles)",
        )
    )
    print()
    print(f"execution time: {result.exec_time} cycles "
          f"({result.events_fired} events in {wall:.1f}s)")
    _write_obs_outputs(
        args,
        instrument,
        extra={
            "workload": program.describe(),
            "protocol": config.describe(),
            "message_trace": _tracer_telemetry(tracer),
        },
    )
    return 0


def _why(args):
    """Causal critical-path observatory: run one workload under the
    causal tracer and report the exact cycle accounting — every cycle of
    every node attributed to one of the ten causal categories, with a
    hard conservation check, the top-K costliest transactions as
    replayable chains, and an optional mechanistic two-variant diff."""
    from repro.obs import CausalInstrument, diff_why, format_txn, format_why, write_why

    if args.target and not args.workload and not args.trace:
        args.workload = args.target
    if args.variant:
        # ISSUE-era spelling: --variant is an alias for --protocol here
        # (check-protocol keeps its substring-filter meaning).
        args.protocol = args.variant
    program = _load_run_program(args)
    if program is None:
        return 2
    # Both configs first, so a refused --diff label runs nothing.
    config = _run_config(args, args.protocol, program.n_procs)
    base_config = _run_config(args, args.diff, program.n_procs) if args.diff else None

    def run_variant(config):
        instrument = CausalInstrument()
        result = Machine(config, program, instrument=instrument).run()
        report = instrument.why_report(
            workload=program.describe(),
            protocol=config.describe(),
            top=args.top,
        )
        return instrument, result, report

    started = time.perf_counter()
    instrument, result, report = run_variant(config)
    diff = None
    if base_config is not None:
        # The --diff protocol is the *base* of the comparison: positive
        # deltas mean the primary run spends more cycles there.
        _, _, base_report = run_variant(base_config)
        diff = diff_why(base_report, report)
    wall = time.perf_counter() - started
    _write_obs_outputs(
        args,
        instrument,
        extra={"workload": program.describe(), "protocol": config.describe()},
    )
    payload = dict(report)
    if diff is not None:
        payload["diff"] = diff
    if args.output:
        write_why(payload, args.output)
        print(f"# wrote why report -> {args.output}", file=sys.stderr)
    if args.as_json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"workload: {program.describe()}")
    print(f"protocol: {config.describe()}  cache={config.cache_size // 1024}KB "
          f"net={config.network_latency}\n")
    print(format_why(report, diff=diff))
    top = report["top"]
    if top:
        print()
        print(f"costliest {len(top)} transactions:")
        print()
        for entry in top:
            txn = instrument.txn(entry["txn"])
            if txn is not None:
                print(format_txn(txn))
                print()
    replay = f"dsi-sim trace {args.workload or '--trace ...'}"
    if args.protocol != "SC":
        replay += f" --protocol {args.protocol}"
    print(f"execution time: {result.exec_time} cycles ({wall:.1f}s); "
          f"replay any chain with: {replay} --txn ID")
    return 0


def _analyze(args):
    """Instrumented run with sharing-pattern classification, the
    DSI-accuracy report and the runtime accounting audit."""
    from repro.obs import AnalyticsInstrument

    if args.target and not args.workload and not args.trace:
        args.workload = args.target
    program = _load_run_program(args)
    if program is None:
        return 2
    config = _run_config(args, args.protocol, program.n_procs)
    instrument = AnalyticsInstrument(audit=not args.no_audit)
    started = time.perf_counter()
    result = Machine(config, program, instrument=instrument).run()
    wall = time.perf_counter() - started
    report = instrument.report(top=args.top)
    _write_obs_outputs(
        args,
        instrument,
        extra={"workload": program.describe(), "protocol": config.describe()},
    )
    if args.as_json:
        payload = {
            "workload": program.describe(),
            "protocol": config.describe(),
            "exec_time": result.exec_time,
            "wall_seconds": round(wall, 3),
            "report": report,
            "audit": instrument.audit_result,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"workload: {program.describe()}")
    print(f"protocol: {config.describe()}  cache={config.cache_size // 1024}KB "
          f"net={config.network_latency}\n")
    patterns = report["patterns"]
    total = report["blocks"] or 1
    rows = [
        [pattern, count, f"{count / total:.3f}"]
        for pattern, count in patterns.items()
        if count
    ]
    print(format_table(
        ["pattern", "blocks", "fraction"],
        rows,
        title=f"sharing patterns ({report['blocks']} blocks)",
    ))
    print()
    dsi = report["dsi"]
    if dsi["self_invalidations"]:
        accuracy = f"{dsi['accuracy']:.1%}" if dsi["accuracy"] is not None else "n/a"
        print(
            f"DSI speculation: {dsi['self_invalidations']} self-invalidations, "
            f"{dsi['correct']} correct, {dsi['mispredicted']} mispredicted "
            f"(accuracy {accuracy})"
        )
        by_pattern = [
            [pattern, stats["correct"], stats["mispredicted"],
             f"{stats['accuracy']:.3f}" if stats["accuracy"] is not None else "-"]
            for pattern, stats in dsi["by_pattern"].items()
            if stats["correct"] or stats["mispredicted"]
        ]
        if by_pattern:
            print()
            print(format_table(
                ["pattern", "correct", "wrong", "accuracy"],
                by_pattern,
                title="DSI accuracy by pattern",
            ))
    else:
        print("DSI speculation: no self-invalidations "
              "(protocol without DSI, or nothing marked)")
    lease = report["lease"]
    if lease["grants"] or lease["expiries"]:
        accuracy = (
            f"{lease['renewal_accuracy']:.1%}"
            if lease["renewal_accuracy"] is not None
            else "n/a"
        )
        print(
            f"Tardis leases: {lease['grants']} grants, "
            f"{lease['expiries']} expiries ({lease['renew_changed']} stale, "
            f"{lease['renew_unchanged']} still-good, "
            f"{lease['never_renewed']} never re-read; "
            f"renewal accuracy {accuracy})"
        )
    print()
    block_rows = [
        [
            row["block"], row["pattern"], row["reads"], row["writes"],
            row["readers"], row["writers"], row["self_invalidations"],
            row["si_wrong"],
        ]
        for row in report["top_blocks"]
    ]
    print(format_table(
        ["block", "pattern", "reads", "writes", "readers", "writers", "si", "si_wrong"],
        block_rows,
        title=f"hottest {len(block_rows)} blocks",
    ))
    print()
    if instrument.audit_result is not None and instrument.audit_result:
        messages = instrument.audit_result.get("messages", {})
        coherence = instrument.audit_result.get("coherence", {})
        print(
            f"audit: ok ({messages.get('sends', 0)} messages balanced, "
            f"{coherence.get('blocks', 0)} directory entries consistent "
            f"with {coherence.get('copies', 0)} cached copies)"
        )
    elif args.no_audit:
        print("audit: skipped (--no-audit)")
    if report["events_dropped"]:
        print(f"# warning: {report['events_dropped']} per-block events dropped "
              f"(classification is approximate for the hottest blocks)")
    print(f"execution time: {result.exec_time} cycles ({wall:.1f}s)")
    return 0


def _report(args):
    """Post-hoc sweep analysis of a harness telemetry log (``--log``):
    worker utilization, queue wait vs execute time, cache-hit breakdown,
    top-K stragglers and the merged host profile."""
    from repro.harness import telemetry

    if not args.target:
        print("report: need a telemetry log (dsi-sim report sweep.jsonl; "
              "produce one with --log)", file=sys.stderr)
        return 2
    events, problems = telemetry.load_log_lenient(args.target)
    if not events:
        if problems:
            for problem in problems[:5]:
                print(f"report: {problem}", file=sys.stderr)
            print(f"report: {args.target} holds no valid telemetry events "
                  f"({len(problems)} bad line(s))", file=sys.stderr)
        else:
            print(f"report: {args.target} holds no telemetry events "
                  "(empty log — did the sweep run with --log?)", file=sys.stderr)
        return 1
    for problem in problems[:5]:
        print(f"# warning: {problem}", file=sys.stderr)
    if len(problems) > 5:
        print(f"# warning: ... and {len(problems) - 5} more bad lines",
              file=sys.stderr)
    if problems:
        print(f"# warning: analyzing the {len(events)} valid events "
              f"(log damaged — crashed or still-running sweep?)", file=sys.stderr)
    report = telemetry.sweep_report(events)
    if args.as_json:
        print(json.dumps(report, indent=2))
        return 1 if problems else 0
    print(telemetry.format_report(report, top=args.top))
    sidecars = [run["profile"] for run in report["runs"] if run.get("profile")]
    if sidecars:
        rows, merged = telemetry.profile_table(sidecars, top=args.top)
        print()
        print(telemetry.format_profile_table(rows, merged))
    return 1 if problems else 0


def _describe(args):
    """Static sharing-pattern profile of a workload (no simulation)."""
    from repro.stats.profile import analyze_program

    program = _load_run_program(args)
    if program is None:
        return 2
    print(analyze_program(program).format())
    return 0


def _generate(args):
    """Export a generated workload trace to .npz."""
    if not args.workload or not args.output:
        print("gen: need --workload and --output", file=sys.stderr)
        return 2
    program = by_name(
        args.workload, **workload_args(args.workload, quick=args.quick, n_procs=args.procs)
    )
    try:
        save_program(program, args.output)
    except OSError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {program.describe()} -> {args.output}")
    return 0


#: Verbs that run a RunPool sweep, besides the experiment ids: the only
#: ones ``--log``/``--profile``/``--profile-dir`` act on.
SWEEP_VERBS = ("all", "ablations", "bars")

#: Every verb besides the experiment ids -> its handler.  ``list``, the
#: ``--help`` text and ``_dispatch`` all read this one table.
VERBS = {
    "list": _list,
    "all": lambda args: _experiments(args, PAPER_SET),
    "ablations": lambda args: _experiments(
        args, tuple(f"ablation:{name}" for name in ablations.ALL)
    ),
    "bars": _bars,
    "run": _run_one,
    "trace": _trace,
    "why": _why,
    "analyze": _analyze,
    "describe": _describe,
    "gen": _generate,
    "report": _report,
    "check-protocol": _check_protocol,
}


if __name__ == "__main__":
    sys.exit(main())
