"""Interpreted-vs-compiled equivalence proofs.

The compiled execution paths (:mod:`repro.coherence.compile` table
dispatch and the :mod:`repro.processor.fastpath` direct execution of
cache hits) claim to be *invisible*: a run with both enabled must produce a
:class:`~repro.stats.record.RunRecord` equal — field for field, event
count included, telemetry excluded — to the interpreted run.  This
module is that claim as an executable proof: it sweeps every structural
protocol variant (the 44 combinations of
:func:`repro.coherence.variants.enumerate_variants` over both migratory
settings, plus SC/WC Tardis) across every paper workload, runs each
program once interpreted and once compiled, and compares the full
records.

Run it directly::

    PYTHONPATH=src python -m repro.harness.equivalence            # full sweep
    PYTHONPATH=src python -m repro.harness.equivalence -k FIFO -w sparse

A focused subset runs in the tier-1 suite (``tests/test_equivalence.py``);
the full sweep is CI/nightly material (a few minutes of simulation).
"""

import argparse
import os
import sys
from dataclasses import replace

from repro.coherence.variants import (
    ProtocolVariant,
    TearoffMode,
    enumerate_variants,
    tardis_variants,
)
from repro.config import Consistency, SystemConfig
from repro.errors import ConfigError
from repro.harness.configs import SMALL_CACHE, WORKLOADS, paper_config, workload_args
from repro.harness.runspec import RunSpec

#: processor count for the sweep; small enough that 2 runs per pair stay
#: cheap, large enough that every protocol transaction type occurs.
SWEEP_PROCS = 8


def all_variants():
    """The proof obligation: every structural variant, Tardis included."""
    return (
        enumerate_variants(migratory=False)
        + enumerate_variants(migratory=True)
        + tardis_variants()
    )


def config_for_variant(variant, n_procs=SWEEP_PROCS, **overrides):
    """A :class:`~repro.config.SystemConfig` realizing ``variant``.

    Inverse of :meth:`~repro.coherence.variants.ProtocolVariant.from_config`
    (and checked to round-trip, so the sweep provably covers the variant it
    names)."""
    fields = {}
    if variant.wc:
        fields["consistency"] = Consistency.WC
    if variant.tardis:
        fields["tardis"] = True
    else:
        fields["identify"] = variant.identify
        if variant.mechanism is not None:
            fields["si_mechanism"] = variant.mechanism
        if variant.tearoff is TearoffMode.WC:
            fields["tearoff"] = True
        elif variant.tearoff is TearoffMode.SC:
            fields["sc_tearoff"] = True
        if variant.migratory:
            fields["migratory"] = True
    fields.update(overrides)
    config = SystemConfig(n_processors=n_procs, cache_size=SMALL_CACHE, **fields)
    realized = ProtocolVariant.from_config(config)
    if realized != variant:
        raise ConfigError(
            f"config_for_variant round-trip failed: wanted {variant}, got {realized}"
        )
    return config


def reference_config(config):
    """The interpreted twin of ``config`` (both compiled paths off)."""
    return replace(config, compiled_dispatch=False, direct_execution=False)


def compare_records(fast, ref):
    """Names of the measured fields on which two records differ."""
    fast_dict = fast._measured_dict()
    ref_dict = ref._measured_dict()
    return [key for key in fast_dict if fast_dict[key] != ref_dict[key]]


def check_pair(workload, config, wl_args):
    """Run ``workload`` once interpreted and once compiled.

    Returns ``(equal, differing_field_names)``.  The same generated
    program object feeds both machines, so any divergence is the
    execution paths' — not the generator's."""
    fast_spec = RunSpec.create(workload, config, **wl_args)
    ref_spec = RunSpec.create(workload, reference_config(config), **wl_args)
    program = fast_spec.build_program()
    fast = fast_spec.execute(program)
    ref = ref_spec.execute(program)
    diffs = compare_records(fast, ref)
    return not diffs, diffs


def localize_layer(workload, config, wl_args):
    """On a mismatch, name the guilty layer.

    Re-runs with only compiled dispatch enabled: if that run already
    diverges from the interpreted reference the table compiler (layer 1)
    is at fault, otherwise direct execution (layer 2)."""
    dispatch_only = replace(config, compiled_dispatch=True, direct_execution=False)
    equal, _diffs = check_pair(workload, dispatch_only, wl_args)
    return "fastpath (direct execution)" if equal else "compiled dispatch"


# ----------------------------------------------------------------------
# Telemetry transparency: observed runs vs bare runs
# ----------------------------------------------------------------------
#: The telemetry proof's two spec lists as (workloads, protocols,
#: processors), each workload at quick scale under each protocol.
#: Identity observes three short synthetic runs; reconciliation
#: sweeps twelve quick paper specs across base, weak consistency,
#: DSI-with-versions and Tardis.
TELEMETRY_IDENTITY = (("producer_consumer",), ("SC", "V", "TARDIS"), 4)
TELEMETRY_SWEEP = (("em3d", "sparse", "tomcatv"), ("SC", "W", "V", "TARDIS"), 8)


def telemetry_specs(workloads, protocols, n_procs):
    """One quick-scale spec per (workload, protocol), workload-major."""
    return [
        RunSpec.create(
            workload,
            paper_config(protocol, n_procs=n_procs),
            **workload_args(workload, quick=True, n_procs=n_procs),
        )
        for workload in workloads
        for protocol in protocols
    ]


def sweep_telemetry(jobs=2, out=None):
    """Prove the harness observatory is invisible to results.

    Two obligations (the proof for ``repro.harness.telemetry``):

    1. *Identity*: every :data:`TELEMETRY_IDENTITY` spec run under full
       telemetry — the JSONL log and cProfile sidecars — yields a
       :class:`~repro.stats.record.RunRecord` equal to the bare run
       (record equality already excludes the wall-time fields).
    2. *Reconciliation*: a :data:`TELEMETRY_SWEEP` sweep under
       ``--log`` (cold pass executing everything, warm pass serving
       everything from cache) produces a schema-valid JSONL whose
       terminal events reconcile exactly with ``RunPool.manifest()`` —
       every spec exactly once per pass as cached or finished, zero
       lost events.

    Returns failure tuples ``(check, subject, diffs, layer)``; empty
    means the proof holds.
    """
    import tempfile

    from repro.harness import telemetry as T
    from repro.harness.runpool import RunPool

    failures = []
    with tempfile.TemporaryDirectory(prefix="dsi-telemetry-") as tmp:
        # -- 1: record identity under full observation ------------------
        specs = telemetry_specs(*TELEMETRY_IDENTITY)
        bare = RunPool(jobs=1).run_batch(specs)
        observed_cfg = T.TelemetryConfig(
            log_path=os.path.join(tmp, "identity.jsonl"),
            profile="cprofile",
            profile_dir=os.path.join(tmp, "profiles"),
        )
        pool = RunPool(jobs=1, telemetry=observed_cfg)
        try:
            observed = pool.run_batch(specs)
        finally:
            pool.close()
        for spec in specs:
            if observed[spec] != bare[spec]:
                diffs = compare_records(observed[spec], bare[spec])
                failures.append(
                    ("identity", spec.describe(), diffs, "telemetry-observed run")
                )
        if out is not None:
            mark = "ok" if not failures else "DIFF"
            print(
                f"telemetry identity (log+profile): {len(specs)} specs {mark}",
                file=out,
            )
        # -- 2: log/manifest reconciliation over a real sweep ------------
        quick = telemetry_specs(*TELEMETRY_SWEEP)
        log_path = os.path.join(tmp, "sweep.jsonl")
        pool = RunPool(
            jobs=jobs,
            cache_dir=os.path.join(tmp, "cache"),
            telemetry=T.TelemetryConfig(log_path=log_path),
        )
        try:
            pool.run_batch(quick)  # cold: every spec executes
            pool.run_batch(quick)  # warm: every spec is a cache hit
        finally:
            pool.close()
        events = T.load_log(log_path)  # validates every line's schema
        problems = T.reconcile(events, pool.manifest())
        if problems:
            failures.append(("reconcile", "--log sweep", problems, "harness"))
        if out is not None:
            print(
                f"telemetry reconcile (jobs={jobs}): "
                f"{len(events)} events, {pool.executed} executed + "
                f"{pool.cache_hits} cached "
                f"{'ok' if not problems else 'MISMATCH'}",
                file=out,
            )
    return failures


def sweep(variants=None, workloads=WORKLOADS, n_procs=SWEEP_PROCS, quick=True, out=None):
    """Prove equivalence over ``variants`` x ``workloads``.

    Returns a list of failure tuples ``(variant_label, workload, diffs,
    layer)`` — empty means the proof holds."""
    if variants is None:
        variants = all_variants()
    failures = []
    for variant in variants:
        config = config_for_variant(variant, n_procs=n_procs)
        marks = []
        for workload in workloads:
            wl_args = workload_args(workload, quick=quick, n_procs=n_procs)
            equal, diffs = check_pair(workload, config, wl_args)
            if equal:
                marks.append(f"{workload}:ok")
            else:
                layer = localize_layer(workload, config, wl_args)
                failures.append((variant.describe(), workload, diffs, layer))
                marks.append(f"{workload}:DIFF({','.join(diffs)})")
        if out is not None:
            print(f"{variant.describe():28s} {' '.join(marks)}", file=out)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.equivalence",
        description="Prove the compiled execution paths bit-identical to the "
        "interpreted reference across every protocol variant.",
    )
    parser.add_argument(
        "-k",
        metavar="SUBSTR",
        default=None,
        help="only variants whose label contains SUBSTR (e.g. FIFO, TARDIS)",
    )
    parser.add_argument(
        "-w",
        "--workloads",
        nargs="+",
        default=list(WORKLOADS),
        choices=list(WORKLOADS),
        help="workloads to sweep (default: all five paper applications)",
    )
    parser.add_argument(
        "--procs", type=int, default=SWEEP_PROCS, help="simulated processor count"
    )
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="use full-scale workload parameters instead of the quick set",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="prove the harness observatory invisible: telemetry/profile "
        "runs yield RunRecords identical to bare runs, and a quick-scale "
        "--log sweep reconciles exactly with the pool manifest",
    )
    args = parser.parse_args(argv)

    if args.telemetry:
        print(
            "# telemetry transparency sweep: record identity + "
            "log/manifest reconciliation"
        )
        failures = sweep_telemetry(out=sys.stdout)
        if failures:
            print(f"\nFAIL: {len(failures)} telemetry check(s) failed:")
            for check, subject, diffs, layer in failures:
                print(f"  {check} / {subject}: {diffs} [{layer}]")
            return 1
        print("\nOK: telemetry-observed runs identical to bare runs; "
              "log reconciles with manifest (zero lost events)")
        return 0

    variants = all_variants()
    if args.k:
        variants = [v for v in variants if args.k in v.describe()]
        if not variants:
            print(f"equivalence: no variant label contains {args.k!r}", file=sys.stderr)
            return 2

    pairs = len(variants) * len(args.workloads)
    print(
        f"# equivalence sweep [bit-identity]: {len(variants)} variants x "
        f"{len(args.workloads)} workloads = {pairs} pairs "
        f"({args.procs} processors, {'full' if args.full_scale else 'quick'} scale)"
    )
    failures = sweep(
        variants,
        workloads=args.workloads,
        n_procs=args.procs,
        quick=not args.full_scale,
        out=sys.stdout,
    )
    if failures:
        print(f"\nFAIL: {len(failures)} of {pairs} pairs diverged:")
        for label, workload, diffs, layer in failures:
            print(f"  {label} / {workload}: {', '.join(diffs)} [{layer}]")
        return 1
    print(f"\nOK: all {pairs} pairs bit-identical (telemetry excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
