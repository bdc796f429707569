"""Experiment runner: plan/collect orchestration over a RunPool.

Experiments run in two phases.  In the *plan* phase an experiment module
declares every simulation it needs as
:class:`~repro.harness.runspec.RunSpec` values and hands them to
:meth:`ExperimentRunner.prefetch`, which executes the whole batch through
the :class:`~repro.harness.runpool.RunPool` — in parallel when the pool
has more than one job, against the persistent result cache when one is
configured.  In the *collect* phase the module reads the finished
:class:`~repro.stats.record.RunRecord` values back (:meth:`run` /
:meth:`run_spec`) and formats its table.

``run()`` also works without a prior ``prefetch`` — an undeclared spec is
simply a batch of one — so exploratory code and tests keep the old
one-call interface.
"""

from repro.harness.configs import workload_args
from repro.harness.runpool import RunPool
from repro.harness.runspec import RunSpec
from repro.stats.report import format_table
from repro.workloads import by_name


class ExperimentResult:
    """Outcome of one experiment (one table or figure)."""

    def __init__(self, experiment_id, title, headers, rows, notes=""):
        self.experiment_id = experiment_id
        self.title = title
        self.headers = headers
        self.rows = rows
        self.notes = notes

    def format(self):
        text = format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        if self.notes:
            text += "\n" + self.notes
        return text

    def row_dicts(self):
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_dict(self):
        """Machine-readable form (the CLI's ``--json`` payload)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "row_dicts": self.row_dicts(),
            "notes": self.notes,
        }

    def __repr__(self):
        return f"ExperimentResult({self.experiment_id}, rows={len(self.rows)})"


class ExperimentRunner:
    """Declares, executes and memoizes simulation runs.

    Parameters
    ----------
    n_procs:
        Machine size (the paper uses 32).
    quick:
        Use reduced workload parameters — for tests and benchmark CI runs.
    verbose:
        Print one line per simulation run (or cache hit) to stderr.
    jobs:
        Worker processes for batch execution (``1`` = in-process serial).
    cache_dir:
        Directory for the persistent result cache (``None`` = off).
    use_cache:
        ``False`` bypasses the persistent cache.
    telemetry:
        A :class:`~repro.harness.telemetry.TelemetryConfig` forwarded to
        the pool (``--log``/``--live``/``--profile``); ``None`` means
        telemetry is off.
    """

    def __init__(self, n_procs=32, quick=False, verbose=False, jobs=1,
                 cache_dir=None, use_cache=True, telemetry=None):
        self.n_procs = n_procs
        self.quick = quick
        self.verbose = verbose
        self.pool = RunPool(
            jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, verbose=verbose,
            telemetry=telemetry,
        )
        self._programs = {}
        self._records = {}

    def close(self):
        """Flush and close the pool's telemetry sinks."""
        self.pool.close()

    # ------------------------------------------------------------------
    @property
    def total_sim_runs(self):
        """Simulations actually executed (cache hits excluded)."""
        return self.pool.executed

    @property
    def cache_hits(self):
        return self.pool.cache_hits

    # ------------------------------------------------------------------
    # Plan phase
    # ------------------------------------------------------------------
    def spec(self, workload, config, n_procs=None, **extra_args):
        """Declare one run: resolve the workload's generator arguments at
        this runner's scale and freeze them into a RunSpec."""
        args = workload_args(workload, quick=self.quick, n_procs=n_procs or self.n_procs)
        args.update(extra_args)
        return RunSpec.create(workload, config, **args)

    def prefetch(self, specs):
        """Execute every not-yet-collected spec as one pool batch."""
        missing = []
        seen = set()
        for spec in specs:
            if spec not in self._records and spec not in seen:
                seen.add(spec)
                missing.append(spec)
        if missing:
            self._records.update(self.pool.run_batch(missing))

    # ------------------------------------------------------------------
    # Collect phase
    # ------------------------------------------------------------------
    def run_spec(self, spec):
        """The RunRecord for ``spec`` (executing a batch of one if it was
        never prefetched)."""
        record = self._records.get(spec)
        if record is None:
            self.prefetch([spec])
            record = self._records[spec]
        return record

    def run(self, workload, config, n_procs=None, **workload_extra):
        """Simulate ``workload`` under ``config`` (memoized)."""
        return self.run_spec(self.spec(workload, config, n_procs=n_procs, **workload_extra))

    # ------------------------------------------------------------------
    def program(self, name, **extra_args):
        """Build (and memoize) a workload program in-process — for code
        that inspects the program itself rather than running it."""
        key = (name, tuple(sorted(extra_args.items())))
        if key not in self._programs:
            args = workload_args(name, quick=self.quick, n_procs=self.n_procs)
            args.update(extra_args)
            self._programs[key] = by_name(name, **args)
        return self._programs[key]
