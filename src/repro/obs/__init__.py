"""Simulator-wide instrumentation (``repro.obs``).

An :class:`~repro.obs.instrument.Instrument` is an event bus with typed
probe points — message send/receive, cache fill/evict/self-invalidate,
MSHR open/close, directory transaction begin/end, FIFO push/pop/overflow,
write-buffer fill/drain, sync enter/exit — threaded through every
component of the simulated machine::

    from repro import Machine, SystemConfig, workloads
    from repro.obs import Instrument, write_perfetto

    inst = Instrument()
    machine = Machine(SystemConfig(n_processors=8),
                      workloads.em3d(n_procs=8), instrument=inst)
    machine.run()
    write_perfetto(inst, "trace.json")   # open in ui.perfetto.dev

Probes stitch into coherence-transaction *spans* (miss request →
directory serialization → data grant → fill; inv → ack; sync enter →
exit) with per-span latency histograms, and into time-series counter
tracks (FIFO occupancy, write-buffer depth, directory occupancy, network
interface contention).

When no instrument is attached (the default) every probe site is a
single ``is not None`` check on a cached attribute: tier-1 runtime and
figure numbers are unchanged, which ``tests/test_obs.py`` proves with an
enabled-vs-disabled equivalence run.
"""

from repro.obs.analytics import AnalyticsInstrument, SharingClassifier
from repro.obs.audit import MessageLedger, audit_coherence
from repro.obs.causal import (
    CAUSAL_CATEGORIES,
    CausalInstrument,
    TxnTrace,
    WHY_SCHEMA_VERSION,
    diff_why,
    format_txn,
    format_why,
)
from repro.obs.export import (
    ascii_timeline,
    metrics_dict,
    to_perfetto,
    write_metrics,
    write_perfetto,
    write_why,
)
from repro.obs.instrument import Instrument
from repro.obs.samplers import Histogram, TimeSeries
from repro.obs.spans import Span

__all__ = [
    "Instrument",
    "AnalyticsInstrument",
    "CausalInstrument",
    "TxnTrace",
    "CAUSAL_CATEGORIES",
    "WHY_SCHEMA_VERSION",
    "diff_why",
    "format_txn",
    "format_why",
    "SharingClassifier",
    "MessageLedger",
    "audit_coherence",
    "Span",
    "Histogram",
    "TimeSeries",
    "to_perfetto",
    "write_perfetto",
    "metrics_dict",
    "write_metrics",
    "write_why",
    "ascii_timeline",
]
