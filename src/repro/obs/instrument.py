"""The central instrumentation bus.

One :class:`Instrument` is attached to a :class:`~repro.system.Machine`
at construction time (``Machine(config, program, instrument=inst)``); the
machine hands it to every component, and each component keeps the
reference in a local attribute (``self.obs``).  A probe site is::

    if self.obs is not None:
        self.obs.cache_fill(self.node, block, state, si, tearoff)

so with no instrument attached (the default) the entire layer costs one
attribute load and an ``is not None`` test per probe — the null case is
decided once, at attach time, by storing ``None``.

The instrument does four things with the probe stream:

* **counts** every probe and every message kind;
* **logs messages** into one :class:`~repro.stats.tracer.MessageTracer`
  (``instrument.messages``), which feeds both the terminal message
  tables and the Perfetto message instants;
* **stitches spans** (:mod:`repro.obs.spans`): cache-side miss
  transactions (MSHR open → close), directory transactions (request →
  grant), invalidation round trips (INV → ack) and synchronization
  episodes (enter → exit), each feeding a latency
  :class:`~repro.obs.samplers.Histogram`;
* **samples time series** (:mod:`repro.obs.samplers`): per-node FIFO
  occupancy, write-buffer depth, directory occupancy (open transactions
  per home) and network-interface queue depth.

Exporters (:mod:`repro.obs.export`) turn the result into a
Chrome/Perfetto ``trace.json``, a JSON metrics dump, or an ASCII
timeline.
"""

from collections import Counter

from repro.obs.samplers import Histogram, TimeSeries
from repro.obs.spans import LANE_DIR, LANE_PROC, SpanTracker
from repro.stats.tracer import MessageTracer

#: Span categories with latency histograms.
CATEGORIES = ("miss", "dir", "inv", "sync")

#: Every counter key a probe can bump.  Exporters zero-fill these in the
#: metrics dump so consumers can tell "this probe never fired" apart from
#: "this probe does not exist" when diffing runs.
PROBE_TYPES = (
    "message_send",
    "message_receive",
    "cache_fill",
    "cache_fill_si",
    "cache_fill_tearoff",
    "cache_evict",
    "cache_evict_dirty",
    "self_invalidate",
    "self_invalidate_early",
    "protocol_transition",
    "mshr_open",
    "mshr_close",
    "txn_done",
    "dir_txn",
    "dir_grant",
    "dir_grant_si",
    "dir_grant_tearoff",
    "inv_sent",
    "inv_acked",
    "fifo_push",
    "fifo_pop",
    "fifo_overflow",
    "wb_fill",
    "wb_drain",
    "sync_enter",
    "sync_exit",
    "lease_grant",
    "lease_renew_changed",
    "lease_renew_unchanged",
    "lease_expire",
)


class Instrument:
    """Typed probe points, span stitching and time-series sampling.

    Parameters
    ----------
    messages:
        The run's message log, a :class:`~repro.stats.tracer.MessageTracer`
        (default: an unfiltered one holding up to 100k messages).  Pass
        one with ``blocks``/``txns`` filters to log only those messages;
        counting is never filtered or bounded.
    max_spans:
        Bound on retained finished spans (latency histograms keep
        accumulating past it).
    """

    #: Span categories, exposed on the class for consumers holding an
    #: instance (the CLI's latency summary iterates them).
    CATEGORIES = CATEGORIES

    def __init__(self, messages=None, max_spans=200_000):
        self.sim = None
        self.n_processors = 0
        self.counts = Counter()
        self.message_kinds = Counter()
        self.transitions = Counter()
        self.spans = SpanTracker(max_spans=max_spans)
        self.latency = {category: Histogram(category) for category in CATEGORIES}
        self.fifo_series = {}
        self.wb_series = {}
        self.dir_series = {}
        self.ni_series = {}
        self.messages = MessageTracer() if messages is None else messages
        self._dir_open = Counter()
        self._next_txn_id = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def bind(self, sim, n_processors):
        """Called by the machine when the instrument is attached."""
        if self.sim is not None and self.sim is not sim:
            raise ValueError("an Instrument can only be attached to one machine")
        self.sim = sim
        self.n_processors = max(self.n_processors, n_processors)

    @property
    def now(self):
        return self.sim.now if self.sim is not None else 0

    def alloc_txn(self):
        """Hand out the next coherence-transaction id.

        Called by a cache controller when it registers an MSHR; the id
        rides the request :class:`~repro.network.message.Message` and is
        echoed by every causally downstream message (grant, INV fan-out,
        INV acks, ACK_DONE), keying the Perfetto flow arrows and the
        causal DAGs of :mod:`repro.obs.causal`.  Ids are allocated in
        dispatch order, so a deterministic simulation assigns identical
        ids on every instrumented re-run — ``dsi-sim trace --txn N``
        replays exactly the transaction ``dsi-sim why`` reported."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def _series(self, table, node, prefix):
        series = table.get(node)
        if series is None:
            series = table[node] = TimeSeries(f"{prefix}{node}")
        return series

    # ------------------------------------------------------------------
    # Network probes
    # ------------------------------------------------------------------
    def message_send(self, msg, is_network):
        self.counts["message_send"] += 1
        self.message_kinds[msg.kind.name] += 1
        self.messages.record(self.now, msg, not is_network)

    def message_receive(self, msg, is_network):
        self.counts["message_receive"] += 1

    def ni_queue(self, node, depth):
        """Network-interface injection queue depth changed."""
        self._series(self.ni_series, node, "ni").record(self.now, depth)

    # ------------------------------------------------------------------
    # Cache probes
    # ------------------------------------------------------------------
    def cache_fill(self, node, block, state_name, si, tearoff):
        self.counts["cache_fill"] += 1
        if si:
            self.counts["cache_fill_si"] += 1
        if tearoff:
            self.counts["cache_fill_tearoff"] += 1

    def cache_evict(self, node, block, dirty):
        self.counts["cache_evict"] += 1
        if dirty:
            self.counts["cache_evict_dirty"] += 1

    def cache_self_invalidate(self, node, block, at_sync):
        self.counts["self_invalidate"] += 1
        if not at_sync:
            self.counts["self_invalidate_early"] += 1

    # ------------------------------------------------------------------
    # Protocol transitions (the coherence tables' single probe site)
    # ------------------------------------------------------------------
    def protocol_transition(self, side, node, block, state, event, next_state):
        """One table row fired at a controller.

        ``side`` is "cache" or "dir"; the states/events are the symbolic
        names from :mod:`repro.coherence.events`.  Aggregated per
        (side, state, event, next_state) — the histogram of which protocol
        rows actually fire in a run.
        """
        self.counts["protocol_transition"] += 1
        self.transitions[(side, state, event, next_state)] += 1

    # ------------------------------------------------------------------
    # MSHR probes (cache-side coherence transactions)
    # ------------------------------------------------------------------
    def mshr_open(self, node, block, kind, txn_id=None, blocking=False,
                  sync=False, renewal=False):
        """A cache-side coherence transaction opened.

        ``txn_id`` is the causal id from :meth:`alloc_txn`; ``blocking``
        means the issuing processor stalls until :meth:`txn_done`
        (``False`` for WC buffered writes); ``sync`` marks a lock-word
        transfer issued inside a synchronization operation; ``renewal``
        marks a Tardis reload of a copy the cache only dropped because
        its lease expired."""
        self.counts["mshr_open"] += 1
        self.spans.begin(
            ("mshr", node, block),
            "miss",
            f"{kind} blk{block}",
            LANE_PROC,
            node,
            self.now,
            kind=kind,
            block=block,
            txn=txn_id,
        )

    def mshr_close(self, node, block):
        self.counts["mshr_close"] += 1
        span = self.spans.end(("mshr", node, block), self.now)
        if span is not None:
            self.latency["miss"].add(span.duration)

    def txn_done(self, node, block, txn_id):
        """The transaction's completion callback fired at the requester.

        Distinct from :meth:`mshr_close`: a fill deferred by pinned
        frames pops the MSHR first and completes the waiting access only
        once a frame frees up, so completion — the instant a blocking
        processor's stall ends — can be later than the MSHR pop."""
        self.counts["txn_done"] += 1

    # ------------------------------------------------------------------
    # Directory probes
    # ------------------------------------------------------------------
    def dir_txn_begin(self, home, block, kind, requester, txn_id=None):
        key = ("dir", home, block)
        self.counts["dir_txn"] += 1
        if not self.spans.is_open(key):
            self._dir_open[home] += 1
            self._series(self.dir_series, home, "dir").record(
                self.now, self._dir_open[home]
            )
        self.spans.begin(
            key,
            "dir",
            f"{kind} blk{block}",
            LANE_DIR,
            home,
            self.now,
            kind=kind,
            block=block,
            requester=requester,
            txn=txn_id,
        )

    def dir_txn_end(self, home, block):
        span = self.spans.end(("dir", home, block), self.now)
        if span is not None:
            self.latency["dir"].add(span.duration)
            self._dir_open[home] -= 1
            self._series(self.dir_series, home, "dir").record(
                self.now, self._dir_open[home]
            )

    def dir_grant(self, home, block, requester, kind, si, tearoff, txn_id=None):
        """The directory responded to a request (DATA/DATA_EX/UPGRADE_ACK).

        ``kind`` is "read", "write" or "upgrade"; ``si`` and ``tearoff``
        carry the identification policy's decision for this grant — the
        ground truth the DSI-accuracy report measures speculation against.
        """
        self.counts["dir_grant"] += 1
        if si:
            self.counts["dir_grant_si"] += 1
        if tearoff:
            self.counts["dir_grant_tearoff"] += 1

    def inv_sent(self, home, block, target, txn_id=None):
        self.counts["inv_sent"] += 1
        self.spans.begin(
            ("inv", home, block, target),
            "inv",
            f"inv blk{block}->{target}",
            LANE_DIR,
            home,
            self.now,
            block=block,
            target=target,
            txn=txn_id,
        )

    def inv_acked(self, home, block, target, txn_id=None):
        self.counts["inv_acked"] += 1
        span = self.spans.end(("inv", home, block, target), self.now)
        if span is not None:
            self.latency["inv"].add(span.duration)

    # ------------------------------------------------------------------
    # Tardis lease probes
    # ------------------------------------------------------------------
    def lease_grant(self, home, block, requester, lease, renewed, changed):
        """A Tardis read grant extended a block's lease.

        ``renewed`` means the requester held an expired copy of this block
        (its retained ``wts`` rode the GETS); ``changed`` refines a
        renewal: the block was written since that copy was leased, i.e.
        the lease expiry was a *justified* self-invalidation rather than a
        wasted one.  The renewed/changed split is the lease-prediction
        accuracy measure reported by ``dsi-sim analyze``.
        """
        self.counts["lease_grant"] += 1
        if renewed:
            if changed:
                self.counts["lease_renew_changed"] += 1
            else:
                self.counts["lease_renew_unchanged"] += 1

    def lease_expire(self, node, block):
        """A cache dropped a copy because its lease expired (pts > rts)."""
        self.counts["lease_expire"] += 1

    # ------------------------------------------------------------------
    # Self-invalidation FIFO probes
    # ------------------------------------------------------------------
    def fifo_push(self, node, depth, block=None):
        self.counts["fifo_push"] += 1
        self._series(self.fifo_series, node, "fifo").record(self.now, depth)

    def fifo_pop(self, node, depth, block=None):
        self.counts["fifo_pop"] += 1
        self._series(self.fifo_series, node, "fifo").record(self.now, depth)

    def fifo_overflow(self, node, block=None):
        self.counts["fifo_overflow"] += 1

    # ------------------------------------------------------------------
    # Write-buffer probes
    # ------------------------------------------------------------------
    def wb_fill(self, node, depth, block=None):
        self.counts["wb_fill"] += 1
        self._series(self.wb_series, node, "wb").record(self.now, depth)

    def wb_drain(self, node, depth, block=None):
        self.counts["wb_drain"] += 1
        self._series(self.wb_series, node, "wb").record(self.now, depth)

    # ------------------------------------------------------------------
    # Synchronization probes
    # ------------------------------------------------------------------
    def sync_enter(self, node, kind):
        self.counts["sync_enter"] += 1
        self.spans.begin(
            ("sync", node),
            "sync",
            kind,
            LANE_PROC,
            node,
            self.now,
            kind=kind,
        )

    def sync_exit(self, node, kind):
        self.counts["sync_exit"] += 1
        span = self.spans.end(("sync", node), self.now)
        if span is not None:
            self.latency["sync"].add(span.duration)

    # ------------------------------------------------------------------
    # Quiesce
    # ------------------------------------------------------------------
    def on_quiesce(self, machine):
        """Called by the machine once every processor has finished.

        The base instrument does nothing with it; consumer layers override
        it (:class:`~repro.obs.analytics.AnalyticsInstrument` audits the
        quiesced machine's directory state against the caches here)."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def finished_spans(self):
        return list(self.spans.spans)

    def series_tables(self):
        """{group: {node: TimeSeries}} for every sampled counter."""
        return {
            "fifo_occupancy": self.fifo_series,
            "write_buffer_depth": self.wb_series,
            "directory_occupancy": self.dir_series,
            "ni_queue_depth": self.ni_series,
        }

    def __repr__(self):
        return (
            f"Instrument(spans={len(self.spans.spans)}, "
            f"messages={self.counts['message_send']})"
        )
