"""Execution-time breakdown, mirroring the categories of the paper's Figure 3.

Every cycle of every processor's execution is attributed to exactly one
category:

``compute``
    Instruction execution, including cache hits.
``sync``
    Stalled at synchronization operations (lock wait, barrier wait, and the
    coherence misses of the lock words themselves).
``read_inval`` / ``write_inval``
    The portion of a read/write miss spent *waiting at the directory for
    outstanding copies to be invalidated* — the maximum time DSI can
    eliminate.
``read_other`` / ``write_other``
    The remainder of read/write miss latency (network, occupancies,
    queueing, data transfer).
``synch_wb``
    (WC) waiting at a synchronization point for the write buffer to drain.
``read_wb``
    (WC) read miss to a block with an outstanding write miss.
``wb_full``
    (WC) stalled because the 16-entry write buffer was full.
``dsi``
    Waiting for self-invalidation to complete at a synchronization point.
"""

CATEGORIES = (
    "compute",
    "sync",
    "read_inval",
    "read_other",
    "write_inval",
    "write_other",
    "synch_wb",
    "read_wb",
    "wb_full",
    "dsi",
)


class Breakdown:
    """Per-processor (or aggregated) cycle counts by category."""

    __slots__ = CATEGORIES

    def __init__(self):
        for name in CATEGORIES:
            setattr(self, name, 0)

    def add(self, category, cycles):
        setattr(self, category, getattr(self, category) + cycles)

    def total(self):
        return sum(getattr(self, name) for name in CATEGORIES)

    def merge(self, other):
        """Accumulate another breakdown into this one (for aggregation)."""
        for name in CATEGORIES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self):
        return {name: getattr(self, name) for name in CATEGORIES}

    def fractions(self):
        """Category shares of the total (all zero if the total is zero)."""
        total = self.total()
        if total == 0:
            return {name: 0.0 for name in CATEGORIES}
        return {name: getattr(self, name) / total for name in CATEGORIES}

    def __repr__(self):
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"Breakdown({parts})"
