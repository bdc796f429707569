"""Statistics: message counters, execution-time breakdowns, run records."""

from repro.stats.breakdown import Breakdown, CATEGORIES
from repro.stats.counters import MessageCounters, MissCounters
from repro.stats.record import RunRecord
from repro.stats.report import format_breakdown_table, format_table

__all__ = [
    "Breakdown",
    "CATEGORIES",
    "MessageCounters",
    "MissCounters",
    "RunRecord",
    "format_breakdown_table",
    "format_table",
]
