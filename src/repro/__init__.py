"""Dynamic Self-Invalidation (Lebeck & Wood, ISCA 1995) — a reproduction.

The library simulates a 32-node directory-based shared-memory
multiprocessor and implements the paper's dynamic self-invalidation (DSI)
protocols on top of sequentially- and weakly-consistent full-map
write-invalidate coherence.

Quickstart::

    from repro import Machine, SystemConfig, IdentifyScheme, workloads

    program = workloads.sparse(n_procs=8)
    base = Machine(SystemConfig(n_processors=8), program).run()
    dsi = Machine(
        SystemConfig(n_processors=8, identify=IdentifyScheme.VERSION), program
    ).run()
    print(dsi.exec_time / base.exec_time)
"""

from repro.config import (
    Consistency,
    IdentifyScheme,
    KB,
    MB,
    SIMechanism,
    SystemConfig,
)
from repro.errors import (
    ConfigError,
    DeadlockError,
    ProtocolError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.stats.report import format_breakdown_table, format_table
from repro.system import Machine, simulate
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program, Trace

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "Consistency",
    "DeadlockError",
    "IdentifyScheme",
    "KB",
    "MB",
    "Machine",
    "Program",
    "ProtocolError",
    "ReproError",
    "SIMechanism",
    "SimulationError",
    "SystemConfig",
    "Trace",
    "TraceBuilder",
    "TraceError",
    "format_breakdown_table",
    "format_table",
    "simulate",
]
