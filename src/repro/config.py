"""System configuration.

A :class:`SystemConfig` describes one simulated machine: the node count,
cache geometry, controller occupancies, network timing, the consistency
model, and — the subject of the paper — which dynamic self-invalidation
scheme is active.  The defaults reproduce the machine of the paper's §5.1
methodology (32 processors, 4-way caches with 32-byte blocks, 3-cycle
cache controller, 10-cycle directory controller, 3(+8)-cycle injection,
constant 100-cycle network).
"""

import enum
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.errors import ConfigError

KB = 1024
MB = 1024 * KB


class Consistency(enum.Enum):
    """Memory consistency model (paper §2, §5.1)."""

    SC = "sc"  # sequential consistency: stall on every miss
    WC = "wc"  # weak consistency: 16-entry coalescing write buffer


class IdentifyScheme(enum.Enum):
    """How blocks are identified for self-invalidation.

    STATES and VERSION are the paper's two directory-side schemes (§4.1).
    CACHE is the cache-side alternative §3.1 sketches but does not
    evaluate: the cache controller keeps a history of recently invalidated
    blocks and marks its own fills once a block has been invalidated
    under it ``cache_inval_threshold`` times.
    """

    NONE = "none"  # base protocol, no DSI
    STATES = "states"  # four additional directory states
    VERSION = "version"  # 4-bit version numbers + 2-bit read counter
    CACHE = "cache"  # cache-side invalidation-count history (§3.1)


class SIMechanism(enum.Enum):
    """How the cache controller performs self-invalidation (§4.2)."""

    SYNC_FLUSH = "sync-flush"  # selective flush at synchronization operations
    FIFO = "fifo"  # 64-entry FIFO; invalidate on overflow, flush at sync


class ExecutionMode(enum.Enum):
    """The execution engine a run takes.  There is one: every message hop,
    resource occupancy and quantum boundary fires as a discrete event
    through the full Message/table machinery.  Kept as a one-member enum
    for provenance records that name the engine."""

    REFERENCE = "reference"


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated machine + protocol."""

    # --- machine ------------------------------------------------------
    n_processors: int = 32
    cache_size: int = 256 * KB
    cache_assoc: int = 4
    block_size: int = 32
    cache_ctrl_cycles: int = 3  # cache-controller occupancy per miss/message
    dir_ctrl_cycles: int = 10  # directory-controller occupancy per message
    inject_cycles: int = 3  # network-interface injection overhead
    inject_data_cycles: int = 8  # additional injection cycles w/ a data block
    network_latency: int = 100  # constant message latency (no switch contention)
    local_latency: int = 1  # intra-node (cache <-> home directory) hop
    barrier_latency: int = 100  # hardware barrier: cycles from last arrival
    cache_hit_cycles: int = 1  # folded into computation time

    # --- consistency model --------------------------------------------
    consistency: Consistency = Consistency.SC
    write_buffer_entries: int = 16  # WC coalescing write buffer depth

    # --- dynamic self-invalidation -------------------------------------
    identify: IdentifyScheme = IdentifyScheme.NONE
    version_bits: int = 4
    read_counter_bits: int = 2
    si_mechanism: SIMechanism = SIMechanism.SYNC_FLUSH
    fifo_entries: int = 64
    tearoff: bool = False  # untracked shared copies (WC only; §3.3)
    # Extension (§3.3): tear-off blocks under sequential consistency —
    # at most ONE untracked copy per cache, invalidated at the next cache
    # miss (Scheurich's condition) and at synchronization operations.
    sc_tearoff: bool = False
    # Cache-side identification (§3.1): mark fills of blocks this cache
    # has seen explicitly invalidated at least this many times.
    cache_inval_threshold: int = 2
    cache_history_entries: int = 1024  # invalidation-history table size
    # Migratory-data optimization (paper §2 cites Cox & Fowler / Stenström
    # et al. as complementary): the directory detects read-then-write
    # migration and answers *reads* of migratory blocks with an exclusive
    # copy, eliminating the later upgrade.  Composable with DSI.
    migratory: bool = False
    # §4.1 special cases (both default on; ablation A3/A4 toggle them)
    sc_upgrade_special_case: bool = True
    home_exclusion: bool = True
    si_flush_cycles_per_block: int = 3  # controller cost per self-invalidated block

    # --- Tardis leased timestamps (Yu & Devadas, PACT'15) ---------------
    # Replaces sharer tracking with logical leases: reads lease a block
    # until wts + lease, writes jump the block's timestamp past every
    # outstanding lease, and self-invalidation falls out of lease expiry
    # with zero invalidation traffic.  Mutually exclusive with the DSI
    # identification schemes, tear-off copies and the migratory
    # optimization (Tardis *is* the self-invalidation mechanism).
    tardis: bool = False
    lease: int = 8  # static lease length, in logical timestamp ticks
    lease_adaptive: bool = False  # per-block adaptive lease predictor
    lease_min: int = 2  # adaptive predictor floor
    lease_max: int = 64  # adaptive predictor ceiling

    # --- simulation ----------------------------------------------------
    quantum: int = 100  # max cycles of hit-processing per processor event
    check_invariants: bool = False  # enable the SWMR/value protocol monitor
    max_events: int = 0  # 0 = unlimited; else abort after this many events
    # Execution paths (repro.coherence.compile / repro.processor.fastpath).
    # Both default on; the interpreted paths stay bit-identical and remain
    # as the reference side of the equivalence harness
    # (``dsi-sim run --no-fastpath`` turns both off).
    compiled_dispatch: bool = True  # table lowered to integer-indexed dispatch
    direct_execution: bool = True  # retire cache hits outside the engine
    # The one execution engine; a class constant, not a field, so no spec,
    # flag or ``replace()`` can set it.
    execution_mode: ClassVar[ExecutionMode] = ExecutionMode.REFERENCE

    def __post_init__(self):
        if self.n_processors < 1:
            raise ConfigError("n_processors must be >= 1")
        if self.block_size & (self.block_size - 1):
            raise ConfigError("block_size must be a power of two")
        if self.cache_size % (self.block_size * self.cache_assoc):
            raise ConfigError("cache_size must be a multiple of block_size * assoc")
        if self.version_bits < 1 or self.version_bits > 16:
            raise ConfigError("version_bits must be in [1, 16]")
        if self.read_counter_bits < 1 or self.read_counter_bits > 8:
            raise ConfigError("read_counter_bits must be in [1, 8]")
        if self.tearoff and self.consistency is Consistency.SC:
            raise ConfigError(
                "tear-off blocks require weak consistency (a sequentially "
                "consistent cache may hold at most one tear-off block; "
                "see §3.3 — use sc_tearoff for that variant)"
            )
        if self.tearoff and self.identify is IdentifyScheme.NONE:
            raise ConfigError("tear-off blocks require a DSI identification scheme")
        if self.sc_tearoff:
            if self.consistency is not Consistency.SC:
                raise ConfigError("sc_tearoff is the sequentially consistent variant")
            if self.identify is IdentifyScheme.NONE:
                raise ConfigError("sc_tearoff requires a DSI identification scheme")
            if self.identify is IdentifyScheme.CACHE:
                raise ConfigError(
                    "tear-off blocks need directory-side identification (the "
                    "directory must know not to track the copy)"
                )
        if self.tearoff and self.identify is IdentifyScheme.CACHE:
            raise ConfigError(
                "tear-off blocks need directory-side identification (the "
                "directory must know not to track the copy)"
            )
        if self.cache_inval_threshold < 1:
            raise ConfigError("cache_inval_threshold must be >= 1")
        if self.cache_history_entries < 1:
            raise ConfigError("cache_history_entries must be >= 1")
        if self.tardis:
            if self.identify is not IdentifyScheme.NONE:
                raise ConfigError(
                    "tardis replaces DSI identification (leases are the "
                    "self-invalidation mechanism); identify must be NONE"
                )
            if self.tearoff or self.sc_tearoff:
                raise ConfigError("tardis tracks no sharers; tear-off is meaningless")
            if self.migratory:
                raise ConfigError(
                    "the migratory optimization is not modelled under tardis"
                )
        if self.lease < 1:
            raise ConfigError("lease must be >= 1")
        if not 1 <= self.lease_min <= self.lease_max:
            raise ConfigError("need 1 <= lease_min <= lease_max")
        if self.quantum < 0:
            raise ConfigError("quantum must be >= 0")
        if self.write_buffer_entries < 1:
            raise ConfigError("write_buffer_entries must be >= 1")
        if self.fifo_entries < 1:
            raise ConfigError("fifo_entries must be >= 1")

    # --- derived geometry ----------------------------------------------
    @property
    def n_blocks(self):
        return self.cache_size // self.block_size

    @property
    def n_sets(self):
        return self.n_blocks // self.cache_assoc

    @property
    def block_shift(self):
        return self.block_size.bit_length() - 1

    @property
    def version_mask(self):
        return (1 << self.version_bits) - 1

    @property
    def read_counter_mask(self):
        return (1 << self.read_counter_bits) - 1

    @property
    def dsi_enabled(self):
        return self.identify is not IdentifyScheme.NONE

    def with_(self, **overrides):
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def describe(self):
        """Short human-readable protocol label, e.g. ``SC+DSI(V)``."""
        label = self.consistency.name
        if self.tardis:
            label += f"+TARDIS{self.lease}"
            if self.lease_adaptive:
                label += "a"
            return label
        if self.dsi_enabled:
            scheme = {
                IdentifyScheme.STATES: "S",
                IdentifyScheme.VERSION: "V",
                IdentifyScheme.CACHE: "C",
            }[self.identify]
            label += f"+DSI({scheme})"
            if self.si_mechanism is SIMechanism.FIFO:
                label += f"+FIFO{self.fifo_entries}"
            if self.tearoff or self.sc_tearoff:
                label += "+TO"
        return label
