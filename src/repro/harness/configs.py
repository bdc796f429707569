"""Paper configurations, scaled.

The paper simulates 32 processors with 256 KB and 2 MB caches.  Our
workloads are scaled down by 16x to keep trace-driven simulation fast, so
the cache pair scales identically: 16 KB stands in for 256 KB, 128 KB for
2 MB.  What the experiments depend on is the *ratio* of working set to
cache size, which the scaling preserves (see DESIGN.md, substitutions).

Protocol labels follow Figure 3: SC (base sequential consistency), W
(weak consistency with a 16-entry coalescing write buffer), S (SC + DSI
with additional states), V (SC + DSI with 4-bit version numbers).

Beyond the paper's own bars, TARDIS / W+TARDIS select the leased
logical-timestamp protocol (Yu & Devadas, PACT'15) as a comparison
point: no sharer tracking, no invalidation traffic — self-invalidation
falls out of lease expiry (see docs/PROTOCOL.md).
"""

from repro.coherence.variants import ProtocolVariant, TearoffMode
from repro.config import Consistency, IdentifyScheme, KB, SIMechanism, SystemConfig
from repro.errors import ConfigError

SMALL_CACHE = 16 * KB  # stands for the paper's 256 KB
LARGE_CACHE = 128 * KB  # stands for the paper's 2 MB
FAST_NET = 100
SLOW_NET = 1000

#: Figure 3's four protocol bars.
PROTOCOLS = ("SC", "W", "S", "V")

#: The five applications of Table 1.
WORKLOADS = ("barnes", "em3d", "ocean", "sparse", "tomcatv")

_PROTOCOL_FIELDS = {
    "SC": {},
    "W": {"consistency": Consistency.WC},
    "S": {"identify": IdentifyScheme.STATES},
    "V": {"identify": IdentifyScheme.VERSION},
    # Weak consistency + DSI with tear-off blocks (§5.3).
    "W+V": {
        "consistency": Consistency.WC,
        "identify": IdentifyScheme.VERSION,
        "tearoff": True,
    },
    "W+S": {
        "consistency": Consistency.WC,
        "identify": IdentifyScheme.STATES,
        "tearoff": True,
    },
    # Figure 5's FIFO variant of V.
    "V-FIFO": {"identify": IdentifyScheme.VERSION, "si_mechanism": SIMechanism.FIFO},
    # Tardis leased logical timestamps (not a paper bar; ablation only).
    "TARDIS": {"tardis": True},
    "W+TARDIS": {"consistency": Consistency.WC, "tardis": True},
}


def paper_config(protocol="SC", cache=SMALL_CACHE, latency=FAST_NET, n_procs=32, **overrides):
    """A :class:`~repro.config.SystemConfig` for one paper data point."""
    protocol = protocol.upper()
    if protocol not in _PROTOCOL_FIELDS:
        raise ConfigError(f"unknown protocol label {protocol!r}; have {sorted(_PROTOCOL_FIELDS)}")
    fields = dict(_PROTOCOL_FIELDS[protocol])
    fields.update(overrides)
    return SystemConfig(
        n_processors=n_procs,
        cache_size=cache,
        network_latency=latency,
        **fields,
    )


def config_for_variant(variant, n_procs=32, **overrides):
    """A small-cache :class:`~repro.config.SystemConfig` realizing
    ``variant``: the inverse of
    :meth:`~repro.coherence.variants.ProtocolVariant.from_config`,
    checked to round-trip so a run covers the variant it names."""
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


#: Reduced workload parameters for quick runs (CI, pytest, benchmarks).
QUICK_WORKLOAD_ARGS = {
    "barnes": {"bodies_per_proc": 8, "cells": 48, "iterations": 2, "gather": 6},
    "em3d": {"nodes_per_proc": 48, "iterations": 3, "private_words": 256},
    "ocean": {"cols": 32, "days": 2, "sweeps_per_day": 3},
    # x_words stays large enough that the per-processor self-invalidate
    # set (~x_words/8 blocks) still overflows the 64-entry FIFO (Figure 5).
    "sparse": {"x_words": 1024, "iterations": 3, "a_words_per_proc": 256},
    "tomcatv": {"rows_per_proc": 6, "cols": 64, "iterations": 2},
}


def workload_args(name, quick=False, n_procs=32):
    """Keyword arguments for one workload generator at the chosen scale."""
    args = {"n_procs": n_procs}
    if quick:
        args.update(QUICK_WORKLOAD_ARGS.get(name, {}))
    return args
