"""The two processor paths on the tier-1 variant spine.

Every run dispatches through the compiled tables.  A processor retires
its cache hits by direct execution in the default run, and takes the
interpreted loop for every op in the monitored run
(``check_invariants=True``: the coherence monitor observes every
access).  ``tests/test_golden_records.py`` holds both paths' records to
the committed digests; here the two records of each spine run are
compared field by field, so a divergence names its fields.  Each spine
run happens once per session: both files read :func:`spine_record`.
"""

import functools

import pytest

from repro.coherence.variants import ProtocolVariant, TearoffMode, all_variants
from repro.config import IdentifyScheme, SIMechanism
from repro.harness.configs import config_for_variant, workload_args
from repro.harness.runspec import RunSpec

#: Spine of the variant space: base protocols, both identification
#: schemes the paper evaluates, both SI mechanisms, both tear-off modes,
#: migratory, and Tardis.
SPINE = [
    ProtocolVariant(),  # SC base
    ProtocolVariant(wc=True),  # WC base
    ProtocolVariant(identify=IdentifyScheme.VERSION, mechanism=SIMechanism.SYNC_FLUSH),
    ProtocolVariant(identify=IdentifyScheme.VERSION, mechanism=SIMechanism.FIFO),
    ProtocolVariant(
        identify=IdentifyScheme.STATES,
        mechanism=SIMechanism.SYNC_FLUSH,
        tearoff=TearoffMode.SC,
    ),
    ProtocolVariant(
        wc=True,
        identify=IdentifyScheme.VERSION,
        mechanism=SIMechanism.SYNC_FLUSH,
        tearoff=TearoffMode.WC,
    ),
    ProtocolVariant(
        identify=IdentifyScheme.VERSION,
        mechanism=SIMechanism.SYNC_FLUSH,
        migratory=True,
    ),
    ProtocolVariant(tardis=True),
]

WORKLOAD_SLICE = ("em3d", "sparse")
PROCS = 4


def run_record(variant, workload, n_procs, monitored=False):
    """One quick-scale run of ``workload`` under ``variant``; ``monitored``
    turns the coherence monitor on, which takes the interpreted loop."""
    config = config_for_variant(variant, n_procs=n_procs, check_invariants=monitored)
    spec = RunSpec.create(workload, config, **workload_args(workload, quick=True, n_procs=n_procs))
    return spec.execute(spec.build_program())


@functools.lru_cache(maxsize=None)
def spine_record(variant, workload, monitored):
    return run_record(variant, workload, PROCS, monitored)


@pytest.mark.parametrize("variant", SPINE, ids=lambda v: v.describe())
@pytest.mark.parametrize("workload", WORKLOAD_SLICE)
def test_compiled_paths_bit_identical(variant, workload):
    fast = spine_record(variant, workload, False)._measured_dict()
    ref = spine_record(variant, workload, True)._measured_dict()
    assert [key for key in fast if fast[key] != ref[key]] == []


def test_config_for_variant_roundtrips_every_variant():
    variants = all_variants()
    # 22 structural combinations per migratory setting + SC/WC Tardis.
    assert len(variants) == 46
    for variant in variants:
        config = config_for_variant(variant)
        assert ProtocolVariant.from_config(config) == variant
