"""Interpreted-vs-compiled equivalence (tier-1 slice of the proof).

The full proof — every variant of
:func:`repro.harness.equivalence.all_variants` on every paper workload —
runs via ``python -m repro.harness.equivalence`` (CI's ``check-protocol``
job and the ``DSI_EQUIV_FULL=1`` gate below).  Here a representative
spine of the variant space runs on two workloads at small scale so the
tier-1 suite catches a divergence in seconds.
"""

import os

import pytest

from repro.coherence.variants import ProtocolVariant, TearoffMode
from repro.config import IdentifyScheme, SIMechanism
from repro.harness import equivalence
from repro.harness.configs import WORKLOADS, workload_args

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


@pytest.mark.parametrize("variant", SPINE, ids=lambda v: v.describe())
@pytest.mark.parametrize("workload", WORKLOAD_SLICE)
def test_compiled_paths_bit_identical(variant, workload):
    config = equivalence.config_for_variant(variant, n_procs=PROCS)
    wl_args = workload_args(workload, quick=True, n_procs=PROCS)
    equal, diffs = equivalence.check_pair(workload, config, wl_args)
    assert equal, f"{variant.describe()}/{workload} diverged on: {', '.join(diffs)}"


def test_config_for_variant_roundtrips_every_variant():
    variants = equivalence.all_variants()
    # 22 structural combinations per migratory setting + SC/WC Tardis.
    assert len(variants) == 46
    for variant in variants:
        config = equivalence.config_for_variant(variant)
        assert ProtocolVariant.from_config(config) == variant


def test_reference_config_flips_both_layers():
    config = equivalence.config_for_variant(ProtocolVariant())
    ref = equivalence.reference_config(config)
    assert config.compiled_dispatch and config.direct_execution
    assert not ref.compiled_dispatch and not ref.direct_execution
    # Everything else is untouched — same machine, different engine.
    assert ref.with_(compiled_dispatch=True, direct_execution=True) == config


@pytest.mark.skipif(
    not os.environ.get("DSI_EQUIV_FULL"),
    reason="full 46-variant x 5-workload sweep; set DSI_EQUIV_FULL=1",
)
def test_full_equivalence_sweep():
    failures = equivalence.sweep(workloads=WORKLOADS)
    assert not failures, failures
