"""The bulk generators reproduce their scalar references byte for byte.

``scalar_workloads`` holds the per-op loops that ``sparse``, ``tomcatv``,
``ocean`` and ``em3d`` (with ``WorkloadContext.stream_private``) were
before they built each phase with numpy.  Every trace field must match in
dtype and bytes, and the program's name, home and meta must match too.
"""

import numpy as np
import pytest

import scalar_workloads
from repro.harness.configs import QUICK_WORKLOAD_ARGS
from repro.workloads import em3d, ocean, sparse, tomcatv
from repro.workloads.base import WorkloadContext

GENERATORS = {"em3d": em3d, "ocean": ocean, "sparse": sparse, "tomcatv": tomcatv}


def assert_identical(program, reference):
    assert (program.name, program.home, program.meta) == (
        reference.name,
        reference.home,
        reference.meta,
    )
    assert program.n_procs == reference.n_procs
    for proc, (trace, want) in enumerate(zip(program.traces, reference.traces)):
        for field in ("gaps", "kinds", "addrs"):
            got, expected = getattr(trace, field), getattr(want, field)
            assert got.dtype == expected.dtype, (proc, field)
            assert got.tobytes() == expected.tobytes(), (proc, field)


def check(name, **kwargs):
    reference = getattr(scalar_workloads, name)(**kwargs)
    assert_identical(GENERATORS[name](**kwargs), reference)


@pytest.mark.parametrize("seed", [None, 7], ids=["default_seed", "seed7"])
@pytest.mark.parametrize("scale", ["quick", "default"])
@pytest.mark.parametrize("n_procs", [1, 2, 4, 8, 32])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_matches_scalar_reference(name, n_procs, scale, seed):
    kwargs = {"n_procs": n_procs}
    if scale == "quick":
        kwargs.update(QUICK_WORKLOAD_ARGS[name])
    if seed is not None:
        kwargs["seed"] = seed
    check(name, **kwargs)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("sparse", {"n_procs": 4, "sweep_stride": 1}),
        ("sparse", {"n_procs": 8, "sweep_stride": 3}),
        ("sparse", {"n_procs": 4, "sweeps_per_row": 0}),
        ("sparse", {"n_procs": 6, **QUICK_WORKLOAD_ARGS["sparse"]}),
        ("em3d", {"n_procs": 4, "private_words": 0}),
        ("em3d", {"n_procs": 8, **QUICK_WORKLOAD_ARGS["em3d"], "private_words": 0}),
        ("ocean", {"n_procs": 4, "cols": 33}),
        ("ocean", {"n_procs": 5, "rows_per_proc": 4, "cols": 31}),
        ("tomcatv", {"n_procs": 3, "cols": 30, "read_stride_words": 3}),
    ],
    ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value.values())),
)
def test_matches_scalar_reference_extra(name, kwargs):
    check(name, **kwargs)


@pytest.mark.parametrize("read_frac", [1.0, 0.3])
def test_stream_private_matches_scalar_draws(read_frac):
    """One ``rng.random(n)`` call keeps the same words as ``n`` scalar
    draws and leaves the generator in the same state."""
    bulk = WorkloadContext("t", 1, seed=5)
    scalar = WorkloadContext("t", 1, seed=5)
    scalar.builders = [scalar_workloads.ListBuilder()]
    base = bulk.alloc_words(0, 4096)
    assert scalar.alloc_words(0, 4096) == base
    bulk.stream_private(0, base, 4096, read_frac=read_frac)
    scalar_workloads.stream_private(scalar, 0, base, 4096, read_frac=read_frac)
    got, want = bulk.builders[0].build(), scalar.builders[0].build()
    assert np.array_equal(got.addrs, want.addrs)
    assert np.array_equal(got.gaps, want.gaps)
    assert 0 < len(got) <= 512
    assert bulk.rng.random() == scalar.rng.random()
