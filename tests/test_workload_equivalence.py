"""The bulk generators reproduce their scalar references byte for byte.

``scalar_workloads`` holds the per-op loops that ``barnes``, ``sparse``,
``tomcatv``, ``ocean`` and ``em3d`` (with
``WorkloadContext.stream_private``) were before they built each phase
with numpy.  Every trace field must match in dtype and bytes, and the
program's name, home and meta must match too.  ``barnes`` and ``em3d``
batch RNG draws, which relies on properties of numpy's streams that
``test_numpy_streams_the_generators_rely_on`` names one by one.
"""

import importlib

import numpy as np
import pytest

import scalar_workloads
from repro.harness.configs import QUICK_WORKLOAD_ARGS
from repro.workloads import barnes, em3d, ocean, sparse, tomcatv
from repro.workloads.base import WorkloadContext

GENERATORS = {"barnes": barnes, "em3d": em3d, "ocean": ocean, "sparse": sparse, "tomcatv": tomcatv}
barnes_module = importlib.import_module("repro.workloads.barnes")


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
@pytest.mark.parametrize("n_procs", [1, 2, 3, 4, 5, 8, 32])
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
        # Processors with one body: numpy draws nothing for their body
        # index, so those iterations are drawn one call at a time.
        ("barnes", {"n_procs": 4, "bodies_per_proc": 1, "imbalance": 0.0}),
        ("barnes", {"n_procs": 5, "bodies_per_proc": 1, "imbalance": 2.0}),
        ("barnes", {"n_procs": 3, "gather": 0, "cells": 1, "locks": 2}),
        ("barnes", {"n_procs": 5, "compute_per_interaction": 0, "locks": 7, "seed": 3}),
        ("em3d", {"n_procs": 3, "degree": 0, "private_words": 0}),
        ("em3d", {"n_procs": 5, "remote_frac": 0.9, "nodes_per_proc": 4}),
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


def test_barnes_rejected_draw_replays_one_call_at_a_time(monkeypatch):
    """Where numpy would reject a raw body-index word, the generator is
    rewound and that iteration drawn one call at a time: the trace still
    matches, and the next iteration is batched again."""
    replay = barnes_module._replay_bounded
    calls = []

    def reject_second_call(raw, bound):
        picks, replayed = replay(raw, bound)
        calls.append(bool(replayed.all()))
        if len(calls) == 2:
            replayed = replayed.copy()
            replayed[-1, -1] = False
        return picks, replayed

    monkeypatch.setattr(barnes_module, "_replay_bounded", reject_second_call)
    kwargs = {"n_procs": 5, **QUICK_WORKLOAD_ARGS["barnes"], "iterations": 3}
    assert_identical(barnes(**kwargs), scalar_workloads.barnes(**kwargs))
    assert calls == [True, True, True]


def _twin(rng):
    """A generator in ``rng``'s current state, drawing independently."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


def _per_element_bounds_match_scalar_calls():
    bounds = np.array([48, 1, 7, 2**32, 32, 25, 1, 2, 3 * 2**30 + 1, 128] * 40)
    for seed in range(20):
        bulk = np.random.default_rng(seed)
        scalar = _twin(bulk)
        drawn = bulk.integers(0, bounds)
        if drawn.tolist() != [int(scalar.integers(0, b)) for b in bounds]:
            return False
        if not _same_state(bulk, scalar):
            return False
    return True


def _random_n_matches_n_calls():
    for seed in range(20):
        bulk = np.random.default_rng(seed)
        scalar = _twin(bulk)
        bulk.integers(0, 7)  # an odd number of 32-bit halves drawn first
        scalar.integers(0, 7)
        if bulk.random(5).tolist() != [scalar.random() for _ in range(5)]:
            return False
        if not _same_state(bulk, scalar):
            return False
    return True


def _raw_slot_replays_bounded_draw():
    """Where the rule says a raw word replays ``integers(0, s)``, numpy
    gives that value from that word alone; where it says not, numpy
    draws again (or, for ``s == 1``, draws nothing)."""
    outcomes = set()
    for seed in range(50):
        for s in (1, 2, 7, 24, 43, 2**30 + 1, 3 * 2**29 + 1):  # the last two reject 1 in 4
            raw_rng = np.random.default_rng(seed)
            bounded = _twin(raw_rng)
            raw = raw_rng.integers(0, 2**32, size=1)
            value, replayed = barnes_module._replay_bounded(raw, np.array([s]))
            want = int(bounded.integers(0, s))
            if replayed[0] and not (want == value[0] and _same_state(raw_rng, bounded)):
                return False
            if not replayed[0] and _same_state(raw_rng, bounded):
                return False
            outcomes.add(bool(replayed[0]))
    return outcomes == {True, False}


def _empty_choice_draws_nothing():
    for pool in (5, 3968, 20_000):
        rng = np.random.default_rng(pool)
        before = rng.bit_generator.state
        if len(rng.choice(pool, size=0, replace=False)) or rng.bit_generator.state != before:
            return False
    return True


NUMPY_PROPERTIES = {
    "integers with per-element bounds equals one scalar call per bound":
        _per_element_bounds_match_scalar_calls,
    "random(n) equals n calls of random()": _random_n_matches_n_calls,
    "a raw 32-bit slot plus (x * s) >> 32 replays integers(0, s)":
        _raw_slot_replays_bounded_draw,
    "choice(size=0, replace=False) draws nothing": _empty_choice_draws_nothing,
}


def test_numpy_streams_the_generators_rely_on():
    """Batched draws give the scalar loops' traces only while numpy's
    streams have these properties; a numpy without one fails here by
    name."""
    broken = [name for name, holds in NUMPY_PROPERTIES.items() if not holds()]
    assert broken == [], f"numpy {np.__version__} breaks: {broken}"
