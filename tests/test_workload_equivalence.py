"""The bulk generators reproduce their scalar references byte for byte.

``scalar_workloads`` holds the per-op loops that ``barnes``, ``sparse``,
``tomcatv``, ``ocean`` and ``em3d`` were before they built each phase
with numpy.  Every trace field must match in dtype and bytes, and the
program's name, home and meta must match too.  ``barnes`` batches its
RNG draws and ``em3d`` replays its edge tables from raw PCG64 words,
which relies on properties of numpy's streams that
``test_numpy_streams_the_generators_rely_on`` names one by one.
"""

import importlib

import numpy as np
import pytest

import scalar_workloads
from repro.harness.configs import QUICK_WORKLOAD_ARGS
from repro.workloads import barnes, em3d, ocean, sparse, tomcatv
from repro.workloads.base import RAW, WorkloadContext, replay_bounded

GENERATORS = {"barnes": barnes, "em3d": em3d, "ocean": ocean, "sparse": sparse, "tomcatv": tomcatv}
barnes_module = importlib.import_module("repro.workloads.barnes")
em3d_module = importlib.import_module("repro.workloads.em3d")


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
        # One node per processor: the local draws (bound 1) take nothing.
        ("em3d", {"n_procs": 4, "nodes_per_proc": 1, "remote_frac": 0.3, "private_words": 0}),
        ("em3d", {"n_procs": 2, "nodes_per_proc": 0}),
        # More remote edges than the pool of 3 holds: ``choice`` takes all
        # three, and its first Floyd draw (bound 1) takes nothing.
        ("em3d", {"n_procs": 2, "nodes_per_proc": 3, "degree": 7, "remote_frac": 0.6}),
        # The first table ends with a high half buffered, which the second
        # table's first bounded draw takes (``test_em3d_seed_2_...``).
        ("em3d", {"n_procs": 8, **QUICK_WORKLOAD_ARGS["em3d"], "seed": 2}),
    ],
    ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value.values())),
)
def test_matches_scalar_reference_extra(name, kwargs):
    check(name, **kwargs)


def test_barnes_rejected_draw_replays_one_call_at_a_time(monkeypatch):
    """Where numpy would reject a raw body-index word, the generator is
    rewound and that iteration drawn one call at a time: the trace still
    matches, and the next iteration is batched again."""
    replay = barnes_module.replay_bounded
    calls = []

    def reject_second_call(raw, bound):
        picks, replayed = replay(raw, bound)
        calls.append(bool(replayed.all()))
        if len(calls) == 2:
            replayed = replayed.copy()
            replayed[-1, -1] = False
        return picks, replayed

    monkeypatch.setattr(barnes_module, "replay_bounded", reject_second_call)
    kwargs = {"n_procs": 5, **QUICK_WORKLOAD_ARGS["barnes"], "iterations": 3}
    assert_identical(barnes(**kwargs), scalar_workloads.barnes(**kwargs))
    assert calls == [True, True, True]


def test_em3d_fallback_replays_one_call_at_a_time(monkeypatch):
    """Where the replay meets a draw it does not model (here a bounded
    draw numpy would reject, in the second of the two edge tables), the
    generator is rewound and that table drawn one call at a time: the
    trace and the generator's final state still match the scalar loop's."""
    replay = em3d_module.replay_bounded
    calls = []

    def reject_in_second_table(halves, bounds):
        values, replayed = replay(halves, bounds)
        calls.append(bool(replayed.all()))
        if len(calls) == 2:
            replayed = replayed.copy()
            replayed[len(replayed) // 2] = False
        return values, replayed

    final_states = []
    program = WorkloadContext.program

    def recording_program(self, *args, **kwargs):
        final_states.append(self.rng.bit_generator.state)
        return program(self, *args, **kwargs)

    monkeypatch.setattr(em3d_module, "replay_bounded", reject_in_second_table)
    monkeypatch.setattr(WorkloadContext, "program", recording_program)
    kwargs = {"n_procs": 5, **QUICK_WORKLOAD_ARGS["em3d"]}
    assert_identical(em3d(**kwargs), scalar_workloads.em3d(**kwargs))
    assert calls == [True, True]
    replayed_end, scalar_end = final_states
    assert replayed_end == scalar_end


def test_em3d_seed_2_leaves_a_half_buffered():
    """The premise of the seed-2 equivalence case: at quick scale and 8
    processors, the first edge table ends with a high half buffered."""
    rng = np.random.default_rng(2)
    em3d_module._edge_table(rng, 8, QUICK_WORKLOAD_ARGS["em3d"]["nodes_per_proc"], 5, 0.05)
    assert rng.bit_generator.state["has_uint32"] == 1


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
            value, replayed = replay_bounded(raw, np.array([s]))
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


def _halves(state, raw):
    """The 32-bit stream a generator in ``state`` draws from next: the
    buffered high half, if any, then each raw word's low and high half."""
    buffered = [state["uinteger"]] if state["has_uint32"] else []
    return buffered + [half for word in raw.tolist() for half in (word & (RAW - 1), word >> 32)]


def _lemire(halves, bound):
    """One ``integers(0, bound)`` from a stream of 32-bit halves, as numpy
    draws it: Lemire's rule, skipping a rejected half; a bound of 1
    takes nothing.  Returns the value and the halves taken."""
    if bound == 1:
        return 0, 0
    for taken, half in enumerate(halves, 1):
        scaled = half * bound
        if scaled & (RAW - 1) >= (RAW - bound) % bound:
            return scaled >> 32, taken
    raise AssertionError("stream too short")


def _started(seed, odd):
    """A generator at ``seed``; with ``odd``, one 32-bit half drawn, so a
    high half is buffered."""
    rng = np.random.default_rng(seed)
    if odd:
        rng.integers(0, 7)
    return rng


def _random_is_a_words_top_53_bits():
    for seed in range(20):
        rng = _started(seed, seed % 2)
        raw = _twin(rng).bit_generator.random_raw(8)
        if rng.random(8).tolist() != ((raw >> 11) * em3d_module._DOUBLE).tolist():
            return False
    return True


def _buffered_half_survives_random():
    """A 32-bit draw takes a new word's low half and keeps its high half
    for the next 32-bit draw; ``random()`` calls in between take whole
    words and leave it alone."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w0, w1, w2, w3 = _twin(rng).bit_generator.random_raw(4).tolist()
        low = int(rng.integers(0, RAW))
        doubles = rng.random(2).tolist()
        high = int(rng.integers(0, RAW))
        last = rng.random()
        if (low, high) != (w0 & (RAW - 1), w0 >> 32):
            return False
        if doubles + [last] != [(w >> 11) * em3d_module._DOUBLE for w in (w1, w2, w3)]:
            return False
    return True


def _integers_are_lemire_draws_on_halves():
    """``integers(0, n, size=m)`` takes one Lemire draw per value from the
    32-bit stream (the buffered half first), skipping rejected halves;
    with ``n == 1`` it takes nothing."""
    rejected = False
    for seed in range(30):
        for bound in (1, 2, 7, 48, 128, 3968, 2**30 + 1, 3 * 2**29 + 1):  # the last two reject 1 in 4
            rng = _started(seed, seed % 2)
            twin = _twin(rng)
            stream = _halves(twin.bit_generator.state, twin.bit_generator.random_raw(16))
            want, pos = [], 0
            for _ in range(9):
                value, taken = _lemire(stream[pos:], bound)
                want.append(value)
                pos += taken
            rejected |= pos > 9
            before = rng.bit_generator.state
            if rng.integers(0, bound, size=9).tolist() != want:
                return False
            if bound == 1 and rng.bit_generator.state != before:
                return False
            if pos < len(stream) and int(rng.integers(0, RAW)) != stream[pos]:
                return False  # took a different number of halves
    return rejected


def _choice_is_floyd_then_shuffle():
    """``choice(pool, size=k, replace=False)`` with ``pool <= 10,000`` is
    Floyd's k draws (bounds ``pool - k + 1`` up to ``pool``), then a
    shuffle of ``k - 1`` draws (bounds ``k`` down to 2), each a Lemire
    draw on the 32-bit stream."""
    for seed in range(30):
        for pool, k in ((3968, 1), (3968, 5), (10_000, 7), (3, 3), (5, 2), (2, 1), (200, 0)):
            rng = _started(seed, seed % 2)
            twin = _twin(rng)
            stream = _halves(twin.bit_generator.state, twin.bit_generator.random_raw(2 * k + 4))
            draws, pos = [], 0
            for bound in [*range(pool - k + 1, pool + 1), *range(k, 1, -1)]:
                value, taken = _lemire(stream[pos:], bound)
                draws.append(value)
                pos += taken
            got = rng.choice(pool, size=k, replace=False).tolist()
            if got != em3d_module._floyd_shuffle(draws, pool, k):
                return False
            if int(rng.integers(0, RAW)) != stream[pos]:
                return False  # took a different number of halves
    return True


def _restore_advance_and_buffer_reach_numpy_state():
    """Restoring the state saved before a run of draws, advancing it by
    the words they used and assigning the buffered half gives the state
    numpy's own calls leave, buffered half or not."""
    for seed in range(20):
        for odd in (False, True):
            for n_halves in range(4):
                rng = _started(seed, odd)
                state = rng.bit_generator.state
                stream = _halves(state, _twin(rng).bit_generator.random_raw(8)[2:])
                rng.random(2)
                rng.integers(0, RAW, size=n_halves)
                twin = np.random.Generator(np.random.PCG64())
                fresh = (n_halves - odd + 1) // 2  # new words the halves took
                last = stream[odd + 2 * fresh - 1] if odd + fresh else state["uinteger"]
                buffered = odd + 2 * fresh - n_halves
                em3d_module._set_position(twin.bit_generator, state, 2 + fresh, buffered, last)
                if not _same_state(rng, twin):
                    return False
    return True


NUMPY_PROPERTIES = {
    "integers with per-element bounds equals one scalar call per bound":
        _per_element_bounds_match_scalar_calls,
    "random(n) equals n calls of random()": _random_n_matches_n_calls,
    "a raw 32-bit slot plus (x * s) >> 32 replays integers(0, s)":
        _raw_slot_replays_bounded_draw,
    "choice(size=0, replace=False) draws nothing": _empty_choice_draws_nothing,
    "random() is a raw word's top 53 bits times 2**-53": _random_is_a_words_top_53_bits,
    "a buffered high half survives random() calls": _buffered_half_survives_random,
    "integers(0, n, size=m) is Lemire draws on 32-bit halves, none for n == 1":
        _integers_are_lemire_draws_on_halves,
    "choice(pool <= 10,000, size=k, replace=False) is Floyd's k draws then a (k - 1)-draw shuffle":
        _choice_is_floyd_then_shuffle,
    "restore + advance(words) + buffered half reaches numpy's state":
        _restore_advance_and_buffer_reach_numpy_state,
}


def test_numpy_streams_the_generators_rely_on():
    """Batched draws give the scalar loops' traces only while numpy's
    streams have these properties; a numpy without one fails here by
    name."""
    broken = [name for name, holds in NUMPY_PROPERTIES.items() if not holds()]
    assert broken == [], f"numpy {np.__version__} breaks: {broken}"
