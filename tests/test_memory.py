"""Unit tests for the memory substrates: address map, cache, write buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.errors import SimulationError, TraceError
from repro.memory.address import Allocator, RoundRobinHome, SegmentHome, SEGMENT_SHIFT
from repro.memory.cache import Cache, EXCLUSIVE, SHARED
from repro.memory.write_buffer import CoalescingWriteBuffer, WAIT_ACK, WAIT_DATA

KB = 1024


def make_cache(cache_size=8 * KB, assoc=4, block_size=32):
    config = SystemConfig(cache_size=cache_size, cache_assoc=assoc, block_size=block_size)
    return Cache(config, node=0)


class TestHomeMaps:
    def test_round_robin(self):
        home = RoundRobinHome(4)
        assert [home.home_of(b) for b in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_segment_home(self):
        home = SegmentHome(4, block_shift=5)
        block_in_seg2 = (2 << SEGMENT_SHIFT) >> 5
        assert home.home_of(block_in_seg2) == 2
        assert home.home_of(0) == 0

    def test_segment_home_out_of_range(self):
        home = SegmentHome(2, block_shift=5)
        bad_block = (3 << SEGMENT_SHIFT) >> 5
        with pytest.raises(TraceError):
            home.home_of(bad_block)


class TestAllocator:
    def test_allocations_live_in_own_segment(self):
        alloc = Allocator(4, 32)
        for node in range(4):
            addr = alloc.alloc(node, 128)
            assert addr >> SEGMENT_SHIFT == node

    def test_block_alignment(self):
        alloc = Allocator(2, 32)
        alloc.alloc(0, 10)
        addr = alloc.alloc(0, 10)
        assert addr % 32 == 0

    def test_allocations_do_not_overlap(self):
        alloc = Allocator(1, 32)
        a = alloc.alloc(0, 100)
        b = alloc.alloc(0, 100)
        assert b >= a + 100

    def test_staggered_bases_differ_mod_sets(self):
        # The anti-aliasing stagger: equal offsets on different nodes must
        # not map to the same cache set index.
        alloc = Allocator(8, 32)
        bases = [alloc.alloc(node, 32) for node in range(8)]
        sets = {(addr >> 5) % 128 for addr in bases}
        assert len(sets) > 1

    def test_segment_overflow(self):
        alloc = Allocator(1, 32)
        with pytest.raises(TraceError):
            alloc.alloc(0, 5 << SEGMENT_SHIFT)

    def test_bad_node(self):
        alloc = Allocator(2, 32)
        with pytest.raises(TraceError):
            alloc.alloc(5, 8)

    def test_alloc_blocks(self):
        alloc = Allocator(1, 32)
        first = alloc.alloc_blocks(0, 4)
        second = alloc.alloc_blocks(0, 4)
        assert second == first + 4

    def test_bytes_used(self):
        alloc = Allocator(1, 32)
        alloc.alloc(0, 64)
        assert alloc.bytes_used(0) >= 64

    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_property_no_overlap(self, sizes):
        alloc = Allocator(1, 32)
        regions = []
        for size in sizes:
            base = alloc.alloc(0, size)
            regions.append((base, base + size))
        regions.sort()
        for (_, end), (start, _) in zip(regions, regions[1:]):
            assert start >= end


class TestCacheBasics:
    def test_miss_then_fill_then_hit(self):
        cache = make_cache()
        assert cache.lookup(100) is None
        frame, victim = cache.fill(100, SHARED, data=1)
        assert victim is None
        hit = cache.lookup(100)
        assert hit is frame
        assert hit.state == SHARED
        assert hit.data == 1

    def test_fill_same_block_twice_rejected(self):
        cache = make_cache()
        cache.fill(100, SHARED, data=1)
        with pytest.raises(SimulationError):
            cache.fill(100, SHARED, data=2)

    def test_invalidate_keeps_tag_and_version(self):
        cache = make_cache()
        frame, _ = cache.fill(100, SHARED, data=1, version=7)
        cache.invalidate(frame)
        assert cache.lookup(100) is None
        assert cache.stored_version(100) == 7

    def test_invalidate_drop_version(self):
        cache = make_cache()
        frame, _ = cache.fill(100, SHARED, data=1, version=7)
        cache.invalidate(frame, keep_version=False)
        assert cache.stored_version(100) is None

    def test_refill_after_invalidate_reuses_frame(self):
        cache = make_cache()
        frame, _ = cache.fill(100, SHARED, data=1)
        cache.invalidate(frame)
        frame2, victim = cache.fill(100, EXCLUSIVE, data=2)
        assert frame2 is frame
        assert victim is None
        assert frame2.state == EXCLUSIVE

    def test_lru_eviction(self):
        cache = make_cache(assoc=2)
        n_sets = cache.n_sets
        blocks = [i * n_sets for i in range(3)]  # all map to set 0
        cache.fill(blocks[0], SHARED, data=0)
        cache.fill(blocks[1], SHARED, data=1)
        cache.lookup(blocks[0])  # touch 0: 1 becomes LRU
        _, victim = cache.fill(blocks[2], SHARED, data=2)
        assert victim is not None
        assert victim.block == blocks[1]

    def test_victim_carries_state(self):
        cache = make_cache(assoc=1)
        n_sets = cache.n_sets
        cache.fill(0, EXCLUSIVE, data=5, dirty=True, s_bit=True)
        _, victim = cache.fill(n_sets, SHARED, data=6)
        assert victim.block == 0
        assert victim.state == EXCLUSIVE
        assert victim.dirty
        assert victim.s_bit
        assert victim.data == 5

    def test_pinned_frames_not_evicted(self):
        cache = make_cache(assoc=2)
        n_sets = cache.n_sets
        frame0, _ = cache.fill(0, SHARED, data=0)
        frame1, _ = cache.fill(n_sets, SHARED, data=1)
        frame0.pinned = True
        _, victim = cache.fill(2 * n_sets, SHARED, data=2)
        assert victim.block == n_sets  # frame0 skipped despite being LRU

    def test_all_pinned_returns_none(self):
        cache = make_cache(assoc=2)
        n_sets = cache.n_sets
        frame0, _ = cache.fill(0, SHARED, data=0)
        frame1, _ = cache.fill(n_sets, SHARED, data=1)
        frame0.pinned = frame1.pinned = True
        frame, victim = cache.fill(2 * n_sets, SHARED, data=2)
        assert frame is None and victim is None

    def test_invalid_victim_prefers_lru(self):
        cache = make_cache(assoc=2)
        n_sets = cache.n_sets
        frame0, _ = cache.fill(0, SHARED, data=0, version=3)
        frame1, _ = cache.fill(n_sets, SHARED, data=1, version=4)
        cache.invalidate(frame0)
        cache.invalidate(frame1)  # frame1 touched later -> higher lru
        cache.fill(2 * n_sets, SHARED, data=2)
        # The older invalid frame (frame0) should have been recycled,
        # keeping frame1's version history alive.
        assert cache.stored_version(n_sets) == 4
        assert cache.stored_version(0) is None


class TestCacheSIList:
    def test_si_fill_registers(self):
        cache = make_cache()
        frame, _ = cache.fill(5, SHARED, data=0, s_bit=True)
        assert frame in cache.si_frames

    def test_invalidate_unregisters(self):
        cache = make_cache()
        frame, _ = cache.fill(5, SHARED, data=0, s_bit=True)
        cache.invalidate(frame)
        assert frame not in cache.si_frames
        assert not frame.s_bit

    def test_mark_and_unmark(self):
        cache = make_cache()
        frame, _ = cache.fill(5, SHARED, data=0)
        cache.mark_si(frame)
        assert frame.s_bit and frame in cache.si_frames
        cache.mark_si(frame, marked=False)
        assert not frame.s_bit and frame not in cache.si_frames

    def test_eviction_of_marked_block_unregisters(self):
        cache = make_cache(assoc=1)
        n_sets = cache.n_sets
        frame, _ = cache.fill(0, SHARED, data=0, s_bit=True)
        cache.fill(n_sets, SHARED, data=1)
        assert frame not in cache.si_frames
        assert not any(f.tag == 0 and f.s_bit for s in cache.sets for f in s)

    def test_eviction_of_marked_block_clears_flag(self):
        cache = make_cache(assoc=1)
        n_sets = cache.n_sets
        cache.fill(0, SHARED, data=0, s_bit=True)
        frame, _ = cache.fill(n_sets, SHARED, data=1, s_bit=False)
        assert not frame.s_bit
        assert frame not in cache.si_frames


class TestCacheIntrospection:
    def test_valid_blocks(self):
        cache = make_cache()
        cache.fill(1, SHARED, data=0)
        cache.fill(2, EXCLUSIVE, data=0)
        assert set(cache.valid_blocks()) == {1, 2}

    def test_occupancy(self):
        cache = make_cache()
        for block in range(10):
            cache.fill(block, SHARED, data=0)
        assert cache.occupancy() == 10

    def test_state_name(self):
        cache = make_cache()
        frame, _ = cache.fill(1, SHARED, data=0)
        assert frame.state_name() == "S"
        cache.invalidate(frame)
        assert frame.state_name() == "I"


@st.composite
def cache_ops(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fill", "touch", "inval", "mark", "refill"]),
                st.integers(0, 30),
            ),
            max_size=60,
        )
    )
    return ops


class TestCacheModelProperty:
    @given(cache_ops())
    @settings(max_examples=80, deadline=None)
    def test_against_reference_lru(self, ops):
        """The cache must agree with a simple dict-based LRU reference."""
        assoc = 2
        cache = make_cache(cache_size=2 * 32 * 4, assoc=assoc)  # 4 sets
        n_sets = cache.n_sets
        reference = {}  # set_index -> list of blocks in LRU order (oldest first)

        def ref_set(block):
            return reference.setdefault(block % n_sets, [])

        for op, block in ops:
            bucket = ref_set(block)
            if op == "fill":
                if block in bucket:
                    continue  # model: no double fill
                if cache.lookup(block, touch=False) is not None:
                    continue
                frame, victim = cache.fill(block, SHARED, data=0)
                if len(bucket) == assoc:
                    expected_victim = bucket.pop(0)
                    assert victim is not None and victim.block == expected_victim
                bucket.append(block)
            elif op == "touch":
                hit = cache.lookup(block)
                assert (hit is not None) == (block in bucket)
                if block in bucket:
                    bucket.remove(block)
                    bucket.append(block)
            elif op == "inval":
                frame = cache.lookup(block, touch=False)
                if block in bucket:
                    assert frame is not None
                    cache.invalidate(frame)
                    bucket.remove(block)
                else:
                    assert frame is None
            elif op == "mark":  # toggle the s bit; validity is unchanged
                frame = cache.lookup(block, touch=False)
                if frame is not None:
                    cache.mark_si(frame, marked=not frame.s_bit)
            else:  # refill: invalidate, then fill into the frame keeping the tag
                frame = cache.lookup(block, touch=False)
                if frame is not None:
                    cache.invalidate(frame)
                    refilled, victim = cache.fill(block, SHARED, data=1)
                    assert refilled is frame and victim is None
                    bucket.remove(block)
                    bucket.append(block)
            assert cache.valid_map == {
                f.tag: f for s in cache.sets for f in s if f.valid
            }
        valid = set(cache.valid_blocks())
        expected = {b for bucket in reference.values() for b in bucket}
        assert valid == expected


class TestWriteBuffer:
    def test_allocate_and_retire(self):
        wb = CoalescingWriteBuffer(2)
        wb.allocate(1, data=10, now=0)
        assert len(wb) == 1 and not wb.empty
        wb.retire(1)
        assert wb.empty

    def test_full(self):
        wb = CoalescingWriteBuffer(2)
        wb.allocate(1, 0, 0)
        wb.allocate(2, 0, 0)
        assert wb.full
        with pytest.raises(SimulationError):
            wb.allocate(3, 0, 0)

    def test_duplicate_rejected(self):
        wb = CoalescingWriteBuffer(2)
        wb.allocate(1, 0, 0)
        with pytest.raises(SimulationError):
            wb.allocate(1, 0, 0)

    def test_merge(self):
        wb = CoalescingWriteBuffer(2)
        entry = wb.allocate(1, data=10, now=0)
        wb.merge(1, data=20)
        assert entry.data == 20
        assert entry.merged_writes == 1
        assert wb.total_merges == 1

    def test_status_transitions(self):
        wb = CoalescingWriteBuffer(2)
        entry = wb.allocate(1, 0, 0)
        assert entry.status == WAIT_DATA
        wb.mark_data_arrived(1)
        assert entry.status == WAIT_ACK

    def test_when_space_immediate(self):
        wb = CoalescingWriteBuffer(1)
        called = []
        wb.when_space(lambda: called.append(1))
        assert called == [1]

    def test_when_space_deferred(self):
        wb = CoalescingWriteBuffer(1)
        wb.allocate(1, 0, 0)
        called = []
        wb.when_space(lambda: called.append(1))
        assert called == []
        wb.retire(1)
        assert called == [1]

    def test_when_empty(self):
        wb = CoalescingWriteBuffer(2)
        wb.allocate(1, 0, 0)
        wb.allocate(2, 0, 0)
        called = []
        wb.when_empty(lambda: called.append(1))
        wb.retire(1)
        assert called == []
        wb.retire(2)
        assert called == [1]

    def test_retire_unknown_rejected(self):
        wb = CoalescingWriteBuffer(2)
        with pytest.raises(SimulationError):
            wb.retire(9)

    def test_peak_occupancy(self):
        wb = CoalescingWriteBuffer(4)
        wb.allocate(1, 0, 0)
        wb.allocate(2, 0, 0)
        wb.retire(1)
        assert wb.peak_occupancy == 2
