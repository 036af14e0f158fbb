"""Tests for the page allocator and per-process address spaces."""

import random

import pytest

from repro.config import CacheGeometry
from repro.errors import AddressError
from repro.mem.allocator import AddressSpace, PageAllocator
from repro.mem.layout import CacheSetMapping


def make_allocator(frames=1 << 20, seed=0):
    return PageAllocator(random.Random(seed), frames=frames)


def test_frames_are_page_aligned_and_unique():
    alloc = make_allocator()
    frames = alloc.alloc_frames(200)
    assert len(set(frames)) == 200
    assert all(f % 4096 == 0 for f in frames)


def test_exhaustion_raises():
    alloc = make_allocator(frames=4)
    alloc.alloc_frames(4)
    with pytest.raises(AddressError):
        alloc.alloc_frame()


def test_invalid_frame_count_rejected():
    with pytest.raises(AddressError):
        PageAllocator(random.Random(0), frames=0)


def test_two_spaces_never_share_pages():
    alloc = make_allocator()
    a = AddressSpace(alloc, "a")
    b = AddressSpace(alloc, "b")
    pages_a = set(a.alloc_pages(100))
    pages_b = set(b.alloc_pages(100))
    assert not pages_a & pages_b


def test_lines_with_offset_layout():
    space = AddressSpace(make_allocator(), "p")
    lines = space.lines_with_offset(0x140, count=10)
    assert len(lines) == 10
    assert all(line % 4096 == 0x140 for line in lines)


def test_lines_with_offset_rejects_unaligned():
    space = AddressSpace(make_allocator(), "p")
    with pytest.raises(AddressError):
        space.lines_with_offset(3)
    with pytest.raises(AddressError):
        space.lines_with_offset(4096)


def test_candidate_lines_allocates_lazily():
    space = AddressSpace(make_allocator(), "p")
    stream = space.candidate_lines(offset=0)
    first = [next(stream) for _ in range(50)]
    assert len(set(first)) == 50
    assert len(space.pages) >= 50


def test_congruent_lines_are_congruent():
    mapping = CacheSetMapping(CacheGeometry(sets=64, ways=8, slices=1))
    space = AddressSpace(make_allocator(), "p")
    target = space.alloc_pages(1)[0] + 0x80
    congruent = space.congruent_lines(mapping, target, count=5)
    assert len(congruent) == 5
    assert all(mapping.congruent(line, target) for line in congruent)
    assert target not in congruent


def test_lines_in_page():
    space = AddressSpace(make_allocator(), "p")
    page = space.alloc_pages(1)[0]
    lines = space.lines_in_page(page)
    assert len(lines) == 64
    assert lines[0] == page
    assert lines[-1] == page + 4032


def test_lines_in_foreign_page_rejected():
    space = AddressSpace(make_allocator(), "p")
    space.alloc_pages(1)
    with pytest.raises(AddressError):
        space.lines_in_page(0xDEAD000)


def test_near_exhaustion_allocates_every_frame():
    # Regression: alloc_frame sampled frame numbers until it found a free
    # one, so a nearly-full pool could spin unboundedly.  It now falls back
    # to sampling the free set directly after a bounded number of attempts.
    alloc = make_allocator(frames=64)
    frames = [alloc.alloc_frame() for _ in range(64)]
    assert len(set(frames)) == 64
    with pytest.raises(AddressError):
        alloc.alloc_frame()


def test_near_exhaustion_is_deterministic():
    a = make_allocator(frames=32, seed=9)
    b = make_allocator(frames=32, seed=9)
    assert [a.alloc_frame() for _ in range(32)] \
        == [b.alloc_frame() for _ in range(32)]


def test_sparse_pool_unaffected_by_fallback():
    # The rejection-sampling fast path still serves non-degenerate pools;
    # same seed, same draws, same frames as ever.
    a = make_allocator(seed=4)
    b = make_allocator(seed=4)
    assert a.alloc_frames(500) == b.alloc_frames(500)


def _reference_alloc_frame(rng, frames, allocated):
    """One frame by bounded rejection sampling, drawn one call at a time."""
    from repro.mem.allocator import ALLOC_ATTEMPTS

    if len(allocated) >= frames:
        raise AddressError("physical memory exhausted")
    for _ in range(ALLOC_ATTEMPTS):
        frame = rng.randrange(frames)
        if frame not in allocated:
            allocated.add(frame)
            return frame << 12
    free = sorted(set(range(frames)) - allocated)
    frame = free[rng.randrange(len(free))]
    allocated.add(frame)
    return frame << 12


@pytest.mark.parametrize("frames,batches", [
    (1 << 20, [1, 500, 37]),  # sparse: no collisions
    (256, [100, 100, 50, 6]),  # collisions, then the free-set fallback
])
def test_batched_frames_match_one_at_a_time_draws(frames, batches):
    alloc = make_allocator(frames=frames, seed=11)
    rng, allocated = random.Random(11), set()
    for count in batches:
        expected = [_reference_alloc_frame(rng, frames, allocated)
                    for _ in range(count)]
        assert alloc.alloc_frames(count) == expected
    assert alloc._rng.getstate() == rng.getstate()
    assert alloc.capture() == tuple(sorted(allocated))
