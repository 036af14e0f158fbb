"""Physical page allocation and per-process address spaces.

On real hardware an unprivileged attacker controls the low 12 bits of its
addresses (the page offset) but receives *random* physical page frames from
the OS.  :class:`PageAllocator` models the OS frame pool; :class:`AddressSpace`
models one process's view: it can allocate pages and enumerate candidate
lines, but learning which LLC set a line maps to requires either the
simulator's ground truth (tests) or a search algorithm
(:mod:`repro.attacks.evset`).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from ..config import PAGE_SIZE, CACHE_LINE_SIZE
from ..errors import AddressError
from .address import PAGE_OFFSET_BITS, LINES_PER_PAGE
from .layout import CacheSetMapping

#: Size of a huge page (2 MiB) and the number of 4 KiB frames it spans.
HUGE_PAGE_SIZE = 2 * 2**20
FRAMES_PER_HUGE_PAGE = HUGE_PAGE_SIZE // PAGE_SIZE

#: Rejection-sampling attempts before :meth:`PageAllocator.alloc_frame`
#: falls back to drawing directly from the free set.  Generous enough that
#: a pool under ~98% occupancy virtually never falls back (keeping the RNG
#: stream — hence every derived address — identical to the unbounded
#: sampler), while a nearly full pool stays O(frames) instead of looping
#: toward forever.
ALLOC_ATTEMPTS = 64

#: Candidate pages :meth:`AddressSpace.congruent_lines` tests per batch: large
#: enough to amortize the per-batch mapping call, small enough that a space
#: holding many pages is not tested far past its last needed match.
SCAN_CHUNK = 256


class PageAllocator:
    """Hands out distinct, randomly chosen physical page frames.

    ``frames`` bounds physical memory (default models 16 GiB).  Frames are
    drawn without replacement so two processes never share a page — matching
    the paper's no-shared-data threat model.
    """

    def __init__(self, rng: random.Random, frames: int = 16 * 2**30 // PAGE_SIZE):
        if frames <= 0:
            raise AddressError(f"frames must be positive, got {frames}")
        self._rng = rng
        self._frames = frames
        self._allocated: set[int] = set()

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    def alloc_frame(self) -> int:
        """Allocate one page frame; returns its base physical address."""
        return self.alloc_frames(1)[0]

    def alloc_frames(self, count: int) -> List[int]:
        """Allocate ``count`` page frames; returns their base addresses.

        Each frame is drawn by rejection sampling, bounded at
        :data:`ALLOC_ATTEMPTS` draws; a degenerate (nearly exhausted) pool
        then samples one frame uniformly from the sorted free set instead
        of spinning.  Noise working sets draw thousands of frames, so one
        loop serves the whole batch.
        """
        allocated = self._allocated
        n_frames = self._frames
        randrange = self._rng.randrange
        bases: List[int] = []
        for _ in range(count):
            if len(allocated) >= n_frames:
                raise AddressError("physical memory exhausted")
            for _ in range(ALLOC_ATTEMPTS):
                frame = randrange(n_frames)
                if frame not in allocated:
                    break
            else:
                free = sorted(set(range(n_frames)) - allocated)
                frame = free[randrange(len(free))]
            allocated.add(frame)
            bases.append(frame << PAGE_OFFSET_BITS)
        return bases

    def capture(self) -> tuple:
        """Allocated frame numbers as a sorted tuple.

        Sorted so equal pools capture equally regardless of set-iteration
        order — the tuple feeds checkpoint digests, which must be stable
        across processes.  (The allocator's RNG belongs to the machine and
        is checkpointed there.)
        """
        return tuple(sorted(self._allocated))

    def restore(self, state: tuple) -> None:
        """Restore the frame pool from :meth:`capture` output."""
        self._allocated = set(state)

    def alloc_huge_frame(self) -> int:
        """Allocate a 2 MiB-aligned, physically contiguous huge page.

        Huge pages hand the process 21 physical address bits — enough to
        cover every LLC set-index bit, which is why real attacks request
        them: set targeting stops being a search problem (only the slice
        hash's contribution from the page base stays unknown).
        """
        n_huge = self._frames // FRAMES_PER_HUGE_PAGE
        if n_huge == 0:
            raise AddressError("physical memory too small for huge pages")
        for _ in range(10_000):
            huge_index = self._rng.randrange(n_huge)
            base_frame = huge_index * FRAMES_PER_HUGE_PAGE
            span = range(base_frame, base_frame + FRAMES_PER_HUGE_PAGE)
            if any(frame in self._allocated for frame in span):
                continue
            self._allocated.update(span)
            return base_frame << PAGE_OFFSET_BITS
        raise AddressError(
            "could not find a free huge page (memory too fragmented)"
        )


class AddressSpace:
    """One process's pool of allocated memory.

    The process knows its own addresses (and their page offsets) but not how
    they map into the sliced LLC.  ``lines_with_offset`` yields one line per
    page at a fixed page offset — the standard way attacks generate candidate
    lines that agree on the low set-index bits.
    """

    def __init__(self, allocator: PageAllocator, name: str = "proc"):
        self._allocator = allocator
        self.name = name
        self._pages: List[int] = []
        self._huge_pages: List[int] = []

    @property
    def pages(self) -> List[int]:
        return list(self._pages)

    def alloc_pages(self, count: int) -> List[int]:
        """Grow this address space by ``count`` pages."""
        new = self._allocator.alloc_frames(count)
        self._pages.extend(new)
        return new

    def alloc_huge_pages(self, count: int) -> List[int]:
        """Allocate ``count`` 2 MiB huge pages; returns their base addresses."""
        bases = [self._allocator.alloc_huge_frame() for _ in range(count)]
        self._huge_pages.extend(bases)
        return bases

    @property
    def huge_pages(self) -> List[int]:
        return list(self._huge_pages)

    def lines_with_offset(self, offset: int, count: Optional[int] = None) -> List[int]:
        """Line addresses at ``offset`` within each page (allocating as needed)."""
        if offset % CACHE_LINE_SIZE != 0 or not 0 <= offset < PAGE_SIZE:
            raise AddressError(
                f"offset must be a line-aligned page offset, got {offset}"
            )
        if count is not None and count > len(self._pages):
            self.alloc_pages(count - len(self._pages))
        pages = self._pages if count is None else self._pages[:count]
        return [page + offset for page in pages]

    def contiguous_lines(self, count: int) -> List[int]:
        """``count`` lines covering whole pages (all 64 offsets per page).

        Unlike :meth:`lines_with_offset` — whose fixed offset confines the
        lines to sets ≡ offset/64 (mod 64) in any cache with ≥64 sets —
        these lines sweep every set index, which is what occupancy-style
        attacks need.
        """
        pages_needed = (count + LINES_PER_PAGE - 1) // LINES_PER_PAGE
        if pages_needed > len(self._pages):
            self.alloc_pages(pages_needed - len(self._pages))
        lines: List[int] = []
        for page in self._pages[:pages_needed]:
            for i in range(LINES_PER_PAGE):
                lines.append(page + i * CACHE_LINE_SIZE)
                if len(lines) == count:
                    return lines
        return lines

    def candidate_lines(self, offset: int = 0) -> Iterator[int]:
        """Endless stream of candidate lines at a fixed page offset.

        Allocates new pages lazily; used by eviction-set search, which does
        not know in advance how many candidates it must test.
        """
        index = 0
        while True:
            if index >= len(self._pages):
                self.alloc_pages(max(8, len(self._pages) // 2))
            yield self._pages[index] + offset
            index += 1

    # ------------------------------------------------------------------
    # Ground-truth helpers (used by tests and by experiments that assume
    # eviction sets are already built, as the paper's threat model allows).
    # ------------------------------------------------------------------

    def congruent_lines(
        self,
        mapping: CacheSetMapping,
        target: int,
        count: int,
        offset: Optional[int] = None,
    ) -> List[int]:
        """Find ``count`` lines congruent with ``target`` under ``mapping``.

        This peeks at the simulator's ground-truth mapping; attack code that
        must *search* for congruent lines uses :mod:`repro.attacks.evset`
        instead.
        """
        if offset is None:
            offset = target & (PAGE_SIZE - 1) & ~(CACHE_LINE_SIZE - 1)
        # Same candidates, order and page growth as iterating
        # candidate_lines(offset): the pages already held are tested (a
        # chunk at a time, so a large space is not scanned past the last
        # match), and pages are allocated only once every held page has
        # been tested, by candidate_lines' growth rule.
        found: List[int] = []
        pages = self._pages
        scanned = 0
        while True:
            if scanned >= len(pages):
                if len(pages) > 2_000_000:  # pragma: no cover - safety net
                    raise AddressError("could not find enough congruent lines")
                self.alloc_pages(max(8, len(pages) // 2))
            chunk = [page + offset for page in pages[scanned:scanned + SCAN_CHUNK]]
            scanned += len(chunk)
            for line in mapping.select_congruent(target, chunk):
                if line != target:
                    found.append(line)
                    if len(found) == count:
                        return found

    def lines_in_page(self, page_base: int) -> List[int]:
        """All line addresses within one of this space's pages."""
        if page_base not in self._pages:
            raise AddressError(f"page {page_base:#x} not in address space {self.name}")
        return [page_base + i * CACHE_LINE_SIZE for i in range(LINES_PER_PAGE)]
