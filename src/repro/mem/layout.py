"""Set-index and slice-hash computation.

Intel LLCs are physically sliced (one slice per core on the paper's parts)
and the slice is selected by an undocumented XOR hash over high physical
address bits.  That hash is the reason eviction-set construction is a search
problem: an attacker who controls only the page offset cannot directly name
an LLC set.  We model the hash as a parameterised XOR fold — the same family
the published reverse-engineering results ("Systematic Reverse Engineering of
Cache Slice Selection", Maurice et al.) describe — so the search algorithms in
:mod:`repro.attacks.evset` face the same problem shape as on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..config import CacheGeometry
from ..errors import AddressError
from .address import LINE_OFFSET_BITS, validate_address


@dataclass(frozen=True)
class SetIndex:
    """Fully resolved location of a line within a (possibly sliced) cache."""

    slice: int
    set: int

    @property
    def flat(self) -> Tuple[int, int]:
        return (self.slice, self.set)


class SliceHash:
    """XOR-fold slice selector.

    Each output bit of the slice id is the parity of the physical line
    address ANDed with a mask.  The default masks interleave high address
    bits so consecutive lines spread over slices, as on real parts.
    """

    #: Default per-bit XOR masks (over the *line address*, i.e. addr >> 6),
    #: chosen to mix bits 6..33 and to be linearly independent.
    DEFAULT_MASKS = (
        0x1B5F575440 >> LINE_OFFSET_BITS,
        0x2EB5FAA880 >> LINE_OFFSET_BITS,
    )

    def __init__(self, n_slices: int, masks: Tuple[int, ...] = None):
        if n_slices <= 0 or (n_slices & (n_slices - 1)) != 0:
            raise AddressError(f"n_slices must be a power of two, got {n_slices}")
        self.n_slices = n_slices
        n_bits = n_slices.bit_length() - 1
        if masks is None:
            if n_bits > len(self.DEFAULT_MASKS):
                raise AddressError(
                    f"no default masks for {n_slices} slices; pass masks explicitly"
                )
            masks = self.DEFAULT_MASKS[:n_bits]
        if len(masks) != n_bits:
            raise AddressError(
                f"{n_slices} slices need {n_bits} masks, got {len(masks)}"
            )
        self._masks = tuple(masks)

    @property
    def masks(self) -> Tuple[int, ...]:
        return self._masks

    def slice_of(self, line_addr: int) -> int:
        """Slice id of a line address (``addr >> 6``)."""
        result = 0
        for bit, mask in enumerate(self._masks):
            result |= ((line_addr & mask).bit_count() & 1) << bit
        return result


class CacheSetMapping:
    """Maps physical addresses to (slice, set) for one cache level."""

    def __init__(self, geometry: CacheGeometry, slice_hash: SliceHash = None):
        self.geometry = geometry
        self._set_mask = geometry.sets - 1
        self._flat_cache: Dict[int, Tuple[int, int]] = {}
        if geometry.slices > 1:
            self.slice_hash = slice_hash or SliceHash(geometry.slices)
            if self.slice_hash.n_slices != geometry.slices:
                raise AddressError(
                    f"slice hash covers {self.slice_hash.n_slices} slices but "
                    f"geometry has {geometry.slices}"
                )
        else:
            self.slice_hash = None

    def index(self, addr: int) -> SetIndex:
        """Resolve ``addr`` to its (slice, set) in this cache level."""
        line = validate_address(addr) >> LINE_OFFSET_BITS
        set_idx = line & self._set_mask
        if self.slice_hash is None:
            return SetIndex(slice=0, set=set_idx)
        return SetIndex(slice=self.slice_hash.slice_of(line), set=set_idx)

    def flat_index(self, addr: int) -> Tuple[int, int]:
        """Memoized ``index(addr).flat``: the hot-path set resolution.

        The slice hash and set mask are pure functions of the line address,
        so results are cached per line.  The memo goes through
        :meth:`index` on a miss, which keeps subclasses that override the
        mapping function (e.g. the randomized-LLC countermeasure) correct.
        The working set of any experiment is a bounded set of allocated
        lines, which bounds the memo.
        """
        line = validate_address(addr) >> LINE_OFFSET_BITS
        try:
            cache = self._flat_cache
        except AttributeError:
            # Subclasses may bypass __init__ (RandomizedSetMapping does).
            cache = self._flat_cache = {}
        flat = cache.get(line)
        if flat is None:
            flat = cache[line] = self.index(addr).flat
        return flat

    def select_congruent(self, target: int, lines: Sequence[int]) -> List[int]:
        """The members of ``lines`` in ``target``'s slice and set, in order.

        ``lines`` must be valid addresses (allocator output); only
        ``target`` is validated.  For this class's XOR-fold mapping each
        line is tested with the set mask first and the slice parities only
        on a set match, with no per-line call and no :meth:`flat_index`
        memo entry: a congruence scan visits thousands of candidates per
        target, and memoizing each one would grow the memo by every
        candidate ever scanned.  A subclass that overrides :meth:`index`
        is tested line by line through :meth:`flat_index`.
        """
        if type(self).index is not CacheSetMapping.index:
            flat_index = self.flat_index
            target_flat = flat_index(target)
            return [line for line in lines if flat_index(line) == target_flat]
        target_line = validate_address(target) >> LINE_OFFSET_BITS
        set_mask = self._set_mask
        target_set = target_line & set_mask
        same_set = [
            line for line in lines
            if (line >> LINE_OFFSET_BITS) & set_mask == target_set
        ]
        if self.slice_hash is None:
            return same_set
        slice_of = self.slice_hash.slice_of
        target_slice = slice_of(target_line)
        return [
            line for line in same_set
            if slice_of(line >> LINE_OFFSET_BITS) == target_slice
        ]

    def congruent(self, a: int, b: int) -> bool:
        """True when two addresses map to the same slice and set.

        Goes through the :meth:`flat_index` memo: congruence scans (noise
        working sets, eviction-set verification) test thousands of
        candidates against a handful of targets, and the mapping function
        is pure per mapping object.
        """
        return self.flat_index(a) == self.flat_index(b)

    def set_bits(self) -> int:
        """Number of address bits consumed by the set index."""
        return self._set_mask.bit_length()
