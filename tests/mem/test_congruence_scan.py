"""``AddressSpace.congruent_lines`` against a per-line reference scan.

The scan tests candidate pages in batches through
:meth:`CacheSetMapping.select_congruent`, which for the XOR-fold mapping
computes set and slice arithmetically instead of calling
:meth:`~CacheSetMapping.flat_index` once per candidate.  It must find the
same lines, allocate the same pages and draw the same allocator random
numbers as a scan that walks :meth:`AddressSpace.candidate_lines` and
compares flat indices one line at a time.
"""

import pytest

from repro.config import KABY_LAKE, SKYLAKE
from repro.countermeasures.randomization import machine_with_randomized_llc
from repro.mem.allocator import SCAN_CHUNK
from repro.sim.machine import Machine


def reference_congruent_lines(space, mapping, target, count, offset=None):
    """The one-candidate-at-a-time scan ``congruent_lines`` replaces."""
    if offset is None:
        offset = target & 4095 & ~63
    found = []
    target_flat = mapping.flat_index(target)
    for line in space.candidate_lines(offset):
        if line != target and mapping.flat_index(line) == target_flat:
            found.append(line)
            if len(found) == count:
                return found


def _machines(kind):
    if kind == "randomized":
        return [machine_with_randomized_llc(SKYLAKE, key=9, seed=3) for _ in "ab"]
    config = {"skylake": SKYLAKE, "kaby-lake": KABY_LAKE}[kind]
    return [Machine(config, seed=3) for _ in "ab"]


def _scan(machine, level, reference, count=24):
    """A few congruence queries as a noise working set makes them."""
    mapping = getattr(machine.hierarchy, f"{level}_mapping")
    scan = reference_congruent_lines if reference else (
        lambda space, *args: space.congruent_lines(*args))
    channel = machine.address_space("channel")
    targets = channel.lines_with_offset(0, count=3) + [
        channel.lines_with_offset(1984, count=4)[3]]
    noise = machine.address_space("noise")
    found = [scan(noise, mapping, target, count) for target in targets]
    # A space that already holds more pages than one batch, and a target
    # that is one of the space's own candidates (it must be skipped).
    noise.alloc_pages(3 * SCAN_CHUNK)
    own = noise.pages[5] + 128
    found.append(scan(noise, mapping, own, count + 16))
    found.append(scan(noise, mapping, targets[1], 2, 0))
    return found, noise.pages, channel.pages


@pytest.mark.parametrize("kind", ["skylake", "kaby-lake", "randomized"])
@pytest.mark.parametrize("level", ["llc", "l2"])
def test_scan_matches_reference(kind, level):
    fast, ref = _machines(kind)
    # The keyed mapping spreads lines over every set of every slice, so
    # congruent lines are ~64x rarer there: ask for fewer.
    count = 2 if kind == "randomized" and level == "llc" else 24
    assert (_scan(fast, level, reference=False, count=count)
            == _scan(ref, level, reference=True, count=count))
    # Same pages drawn in the same order leave the same allocator state.
    assert fast.allocator.capture() == ref.allocator.capture()
    assert fast.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("level", ["llc", "l2"])
def test_xor_scan_does_not_grow_the_flat_index_memo(level):
    machine = Machine(SKYLAKE, seed=3)
    mapping = getattr(machine.hierarchy, f"{level}_mapping")
    before = len(mapping._flat_cache)
    lines = _scan(machine, level, reference=False)[0]
    assert sum(map(len, lines)) > 100
    assert len(mapping._flat_cache) == before


def test_overriding_mapping_goes_through_flat_index():
    machine = machine_with_randomized_llc(SKYLAKE, key=9, seed=3)
    mapping = machine.hierarchy.llc_mapping
    space = machine.address_space("noise")
    target = machine.address_space("channel").lines_with_offset(0, count=1)[0]
    lines = space.congruent_lines(mapping, target, 4)
    assert all(mapping.index(line).flat == mapping.index(target).flat
               for line in lines)
    # The keyed hash is only reachable line by line, through the memo.
    assert len(mapping._flat_cache) > len(lines)
