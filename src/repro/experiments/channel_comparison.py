"""The covert-channel design space, on one table.

Runs every channel class in the library at (near-)optimal operating points
and lines up the three axes the paper's Sections II-C/IV/VI-C argue about:
speed (capacity), setup requirements (eviction sets? shared memory?), and
per-bit footprint (cache references).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..attacks.ntp_ntp import NTPNTPChannel
from ..attacks.occupancy import OccupancyChannel, make_occupancy_demo_machine
from ..attacks.prefetch_prefetch import PrefetchPrefetchChannel
from ..attacks.prime_probe import PrimeProbeChannel
from ..attacks.redundant_ntp import RedundantNTPChannel
from ..errors import ChannelError
from ..faults import FaultPlan
from ..runner import (
    ResultCache,
    Shard,
    WarmStartPlan,
    is_error_record,
    make_shards,
    run_shards,
)
from ..engine import resolve_backend
from ..sim.machine import Machine

#: The design space on one table: (name, kind, kwargs, interval, evsets,
#: shared memory).  Module-level so comparison shards can rebuild a channel
#: by kind inside a worker process.
CHANNEL_SPECS = (
    ("NTP+NTP", "ntp", {}, 1400, True, False),
    ("NTP+NTP 3-set redundant", "redundant", {"redundancy": 3}, 2400, True, False),
    ("Prime+Probe", "pp", {}, 10500, True, False),
    ("Prefetch+Prefetch", "pf", {}, 1600, False, True),
    ("occupancy (demo-scale LLC)", "occupancy",
     {"receiver_lines": 640, "sender_lines": 1024}, 220_000, False, False),
)


@dataclass(frozen=True)
class ChannelProfile:
    """One channel's measured and structural profile."""

    name: str
    capacity_kb_per_s: float
    bit_error_rate: float
    refs_per_bit: float
    needs_eviction_sets: bool
    needs_shared_memory: bool


@dataclass
class ComparisonResult:
    profiles: List[ChannelProfile] = field(default_factory=list)

    def profile(self, name: str) -> ChannelProfile:
        for entry in self.profiles:
            if entry.name == name:
                return entry
        raise ChannelError(f"no profile named {name!r}")

    def rows(self) -> List[tuple]:
        return [
            (
                p.name,
                f"{p.capacity_kb_per_s:.1f}",
                f"{p.bit_error_rate * 100:.2f}%",
                f"{p.refs_per_bit:.0f}",
                "yes" if p.needs_eviction_sets else "no",
                "yes" if p.needs_shared_memory else "no",
            )
            for p in self.profiles
        ]

    HEADER = (
        "channel", "capacity KB/s", "BER", "refs/bit",
        "eviction sets", "shared memory",
    )


def _measure(name, machine, channel, interval, bits, evsets, shared) -> ChannelProfile:
    sender = machine.cores[channel.sender_core]
    receiver = machine.cores[channel.receiver_core]
    refs_before = sender.memory_references + receiver.memory_references
    outcome = channel.transmit(bits, interval)
    refs = sender.memory_references + receiver.memory_references - refs_before
    return ChannelProfile(
        name=name,
        capacity_kb_per_s=outcome.capacity_kb_per_s,
        bit_error_rate=outcome.bit_error_rate,
        refs_per_bit=refs / len(bits),
        needs_eviction_sets=evsets,
        needs_shared_memory=shared,
    )


def _comparison_setup(prefix: dict) -> tuple:
    """Shared trial prefix: one channel's machine build + construction."""
    seed = prefix["seed"]
    kind = prefix["kind"]
    if kind == "occupancy":
        # The occupancy channel runs on its scaled-down demo machine; its
        # probe walks would dominate the simulation at full LLC size.
        machine = make_occupancy_demo_machine(seed=340)
        engine = prefix.get("engine")
        if engine is not None:
            machine.backend = engine
        channel = OccupancyChannel(machine, seed=seed, **prefix["kwargs"])
    else:
        machine = Machine(
            prefix["config"], seed=prefix["machine_seed"],
            backend=prefix.get("engine"),
        )
        cls = {
            "ntp": NTPNTPChannel,
            "redundant": RedundantNTPChannel,
            "pp": PrimeProbeChannel,
            "pf": PrefetchPrefetchChannel,
        }[kind]
        channel = cls(machine, seed=seed, **prefix["kwargs"])
    return machine, channel


def _comparison_body(machine: Machine, channel, shard: Shard) -> dict:
    """One channel's profile on a prepared (cold or restored) machine."""
    p = shard.params
    channel.reseed(p["seed"])
    rng = random.Random(p["seed"])
    bits = [rng.randint(0, 1) for _ in range(p["n_bits"])]
    if p["kind"] == "occupancy":
        bits = bits[: max(16, p["n_bits"] // 4)]
    profile = _measure(
        p["name"], machine, channel, p["interval"], bits,
        evsets=p["evsets"], shared=p["shared"],
    )
    return dataclasses.asdict(profile)


_COMPARISON_PREFIX_KEYS = ("config", "machine_seed", "kind", "kwargs", "seed", "engine")

_COMPARISON_PLAN = WarmStartPlan(
    setup=_comparison_setup, body=_comparison_body,
    prefix_keys=_COMPARISON_PREFIX_KEYS,
)


def run_channel_comparison(
    machine_factory: Callable[[], Machine] = None,
    n_bits: int = 128,
    seed: int = 0,
    jobs: int = 1,
    result_cache: Optional[ResultCache] = None,
    metrics=None,
    trace=None,
    faults: Optional[FaultPlan] = None,
    retries: int = 0,
    warm_start: bool = True,
    engine: Optional[str] = None,
    store=None,
    campaign: Optional[str] = None,
    runtime=None,
) -> ComparisonResult:
    """Measure every channel class at a near-optimal operating point.

    The occupancy channel runs on its scaled-down demo machine; all others
    share the given factory (default: the paper's Skylake).  Each channel is
    an independent shard; ``jobs > 1`` measures them on worker processes
    with bit-identical results.  ``faults``/``retries`` engage the runner's
    fault-injection and retry layer; an exhausted shard's profile is
    dropped from the table.  Each channel is its own warm-start prefix
    (like :func:`run_sensitivity_experiment`, the benefit is retries and
    repeat runs; results are bit-identical warm or cold).
    """
    if machine_factory is None:
        machine_factory = lambda: Machine.skylake(seed=340)  # noqa: E731
    probe = machine_factory()
    engine = resolve_backend(engine) if engine is not None else probe.backend
    shards = make_shards(seed, [
        {
            "config": probe.config,
            "machine_seed": probe.seed,
            "engine": engine,
            "name": name,
            "kind": kind,
            "kwargs": kwargs,
            "interval": interval,
            "evsets": evsets,
            "shared": shared,
            "n_bits": n_bits,
            "seed": seed,
        }
        for name, kind, kwargs, interval, evsets, shared in CHANNEL_SPECS
    ])
    rows = run_shards(
        _COMPARISON_PLAN if warm_start else _COMPARISON_PLAN.cold(), shards,
        jobs=jobs, cache=result_cache, cache_tag="channel_comparison/v1",
        metrics=metrics, trace=trace, faults=faults, retries=retries,
        store=store, campaign=campaign, runtime=runtime,
    )
    result = ComparisonResult()
    result.profiles.extend(
        ChannelProfile(**row) for row in rows if not is_error_record(row)
    )
    return result
