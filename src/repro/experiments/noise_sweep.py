"""Channel robustness under increasing third-party noise (Section IV-B3).

The paper treats noise qualitatively ("the error caused by other processes'
accesses in one attack iteration will not affect the next iteration") and
points at encodings for mitigation.  This extension quantifies it: sweep
the rate of third-party traffic into the monitored sets and record each
channel's bit error rate, with and without the reliability options
(sender re-arm + maintenance slots for NTP+NTP, multi-set redundancy).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..attacks.ntp_ntp import NTPNTPChannel
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
from ..victims.noise import NoiseConfig

#: Noise levels: probability-per-2K-cycles of a fill into a monitored set.
DEFAULT_BIASES = (0.0, 0.005, 0.01, 0.02, 0.04)

#: The channel variants under test: (name, kind, channel kwargs, interval).
#: Module-level so sweep shards can rebuild a variant by name in a worker.
VARIANTS = (
    ("ntp+ntp", "ntp", {}, 1500),
    ("ntp+ntp (maintained)", "ntp", {"maintenance_period": 96}, 1500),
    ("ntp 3-set redundant", "redundant", {"redundancy": 3}, 2400),
    ("prime+probe", "pp", {}, 11000),
)


@dataclass
class NoisePoint:
    bias: float
    bit_error_rate: float


@dataclass
class NoiseSweepResult:
    """BER-vs-noise curves per channel variant."""

    curves: dict = field(default_factory=dict)

    def curve(self, name: str) -> List[NoisePoint]:
        return self.curves[name]

    def final_ber(self, name: str) -> float:
        return self.curves[name][-1].bit_error_rate

    def rows(self) -> List[tuple]:
        names = sorted(self.curves)
        rows = []
        biases = [p.bias for p in self.curves[names[0]]]
        for i, bias in enumerate(biases):
            row = [f"{bias:.3f}"]
            for name in names:
                row.append(f"{self.curves[name][i].bit_error_rate * 100:.2f}%")
            rows.append(tuple(row))
        return rows

    def header(self) -> tuple:
        return ("bias", *sorted(self.curves))


def _message(n_bits: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(n_bits)]


def _build_channel(kind: str, machine: Machine, seed: int, kwargs: dict):
    if kind == "ntp":
        return NTPNTPChannel(machine, seed=seed, **kwargs)
    if kind == "redundant":
        return RedundantNTPChannel(machine, seed=seed, **kwargs)
    if kind == "pp":
        return PrimeProbeChannel(machine, seed=seed, **kwargs)
    raise ChannelError(f"unknown channel kind {kind!r}")


def _noise_setup(prefix: dict) -> tuple:
    """Shared trial prefix: machine build + one variant's channel."""
    machine = Machine(
        prefix["config"], seed=prefix["machine_seed"],
        backend=prefix.get("engine"),
    )
    channel = _build_channel(
        prefix["kind"], machine, prefix["seed"], prefix["kwargs"]
    )
    return machine, channel


def _noise_body(machine: Machine, channel, shard: Shard) -> dict:
    """One (variant, bias) point on a prepared (cold or restored) machine."""
    p = shard.params
    channel.reseed(p["seed"])
    bits = _message(p["n_bits"], p["seed"])
    bias = p["bias"]
    noise = None if bias == 0.0 else NoiseConfig(target_bias=bias)
    outcome = channel.transmit(bits, p["interval"], noise=noise)
    return {"name": p["name"], "bias": bias,
            "bit_error_rate": outcome.bit_error_rate}


#: One prefix per channel variant; the bias levels share it.
_NOISE_PREFIX_KEYS = ("config", "machine_seed", "kind", "kwargs", "seed", "engine")

_NOISE_PLAN = WarmStartPlan(
    setup=_noise_setup, body=_noise_body, prefix_keys=_NOISE_PREFIX_KEYS
)


def run_noise_sweep(
    machine_factory: Callable[[], Machine],
    biases: Optional[Sequence[float]] = None,
    n_bits: int = 192,
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
) -> NoiseSweepResult:
    """Sweep noise intensity over the channel variants.

    Each (variant, bias) point is an independent shard; ``jobs > 1`` fans
    them out to worker processes with bit-identical results, and
    ``result_cache`` skips points computed by an earlier run.
    ``faults``/``retries`` engage the runner's fault-injection and retry
    layer; an exhausted shard's point is dropped from its curve rather
    than aborting the sweep.  With ``warm_start`` (the default), each
    variant's machine+channel prefix is built once and every bias level
    restores its checkpoint (see :mod:`repro.runner.warmstart`).
    """
    if biases is None:
        biases = DEFAULT_BIASES
    if not biases:
        raise ChannelError("need at least one noise level")
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
            "bias": bias,
            "n_bits": n_bits,
            "seed": seed,
        }
        for name, kind, kwargs, interval in VARIANTS
        for bias in biases
    ])
    rows = run_shards(
        _NOISE_PLAN if warm_start else _NOISE_PLAN.cold(), shards,
        jobs=jobs, cache=result_cache, cache_tag="noise_sweep/v1",
        metrics=metrics, trace=trace, faults=faults, retries=retries,
        store=store, campaign=campaign, runtime=runtime,
    )
    rows = [row for row in rows if not is_error_record(row)]
    result = NoiseSweepResult()
    for name, _, _, _ in VARIANTS:
        result.curves[name] = [
            NoisePoint(bias=row["bias"], bit_error_rate=row["bit_error_rate"])
            for row in rows if row["name"] == name
        ]
    return result
