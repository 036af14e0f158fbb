"""False negatives vs victim period (extends Section V-A3).

The paper measures one point — victim period 1.5K cycles — where
Prime+Scope misses ~50% of events and Prime+Prefetch+Scope <2%.  The
mechanism (a blind window equal to the preparation latency) predicts the
whole curve: an attack misses events roughly while the period is shorter
than its preparation, and converges to ~0% once the period comfortably
exceeds it.  This sweep measures the curve and locates each attack's
usable-frequency threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..attacks.prime_scope import PrimePrefetchScope, PrimeScope
from ..errors import AttackError
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
from .detection import run_detection_experiment

DEFAULT_PERIODS = (1000, 1500, 2200, 3200, 4500)

_ATTACKS = {cls.__name__: cls for cls in (PrimeScope, PrimePrefetchScope)}


@dataclass(frozen=True)
class DetectionPoint:
    period: int
    false_negative_rate: float


@dataclass
class DetectionSweepResult:
    """FN-vs-period curves for both attacks."""

    curves: dict = field(default_factory=dict)

    def curve(self, attack: str) -> List[DetectionPoint]:
        return self.curves[attack]

    def usable_period(self, attack: str, fn_limit: float = 0.1) -> int:
        """Shortest tested victim period the attack handles below ``fn_limit``."""
        for point in self.curves[attack]:
            if point.false_negative_rate <= fn_limit:
                return point.period
        raise AttackError(f"{attack} never reached FN <= {fn_limit}")

    def rows(self) -> List[tuple]:
        names = sorted(self.curves)
        rows = []
        for i, point in enumerate(self.curves[names[0]]):
            row = [point.period]
            for name in names:
                row.append(f"{self.curves[name][i].false_negative_rate * 100:.1f}%")
            rows.append(tuple(row))
        return rows

    def header(self) -> tuple:
        return ("victim period", *sorted(self.curves))


def _detection_setup(prefix: dict) -> tuple:
    """Shared trial prefix: just the machine build (attacks vary per shard)."""
    return (
        Machine(
            prefix["config"], seed=prefix["machine_seed"],
            backend=prefix.get("engine"),
        ),
        None,
    )


def _detection_body(machine: Machine, context, shard: Shard) -> dict:
    """One (attack, period) point on a prepared (cold or restored) machine."""
    p = shard.params
    # An attacker expecting events every ~period cycles keeps scoping for
    # about two periods before re-priming.
    period = p["period"]
    quiet_checks = max(24, 2 * period // 70)
    outcome = run_detection_experiment(
        machine, _ATTACKS[p["attack"]], victim_period=period,
        duration=p["duration"], max_quiet_checks=quiet_checks,
    )
    return {"attack": p["attack"], "period": period,
            "false_negative_rate": outcome.false_negative_rate}


_DETECTION_PREFIX_KEYS = ("config", "machine_seed", "engine")

_DETECTION_PLAN = WarmStartPlan(
    setup=_detection_setup, body=_detection_body,
    prefix_keys=_DETECTION_PREFIX_KEYS,
)


def run_detection_sweep(
    machine_factory: Callable[[], Machine],
    periods: Sequence[int] = None,
    duration: int = 600_000,
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
) -> DetectionSweepResult:
    """Measure FN rates for both attacks across victim periods.

    Each (attack, period) point is an independent shard; ``jobs > 1`` runs
    them on worker processes with bit-identical results.
    ``faults``/``retries`` engage the runner's fault-injection and retry
    layer; an exhausted shard's point is dropped from its curve.  With
    ``warm_start`` (the default) every point restores one shared machine
    checkpoint instead of rebuilding the machine.
    """
    if periods is None:
        periods = DEFAULT_PERIODS
    if not periods:
        raise AttackError("need at least one victim period")
    probe = machine_factory()
    engine = resolve_backend(engine) if engine is not None else probe.backend
    shards = make_shards(probe.seed, [
        {
            "config": probe.config,
            "machine_seed": probe.seed,
            "engine": engine,
            "attack": name,
            "period": period,
            "duration": duration,
        }
        for name in _ATTACKS
        for period in periods
    ])
    rows = run_shards(
        _DETECTION_PLAN if warm_start else _DETECTION_PLAN.cold(), shards,
        jobs=jobs, cache=result_cache, cache_tag="detection_sweep/v1",
        metrics=metrics, trace=trace, faults=faults, retries=retries,
        store=store, campaign=campaign, runtime=runtime,
    )
    rows = [row for row in rows if not is_error_record(row)]
    result = DetectionSweepResult()
    for name in _ATTACKS:
        result.curves[name] = [
            DetectionPoint(period=row["period"],
                           false_negative_rate=row["false_negative_rate"])
            for row in rows if row["attack"] == name
        ]
    return result
