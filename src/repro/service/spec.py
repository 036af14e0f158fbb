"""Job specs: the JSON surface of the sweep service.

A :class:`JobSpec` is everything a client may ask the service to run — an
experiment name, its parameters, and the runner surface the CLI already
exposes (jobs, engine, warm start, fault plan, retries).  Specs are
validated eagerly at construction, round-trip through JSON, and carry a
content :meth:`~JobSpec.fingerprint` (priority excluded — scheduling must
never change what a job computes) so duplicate submissions are recognizable
fleet-wide.

Determinism note: a spec deliberately contains *only* values that feed the
experiment functions the CLI calls.  Executing a spec (see
:mod:`repro.service.exec`) therefore produces shard seeds, cache keys,
warm-start digests, and store fingerprints byte-identical to the same
sweep run via ``python -m repro ...`` directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import PlatformConfig
from ..errors import ReproError, ServiceError
from ..faults import FaultPlan
from ..registry import EXPERIMENTS, PLATFORMS, register_platform  # noqa: F401
from ..runner.shard import canonical_json


@dataclass(frozen=True)
class JobSpec:
    """One validated sweep/search request.

    ``params`` carries the experiment-specific knobs, checked against the
    experiment's :class:`~repro.registry.Experiment` record and never
    rewritten (defaults apply at run time, so they stay out of the
    fingerprint); everything else mirrors the sweep CLI's runner flags.
    ``priority`` orders the job in the queue (higher runs first, FIFO
    within a priority) and is excluded from the fingerprint.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    platform: str = "skylake"
    engine: Optional[str] = None
    seed: int = 0
    jobs: int = 1
    priority: int = 0
    warm_start: bool = True
    faults: Optional[Dict[str, Any]] = None
    retries: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ServiceError(
                f"unknown experiment {self.experiment!r} "
                f"(choose from {', '.join(sorted(EXPERIMENTS))})"
            )
        if not isinstance(self.platform, str) or self.platform not in PLATFORMS:
            raise ServiceError(
                f"unknown platform {self.platform!r} "
                f"(choose from {', '.join(sorted(PLATFORMS))})"
            )
        if not isinstance(self.params, dict):
            raise ServiceError(
                f"params must be a JSON object, got {type(self.params).__name__}"
            )
        EXPERIMENTS[self.experiment].validate(self.params)
        for name in ("seed", "jobs", "priority", "retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ServiceError(f"{name} must be an integer, got {value!r}")
        if self.jobs < 0:
            raise ServiceError(f"jobs must be >= 0, got {self.jobs}")
        if self.retries < 0:
            raise ServiceError(f"retries must be >= 0, got {self.retries}")
        if not isinstance(self.warm_start, bool):
            raise ServiceError(f"warm_start must be a boolean, got {self.warm_start!r}")
        try:
            if self.engine is not None:
                from ..engine import resolve_backend

                resolve_backend(self.engine)  # raises on unknown names
            if self.faults is not None:
                FaultPlan.from_dict(self.faults)  # raises on malformed plans
        except ReproError as error:
            raise ServiceError(str(error)) from error

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over the spec's computation-relevant content.

        Priority is excluded: two submissions that differ only in urgency
        are the *same work* and must dedupe against the same cache keys.
        """
        material = {
            key: value
            for key, value in self.to_dict().items()
            if key != "priority"
        }
        return hashlib.sha256(
            canonical_json(material).encode("utf-8")
        ).hexdigest()

    def fault_plan(self) -> Optional[FaultPlan]:
        """The spec's :class:`~repro.faults.FaultPlan`, or None."""
        return FaultPlan.from_dict(self.faults) if self.faults is not None else None

    def config(self) -> PlatformConfig:
        """The resolved platform configuration."""
        return PLATFORMS[self.platform]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise ServiceError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(
                f"unknown job spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        if "experiment" not in data:
            raise ServiceError("job spec is missing the 'experiment' field")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ServiceError(f"job spec is not valid JSON: {error}") from error
        return cls.from_dict(data)
