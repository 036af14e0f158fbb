"""Adaptive search over sweep spaces: seeded, budgeted, substrate-backed.

Grid sweeps (:mod:`repro.experiments`) spend their budget uniformly;
this package spends it *adaptively* — three strategies behind one
:class:`~repro.search.driver.SearchDriver` interface, all expressing
evaluations as ordinary shard batches on the runner substrate, so a
search inherits process parallelism, content-addressed result caching,
fault injection/retry, metrics + tracing, and campaign-store recording
without any code of its own:

* :class:`~repro.search.mutate.MutationSearch` (``mutate``) — elitist
  generate→evaluate→mutate loop with seeded multi-scale operators.
* :class:`~repro.search.halving.SuccessiveHalving` (``halving``) —
  rung-based budget promotion over the objective's fidelity ladder.
* :class:`~repro.search.bandit.UCBSearch` (``bandit``) — UCB budget
  allocation across contiguous sweep regions.

Determinism contract: with a fixed root seed, a search's candidate
sequence, every score, the winner, and the search fingerprint are
bit-identical at any ``--jobs`` value, with or without a *recoverable*
fault plan.  See ``docs/search.md``.

CLI: ``python -m repro search --objective capacity-cliff --strategy
mutate --budget 32``.
"""

from .bandit import UCBSearch
from .driver import EvalContext, Evaluation, SearchDriver, SearchOutcome
from .halving import SuccessiveHalving
from .mutate import MutationSearch
from .objectives import (
    CapacityCliffObjective,
    DetectionKneeObjective,
    OBJECTIVES,
    Objective,
    ToyCliffObjective,
    make_objective,
)
from .space import Candidate, IntDimension, SearchSpace, candidate_key

STRATEGIES = ("mutate", "halving", "bandit")


def make_driver(strategy: str, objective: Objective, budget: int) -> SearchDriver:
    """Build a stock strategy by CLI name."""
    from ..errors import ReproError

    if strategy == "mutate":
        return MutationSearch(objective, budget)
    if strategy == "halving":
        return SuccessiveHalving(objective, budget)
    if strategy == "bandit":
        return UCBSearch(objective, budget)
    raise ReproError(
        f"unknown search strategy {strategy!r} (choose from {', '.join(STRATEGIES)})"
    )


def run_search(config, objective: str = "toy-cliff", strategy: str = "mutate",
               budget: int = 32, *, seed: int = 0, engine=None, jobs: int = 1,
               result_cache=None, metrics=None, trace=None, faults=None,
               retries: int = 0, store=None, runtime=None) -> SearchOutcome:
    """Run a stock search by CLI names (``repro search``, service ``search``)."""
    driver = make_driver(
        strategy, make_objective(objective, config=config, engine=engine), budget
    )
    return driver.run(EvalContext(
        seed=seed, jobs=jobs, cache=result_cache, metrics=metrics, trace=trace,
        faults=faults, retries=retries, store=store, runtime=runtime,
    ))


__all__ = [
    "Candidate",
    "CapacityCliffObjective",
    "DetectionKneeObjective",
    "EvalContext",
    "Evaluation",
    "IntDimension",
    "MutationSearch",
    "OBJECTIVES",
    "Objective",
    "STRATEGIES",
    "SearchDriver",
    "SearchOutcome",
    "SearchSpace",
    "SuccessiveHalving",
    "ToyCliffObjective",
    "UCBSearch",
    "candidate_key",
    "make_driver",
    "make_objective",
    "run_search",
]
