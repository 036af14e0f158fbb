"""Executor accounting, pinned: ``runner.*`` counters and trace-event kinds.

Every sweep path — a cold plan worker, a warm-start plan, a trace plan
batched inline, and the same trace plan on a two-process pool — goes
through one executor, so the counters a sweep leaves in its registry and
the events it leaves in its trace are part of the runner's contract.
This suite pins them exactly for a clean and a fault-injected sweep on
each path.
"""

from collections import Counter

import pytest

from repro.experiments.capacity_sweep import run_capacity_sweep
from repro.experiments.insertion_sweep import run_insertion_sweep
from repro.faults import FaultPlan
from repro.obs import EventTrace, MetricsRegistry
from repro.runner import FRESH, clear_warm_states
from repro.sim.machine import Machine

FAULTS = FaultPlan(seed=3, crash_probability=0.25)

#: Counters that measure bytes of live simulator state rather than runner
#: decisions; their presence is pinned, their values are not.
_SIZED = ("runner.checkpoint.bytes",)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_warm_states()
    yield
    clear_warm_states()


def _capacity(warm, **kwargs):
    return run_capacity_sweep(
        lambda: Machine.skylake(seed=3), "ntp+ntp",
        intervals=(2800, 2100, 1800, 1500), n_bits=16, seed=5,
        warm_start=warm, runtime=FRESH, **kwargs,
    )


def _insertion(jobs, **kwargs):
    return run_insertion_sweep(
        lambda: Machine.skylake(seed=11), positions=range(3), trials=4,
        seed=9, engine="batch", jobs=jobs, runtime=FRESH, **kwargs,
    )


PATHS = {
    "cold": lambda **kw: _capacity(False, **kw),
    "warm": lambda **kw: _capacity(True, **kw),
    "batch-inline": lambda **kw: _insertion(1, **kw),
    "batch-jobs2": lambda **kw: _insertion(2, **kw),
}


def _counters(total, retries=0, **extra):
    counters = {
        "runner.shards.total": total, "runner.shards.computed": total,
        "runner.shards.cached": 0, "runner.retries": retries,
        "runner.failures": 0,
    }
    counters.update({f"runner.{name}": value for name, value in extra.items()})
    return counters


def _warm(restores, **extra):
    return {"checkpoint.bytes": "sized", "checkpoint.captures": 1,
            "checkpoint.restores": restores, **extra}


#: (path, faulted) -> (runner.* counters, trace-event kinds with counts).
#: The fault plan retries one capacity shard twice, and pulls two of the
#: twelve insertion trials out of their batch (three retries between them).
#: A warm trial restores its checkpoint once, on the pool too; a batch
#: restores it once for the whole batch plus once per applied trial.
EXPECTED = {
    ("cold", False): (
        _counters(4),
        {"runner.shard": 4, "runner.sweep": 1},
    ),
    ("cold", True): (
        _counters(4, retries=2),
        {"runner.shard": 4, "runner.shard.retried": 1, "runner.sweep": 1},
    ),
    ("warm", False): (
        _counters(4, **_warm(4)),
        {"runner.checkpoint.capture": 1, "runner.shard": 4, "runner.sweep": 1},
    ),
    ("warm", True): (
        _counters(4, retries=2, **_warm(4)),
        {"runner.checkpoint.capture": 1, "runner.shard": 4,
         "runner.shard.retried": 1, "runner.sweep": 1},
    ),
    ("batch-inline", False): (
        _counters(12, **_warm(13, **{"batch.batches": 1, "batch.trials": 12})),
        {"runner.checkpoint.capture": 1, "runner.batch": 1,
         "runner.shard": 12, "runner.sweep": 1},
    ),
    ("batch-inline", True): (
        _counters(12, retries=3,
                  **_warm(13, **{"batch.batches": 1, "batch.trials": 10})),
        {"runner.checkpoint.capture": 1, "runner.batch": 1,
         "runner.shard": 12, "runner.shard.retried": 2, "runner.sweep": 1},
    ),
    ("batch-jobs2", False): (
        _counters(12, **_warm(12)),
        {"runner.checkpoint.capture": 1, "runner.shard": 12, "runner.sweep": 1},
    ),
    ("batch-jobs2", True): (
        _counters(12, retries=3, **_warm(12)),
        {"runner.checkpoint.capture": 1, "runner.shard": 12,
         "runner.shard.retried": 2, "runner.sweep": 1},
    ),
}


def _run(path, faulted):
    registry = MetricsRegistry()
    trace = EventTrace()
    kwargs = dict(metrics=registry, trace=trace)
    if faulted:
        kwargs.update(faults=FAULTS, retries=4)
    PATHS[path](**kwargs)
    counters = registry.as_dict("runner.")["counters"]
    for name in _SIZED:
        if name in counters:
            counters[name] = "sized"
    kinds = Counter(event.name for event in trace.events)
    return counters, dict(kinds)


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("path", tuple(PATHS))
def test_runner_counters_and_events_are_pinned(path, faulted):
    assert _run(path, faulted) == EXPECTED[path, faulted]
