"""Spec execution: the bridge from a :class:`JobSpec` to the experiment layer.

:func:`execute_job` runs the spec's :class:`~repro.registry.Experiment`
record, the one the sweep CLI runs too — machine factory from the platform
config, store and runtime passed *explicitly* (never through the
process-default scopes, which are global and would cross-talk between
concurrent jobs) — so shard seeds, cache keys, warm-start digests, and
store ``run_fingerprint``s are byte-identical to a direct ``python -m
repro ...`` invocation of the same sweep.  This is the
location-transparency contract: the service adds scheduling around the
computation, never inside it.

Progress flows out through a :class:`ForwardingTrace`, a plain
:class:`~repro.obs.EventTrace` that additionally hands every event to a
sink callable the moment it is emitted — the feed behind the server's SSE
streams and the subprocess worker's event messages.  Traces are purely
observational, so forwarding them cannot perturb results.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from ..obs import EventTrace, MetricsRegistry
from ..registry import EXPERIMENTS, RunContext
from .spec import JobSpec


class ForwardingTrace(EventTrace):
    """An :class:`EventTrace` that also pushes each event to a sink.

    The sink receives the event's JSON dict (``{"name", "t", **fields}``)
    synchronously from the emitting thread; server code is responsible for
    hopping it onto the event loop.  Sink failures are swallowed — a slow
    or dead subscriber must never fail a sweep.
    """

    def __init__(self, sink: Optional[Callable[[Dict[str, Any]], None]] = None):
        super().__init__()
        self._sink = sink

    def emit(self, name: str, **fields: Any) -> None:
        super().emit(name, **fields)
        if self._sink is not None:
            try:
                self._sink(self.events[-1].as_dict())
            except Exception:
                pass


def _run_summaries(store, trace) -> list:
    """The runs this job recorded, from its own ``runner.store`` events.

    Concurrent jobs share the store *file*, so scanning run ids would mix
    in other jobs' runs; the job's trace names exactly the runs its
    sweeps recorded.
    """
    run_ids = [event.fields["run"] for event in trace.events
               if event.name == "runner.store"]
    runs = []
    for run_id in sorted(run_ids):
        run = store.run(run_id)
        runs.append({
            "campaign": run.campaign,
            "run_id": run.id,
            "fingerprint": run.fingerprint,
            "shards_total": run.shards_total,
            "shards_computed": run.shards_computed,
            "shards_cached": run.shards_cached,
            "failures": run.failures,
        })
    return runs


def execute_job(
    spec: JobSpec,
    *,
    cache=None,
    store=None,
    runtime=None,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run one spec and return its JSON result summary.

    ``cache`` is the node's shared :class:`~repro.runner.ResultCache`,
    ``store`` its :class:`~repro.store.CampaignStore`, ``runtime`` an
    optional persistent :class:`~repro.runner.Runtime`.  All three are
    handed to the experiment layer explicitly — concurrent jobs must never
    reach through the process-default scopes, which are global state.
    ``store=None`` falls back to the usual default-store resolution, same
    as a bare CLI run.  Every job gets a fresh
    :class:`~repro.obs.MetricsRegistry` so summaries never mix jobs; trace
    events stream to ``sink`` as they happen.
    """
    experiment = EXPERIMENTS[spec.experiment]
    registry = MetricsRegistry()
    trace = ForwardingTrace(sink)
    started = time.time()

    context = RunContext(
        config=spec.config(), seed=spec.seed, engine=spec.engine,
        jobs=spec.jobs, cache=cache, metrics=registry, trace=trace,
        faults=spec.fault_plan(), retries=spec.retries,
        warm_start=spec.warm_start, store=store, runtime=runtime,
    )
    detail = experiment.summary(experiment.run(context, spec.params))

    summary = {
        "experiment": spec.experiment,
        "spec_fingerprint": spec.fingerprint(),
        "elapsed_seconds": time.time() - started,
        "shards": {
            "total": registry.counter("runner.shards.total").value,
            "computed": registry.counter("runner.shards.computed").value,
            "cached": registry.counter("runner.shards.cached").value,
            "retries": registry.counter("runner.retries").value,
            "failures": registry.counter("runner.failures").value,
            "store_errors": registry.counter("runner.store.errors").value,
        },
        "detail": detail,
    }
    if store is not None:
        summary["runs"] = _run_summaries(store, trace)
    return summary
