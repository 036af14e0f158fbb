"""Shard execution: the one executor every sweep goes through.

:func:`run_shards` runs a worker over shards, serially or process-parallel,
with identical output.  It is the only loop in :mod:`repro.runner`: warm
starts and trial batching are things a *plan's worker* can do, and the
executor asks the worker for them.  It guarantees:

* **Stable merge order** — results come back in shard order regardless of
  ``jobs``, so a parallel sweep is bit-identical to a serial one.  Shard
  indices must be unique; a duplicate is rejected up front rather than
  silently misattributing one shard's result to another's slot.
* **Pure workers** — a worker is a top-level function (or picklable
  object) of one :class:`~repro.runner.shard.Shard` returning a
  JSON-compatible dict.  It must derive everything from the shard (workers
  run in forked processes where closure state would silently diverge).
* **Transparent caching** — with a :class:`~repro.runner.cache.ResultCache`,
  known points are served from disk and only the misses are computed (and
  then stored), in either execution mode.  Only successful results are
  cached, and a shard that needed retries is cached exactly once.
* **Graceful degradation** — with ``retries`` and/or a
  :class:`~repro.faults.FaultPlan`, each shard gets a bounded retry budget
  with deterministic exponential backoff, and a shard that exhausts it
  yields an *error record* (see :func:`is_error_record`) in its merge slot
  instead of aborting the whole sweep.  Injected faults fire before the
  worker runs, so a recoverable chaos run merges bit-identically to a
  fault-free run.
* **Accounted execution** — per-shard wall time, pool utilization, retry
  and failure counts, cache hit/miss/corrupt/evicted counts, checkpoint
  restores and trial batches land in the run's metrics registry
  (``runner.*``) and (optionally) an :class:`~repro.obs.trace.EventTrace`,
  so sweep summaries and ``--trace FILE`` cost nothing to support here.
* **Durable history** — with a :class:`~repro.store.CampaignStore`
  (explicit ``store=``, the process default, or ``$REPRO_STORE``), the
  merged run is recorded — shard params, results, cache keys, accounting,
  and a metrics snapshot — as one campaign run, fail-soft (see
  :mod:`repro.store.ingest`).

A worker may carry optional attributes the executor uses:

* ``cache_identity`` / ``cache_components(shard)`` — its cache-key
  identity and extra key components (see :func:`_cache_key`);
* ``prepare(shards, jobs, registry, trace, runtime)`` — returns the worker
  that runs this sweep.  A :class:`~repro.runner.warmstart.WarmStartPlan`
  captures its prefix checkpoints here, so a plan is passed to
  :func:`run_shards` as is;
* ``executor``, ``batch_size``, ``digests`` — run metadata for the store
  (default: ``"pool"``, 1, none).  A worker with ``digests`` restores a
  prefix checkpoint per trial, which ``runner.checkpoint.restores``
  counts;
* with ``executor == "batch"``, ``batches(shards)`` and
  ``run_batch(shards)`` — groups of shards the worker runs as one trial
  batch when the executor runs inline (``jobs <= 1``).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults import FaultPlan, InjectedFault, ShardFaultInjector
from ..obs import EventTrace, MetricsRegistry, NULL_TRACE, get_registry
from .cache import ResultCache
from .runtime import resolve_runtime
from .shard import Shard

Worker = Callable[[Shard], Dict[str, Any]]

#: Shard wall-time histogram buckets (seconds).
_SHARD_SECONDS_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)

#: Key marking a merged slot as a shard failure rather than a result.
SHARD_ERROR_KEY = "__shard_error__"

#: Ceiling on one retry's backoff sleep, whatever the base and attempt.
BACKOFF_CAP_SECONDS = 5.0

#: One worker attempt's outcome: (result, error record, seconds, attempts).
_Outcome = Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]], float, int]


def is_error_record(result: Any) -> bool:
    """Whether a merged slot holds a shard-failure record instead of a result."""
    return isinstance(result, dict) and SHARD_ERROR_KEY in result


def backoff_seconds(
    base: float, attempt: int, cap: float = BACKOFF_CAP_SECONDS
) -> float:
    """Deterministic exponential backoff before retry ``attempt`` (1-based).

    ``base * 2**(attempt-1)``, capped at ``cap`` (default
    :data:`BACKOFF_CAP_SECONDS`) so the delay never grows unboundedly with
    the attempt count — a retrying shard stalls its pool slot for at most
    ``cap`` seconds per attempt.  Callers holding scarcer slots (e.g. the
    sweep service's dispatchers) may pass a tighter cap.  No jitter: the
    schedule is part of the reproducible contract, and sweep shards never
    contend for a shared resource that would need decorrelating.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    return min(base * (2 ** (attempt - 1)), cap)


def _identity(worker: Worker) -> str:
    """The worker's ``cache_identity``, else its dotted function name."""
    identity = getattr(worker, "cache_identity", None)
    if identity is None:
        identity = f"{worker.__module__}.{worker.__qualname__}"
    return identity


def _cache_key(cache: ResultCache, worker: Worker, tag: Optional[str], shard: Shard) -> str:
    """Content key for one shard's result.

    Workers may customise their identity with two optional attributes:
    ``cache_identity`` (a string naming the computation — required for
    callables without a useful ``__qualname__``, e.g. class instances) and
    ``cache_components(shard)`` (extra key components, e.g. the warm-start
    checkpoint digest, merged into the key).
    """
    components: Dict[str, Any] = {
        "worker": _identity(worker),
        "tag": tag,
        "seed": shard.seed,
        "params": shard.params,
    }
    extra = getattr(worker, "cache_components", None)
    if extra is not None:
        components.update(extra(shard))
    return cache.key(**components)


def _failure(shard: Shard, error: Exception, attempts: int) -> Dict[str, Any]:
    """The error record of a shard whose latest attempt raised ``error``."""
    return {
        "shard": shard.index,
        "error": type(error).__name__,
        "message": str(error),
        "attempts": attempts,
    }


def _timed_call(worker: Worker, shard: Shard) -> _Outcome:
    """Run ``worker`` once; top level so it pickles to pool workers."""
    start = time.perf_counter()
    result = worker(shard)
    return result, None, time.perf_counter() - start, 1


def _attempt_shard(
    worker: Worker,
    injector: Optional[ShardFaultInjector],
    retries: int,
    backoff_base: float,
    backoff_cap: float,
    shard: Shard,
    first_attempt: int = 0,
    failure: Optional[Dict[str, Any]] = None,
) -> _Outcome:
    """Run ``worker`` with fault injection and bounded retry (pickles to pools).

    Fault decisions key on ``(shard.index, attempt)``, so they are identical
    in any process at any ``jobs`` value; the worker itself is only ever run
    clean, which keeps recovered results bit-identical to fault-free ones.
    A shard whose first attempt failed inside a trial batch resumes here at
    ``first_attempt=1`` with that attempt's ``failure`` record.
    """
    start = time.perf_counter()
    for attempt in range(first_attempt, retries + 1):
        if attempt:
            delay = backoff_seconds(backoff_base, attempt, backoff_cap)
            if delay:
                time.sleep(delay)
        try:
            if injector is not None:
                injector.check(shard.index, attempt)
            result = worker(shard)
        except Exception as error:
            failure = _failure(shard, error, attempt + 1)
            continue
        return result, None, time.perf_counter() - start, attempt + 1
    return None, failure, time.perf_counter() - start, retries + 1


def run_shards(
    worker,
    shards: Sequence[Shard],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_tag: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[EventTrace] = None,
    faults: Optional[FaultPlan] = None,
    retries: int = 0,
    backoff_base: float = 0.0,
    backoff_cap: float = BACKOFF_CAP_SECONDS,
    on_error: Optional[str] = None,
    store=None,
    campaign: Optional[str] = None,
    runtime=None,
) -> List[Dict[str, Any]]:
    """Run ``worker`` over ``shards``; results merged in shard order.

    ``worker`` is a shard worker or a plan (see the module docstring): a
    :class:`~repro.runner.warmstart.WarmStartPlan` runs warm, its
    ``plan.cold()`` worker cold.

    ``jobs <= 1`` runs inline; ``jobs > 1`` fans the uncached shards out to
    a ``ProcessPoolExecutor``.  ``cache_tag`` names the sweep family in
    cache keys (bump it when a worker's *output format* changes without a
    rename).  ``metrics`` defaults to the process registry (the null sink
    unless one is installed); ``trace`` records per-shard events.

    ``faults`` injects deterministic crashes/timeouts per (shard, attempt);
    ``retries`` bounds how many times a failing shard is re-attempted, with
    ``backoff_base``-seconds exponential backoff between attempts, each
    delay clamped to ``backoff_cap`` seconds (default
    :data:`BACKOFF_CAP_SECONDS`).
    ``on_error`` selects what an exhausted shard does: ``"record"`` leaves
    an error record in its merge slot, ``"raise"`` aborts the sweep.  The
    default is ``"record"`` whenever faults or retries are engaged and the
    legacy ``"raise"`` otherwise.

    ``store`` selects the campaign store the merged run is recorded into
    (None resolves the process default / ``$REPRO_STORE``;
    :data:`repro.store.DISABLED` suppresses recording); ``campaign`` names
    the run's campaign (default: the cache tag minus its version suffix,
    else the worker's identity).

    ``runtime`` selects the execution runtime for the parallel path: an
    explicit :class:`~repro.runner.runtime.Runtime` reuses its persistent
    pool, :data:`~repro.runner.runtime.FRESH` forces an ephemeral per-call
    pool, and None resolves the process default / ``$REPRO_RUNTIME`` (see
    :mod:`repro.runner.runtime`).  The choice never changes output — only
    how worker processes are provisioned.
    """
    if jobs < 0:
        raise ReproError(f"jobs must be >= 0, got {jobs}")
    if retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries}")
    if backoff_base < 0:
        raise ReproError(f"backoff_base must be >= 0, got {backoff_base}")
    if backoff_cap < 0:
        raise ReproError(f"backoff_cap must be >= 0, got {backoff_cap}")
    if on_error is None:
        on_error = "record" if (faults is not None or retries > 0) else "raise"
    if on_error not in ("record", "raise"):
        raise ReproError(f"on_error must be 'record' or 'raise', got {on_error!r}")
    registry = metrics if metrics is not None else get_registry()
    trace = trace if trace is not None else NULL_TRACE
    wall_start = time.perf_counter()
    shards = list(shards)
    results: List[Optional[Dict[str, Any]]] = [None] * len(shards)

    slot_of: Dict[int, int] = {}
    for slot, shard in enumerate(shards):
        duplicate = slot_of.get(shard.index)
        if duplicate is not None:
            raise ReproError(
                f"duplicate shard index {shard.index} (positions {duplicate} "
                f"and {slot}): indices must be unique for a stable merge"
            )
        slot_of[shard.index] = slot

    prepare = getattr(worker, "prepare", None)
    if prepare is not None:
        worker = prepare(shards, jobs, registry, trace, runtime)
    digests = getattr(worker, "digests", None)
    executor = getattr(worker, "executor", "pool")
    batching = jobs <= 1 and executor == "batch"

    pending: List[Shard] = []
    keys: Dict[int, str] = {}
    cache_counts_before = (
        (cache.hits, cache.misses, cache.corrupt, cache.evicted)
        if cache is not None
        else (0, 0, 0, 0)
    )
    if cache is not None:
        for slot, shard in enumerate(shards):
            key = keys[slot] = _cache_key(cache, worker, cache_tag, shard)
            hit = cache.get(key)
            if hit is not None:
                results[slot] = hit
                trace.emit("runner.cache.hit", shard=shard.index, key=key)
            else:
                pending.append(shard)
                trace.emit("runner.cache.miss", shard=shard.index, key=key)
    else:
        pending = shards

    busy_seconds = 0.0
    retried_attempts = 0
    failed_shards = 0
    restores = 0
    calls_ok = 0
    n_batches = 0
    n_batched_trials = 0
    workers_used = min(jobs, len(pending)) if jobs > 1 else (1 if pending else 0)
    shard_seconds = (
        registry.histogram("runner.shard.seconds", _SHARD_SECONDS_BUCKETS)
        if pending else None
    )

    def settle(shard: Shard, outcome: _Outcome) -> bool:
        """Merge one shard's outcome (result, retries, error record, cache);
        whether it succeeded."""
        nonlocal busy_seconds, retried_attempts, failed_shards
        result, failure, elapsed, attempts = outcome
        slot = slot_of[shard.index]
        if attempts > 1:
            retried_attempts += attempts - 1
            trace.emit(
                "runner.shard.retried",
                shard=shard.index,
                retries=attempts - 1,
                recovered=failure is None,
            )
        if failure is not None:
            if on_error == "raise":
                raise ReproError(
                    f"shard {shard.index} failed after {attempts} "
                    f"attempt(s): {failure['error']}: {failure['message']}"
                )
            failed_shards += 1
            results[slot] = {SHARD_ERROR_KEY: failure}
            trace.emit(
                "runner.shard.failed",
                shard=shard.index,
                attempts=attempts,
                error=failure["error"],
            )
        else:
            results[slot] = result
            if cache is not None:
                cache.put(keys[slot], result)
            trace.emit("runner.shard", shard=shard.index, seconds=elapsed)
        busy_seconds += elapsed
        shard_seconds.observe(elapsed)
        return failure is None

    injector = ShardFaultInjector(faults) if faults is not None else None
    attempt = partial(
        _attempt_shard, worker, injector, retries, backoff_base, backoff_cap
    )
    # Trial batches first: a batch is every shard's attempt 0 at once.  A
    # shard whose fault fires, or whose trace or reduce raises, resumes at
    # attempt 1 through the same per-shard call as every other shard.
    resumed: List[Tuple[Shard, Dict[str, Any]]] = []
    batched = set()
    batches = worker.batches(pending) if batching and pending else []
    for prefix, chunk in batches:
        start = time.perf_counter()
        ready = []
        for shard in chunk:
            batched.add(shard.index)
            try:
                if injector is not None:
                    injector.check(shard.index, 0)
            except InjectedFault as error:
                resumed.append((shard, _failure(shard, error, 1)))
            else:
                ready.append(shard)
        if not ready:
            continue
        outcomes, trials, batch_restores = worker.run_batch(ready)
        restores += batch_restores
        elapsed = time.perf_counter() - start
        if trials:
            n_batches += 1
            n_batched_trials += trials
            trace.emit("runner.batch", prefix=prefix, trials=trials, seconds=elapsed)
        for shard, outcome in zip(ready, outcomes):
            if isinstance(outcome, Exception):
                resumed.append((shard, _failure(shard, outcome, 1)))
            else:
                settle(shard, (outcome, None, elapsed / len(ready), 1))
    for shard, failure in resumed:
        calls_ok += settle(shard, attempt(shard, first_attempt=1, failure=failure))

    unbatched = [shard for shard in pending if shard.index not in batched]
    if unbatched:
        if faults is None and retries == 0 and on_error == "raise":
            # Legacy fast path: worker exceptions propagate unwrapped.
            call = partial(_timed_call, worker)
        else:
            call = attempt
        # A single pending shard (or a fully cached sweep, which never
        # reaches here) is not worth a worker process: run it inline.
        # Workers are pure functions of the shard, so output is identical.
        if jobs > 1 and len(unbatched) > 1:
            rt = resolve_runtime(runtime)
            if rt is not None:
                computed = rt.map(
                    call, unbatched, workers_used, metrics=registry, trace=trace
                )
            else:
                with ProcessPoolExecutor(max_workers=workers_used) as pool:
                    computed = list(pool.map(call, unbatched))
        else:
            computed = [call(shard) for shard in unbatched]
        for shard, outcome in zip(unbatched, computed):
            calls_ok += settle(shard, outcome)

    registry.counter("runner.shards.total").inc(len(shards))
    registry.counter("runner.shards.computed").inc(len(pending))
    registry.counter("runner.shards.cached").inc(len(shards) - len(pending))
    # Always materialized (inc 0) so ``stats --json`` shows the retry layer
    # even on fault-free runs.
    registry.counter("runner.retries").inc(retried_attempts)
    registry.counter("runner.failures").inc(failed_shards)
    if digests is not None:
        # A warm worker restores its prefix checkpoint once per successful
        # call; trial batches counted their own restores.
        registry.counter("runner.checkpoint.restores").inc(restores + calls_ok)
    if batching:
        registry.counter("runner.batch.batches").inc(n_batches)
        registry.counter("runner.batch.trials").inc(n_batched_trials)
    if cache is not None:
        registry.counter("runner.cache.hits").inc(cache.hits - cache_counts_before[0])
        registry.counter("runner.cache.misses").inc(cache.misses - cache_counts_before[1])
        registry.counter("runner.cache.corrupt").inc(cache.corrupt - cache_counts_before[2])
        registry.counter("runner.cache.evicted").inc(cache.evicted - cache_counts_before[3])
    wall_seconds = time.perf_counter() - wall_start
    registry.gauge("runner.pool.jobs").set(max(workers_used, 1))
    if pending and wall_seconds > 0:
        registry.gauge("runner.pool.utilization").set(
            busy_seconds / (wall_seconds * max(workers_used, 1))
        )
    trace.emit(
        "runner.sweep",
        shards=len(shards),
        computed=len(pending),
        cached=len(shards) - len(pending),
        retries=retried_attempts,
        failures=failed_shards,
        jobs=max(workers_used, 1),
        wall_seconds=wall_seconds,
        busy_seconds=busy_seconds,
    )

    from ..store.ingest import campaign_name, record_sweep

    record_sweep(
        store,
        campaign if campaign is not None else campaign_name(cache_tag, _identity(worker)),
        shards,
        results,
        executor=executor,
        batch_size=getattr(worker, "batch_size", 1),
        digests=dict(digests) if digests is not None else None,
        jobs=max(workers_used, 1),
        shards_computed=len(pending),
        shards_cached=len(shards) - len(pending),
        retries=retried_attempts,
        failures=failed_shards,
        wall_seconds=wall_seconds,
        registry=registry,
        trace=trace,
        cache_keys=(
            [keys.get(slot) for slot in range(len(shards))] if cache is not None else None
        ),
    )
    return results  # type: ignore[return-value]
