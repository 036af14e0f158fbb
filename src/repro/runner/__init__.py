"""Parallel sharded sweep runner with on-disk result caching.

Every sweep experiment (capacity, noise, detection, sensitivity, channel
comparison, insertion) decomposes into independent points; this package
runs those points serially or across a process pool with **bit-identical
output**, and memoizes each point's result on disk keyed by the full
content of the computation (engine version + platform config + parameters
+ seeds).

There is one executor, :func:`run_shards`.  It takes either a plain shard
worker or a :class:`WarmStartPlan` — a trial split into a shared setup
prefix and a per-shard body — and owns caching, fault injection, retries,
metrics, tracing and store ingest for both.  A plan runs warm (each
distinct prefix built and checkpointed once, restored before every body);
``plan.cold()`` is its cold worker (setup + body per trial); a trace plan
(``make_trace`` + ``reduce``) additionally batches each prefix group's
trials into one array program when run inline on the ``batch`` engine.
:func:`run_warm_shards` and :func:`run_batch_shards` are named entry
points that forward to :func:`run_shards`.

Typical wiring, from an experiment module::

    def _setup(prefix):                # top level: must pickle
        machine = Machine(prefix["config"], seed=prefix["machine_seed"])
        return machine, build_channel(machine)

    def _body(machine, channel, shard):
        outcome = channel.transmit(...)
        return {"interval": shard.params["interval"], "ber": outcome.bit_error_rate}

    PLAN = WarmStartPlan(setup=_setup, body=_body,
                         prefix_keys=("config", "machine_seed"))

    shards = make_shards(root_seed, [{...} for point in grid])
    rows = run_shards(PLAN if warm_start else PLAN.cold(), shards,
                      jobs=jobs, cache=cache, cache_tag="my_sweep/v1")
"""

from .batchexec import run_batch_shards
from .cache import CACHE_DIR_ENV, ResultCache, default_cache_root
from .pool import (
    BACKOFF_CAP_SECONDS,
    SHARD_ERROR_KEY,
    backoff_seconds,
    is_error_record,
    run_shards,
)
from .runtime import (
    FRESH,
    RUNTIME_ENV,
    Runtime,
    resolve_runtime,
    set_default_runtime,
    use_default_runtime,
)
from .shard import (
    Shard,
    canonical_json,
    derive_seed,
    make_content_shards,
    make_shards,
)
from .warmstart import WarmStartPlan, clear_warm_states, run_warm_shards

__all__ = [
    "run_batch_shards",
    "WarmStartPlan",
    "clear_warm_states",
    "run_warm_shards",
    "FRESH",
    "RUNTIME_ENV",
    "Runtime",
    "resolve_runtime",
    "set_default_runtime",
    "use_default_runtime",
    "BACKOFF_CAP_SECONDS",
    "CACHE_DIR_ENV",
    "ResultCache",
    "SHARD_ERROR_KEY",
    "backoff_seconds",
    "default_cache_root",
    "is_error_record",
    "run_shards",
    "Shard",
    "canonical_json",
    "derive_seed",
    "make_content_shards",
    "make_shards",
]
