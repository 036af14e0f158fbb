"""Warm-start trial plans: pay each distinct setup prefix once.

Every sweep trial used to rebuild a :class:`~repro.sim.Machine` from
``(config, seed)`` and re-simulate the same warm-up/calibration prefix
before the part that actually varies.  A :class:`WarmStartPlan` splits a
trial into that shared **setup prefix** and a per-shard **body**; handed
to :func:`~repro.runner.pool.run_shards`, it runs each distinct prefix
once, takes a :class:`~repro.sim.MachineCheckpoint`, and restores it
before every body instead of rebuilding.

The body is either given directly or derived from a **trace plan**: a pure
``make_trace`` builder and a ``reduce`` over the recorded results, run as
``make_trace`` -> ``machine.run_trace(..., record=True)`` -> ``reduce``.
A trace plan can also run a whole prefix group as one array program: when
the executor runs inline (``jobs <= 1``) and the group's machine runs the
``batch`` backend, one checkpoint restore is broadcast across up to
``batch_size`` trials through :func:`repro.engine.run_trace_batch`, and
each trial's result is extracted and reduced individually.  The
differential suites pin a T-trial batch as bit-identical to T scalar
trials, so batching never changes a row.

The determinism contract is unchanged: because ``Machine.restore`` rewinds
*all* mutable simulation state (clock, RNG, caches, policy metadata, PMU
counters, allocator pool, fault streams), a warm trial is bit-identical to
a cold trial (:meth:`WarmStartPlan.cold`) at any ``jobs`` value — the
restore runs before **every** body, including the first after a fresh
setup and any fault-injected retry.  Checkpoint digests and the engine
backend join the result-cache key, and cold workers carry their own
identity, so warm, cold and cross-engine runs never share cache entries.

Worker processes keep a small per-process memo of built prefix states.  On
fork-start platforms (Linux) children inherit the parent's memo, so a
``jobs > 1`` sweep pays each prefix once in the parent and zero times in
the pool; spawn-start platforms rebuild lazily per process, and workers of
a persistent :class:`~repro.runner.runtime.Runtime` adopt the parent's
shipped checkpoints.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from .pool import run_shards
from .shard import Shard, canonical_json

#: ``setup(prefix_params) -> (machine, context)``: build a machine and run
#: the shared prefix (channel construction, calibration, priming).  Must be
#: a top-level function — it pickles into pool workers.
Setup = Callable[[Dict[str, Any]], Tuple[Any, Any]]

#: ``body(machine, context, shard) -> result dict``: the varying part of a
#: trial, run on a freshly restored machine.  Must derive all per-trial
#: state from the shard (reseed channels, regenerate messages).
Body = Callable[[Any, Any, Shard], Dict[str, Any]]

#: ``make_trace(machine, context, shard) -> ops``: build the shard's trace
#: (a list of ``(op, core, addr)`` tuples).  MUST be read-only on the
#: machine — in a batch it runs against the restored-checkpoint state that
#: every trial shares, so any mutation would leak between trials.
MakeTrace = Callable[[Any, Any, Shard], Sequence[Tuple[str, int, int]]]

#: ``reduce(machine, context, shard, results) -> result dict``: turn the
#: trial's recorded :class:`MemOpResult` list into the shard's result.  The
#: machine holds the trial's end state, so reducers may also read stats,
#: PMU counters, or the clock.
Reduce = Callable[[Any, Any, Shard, list], Dict[str, Any]]

#: Prefix-build histogram buckets (seconds).
_PREFIX_SECONDS_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0)

#: Per-process cap on memoized prefix states (machine + checkpoint each);
#: evicted FIFO.  Sweeps group shards by prefix, so in practice a process
#: only ever needs the handful of prefixes routed to it.
_MAX_WARM_STATES = 16

#: prefix key -> (machine, context, checkpoint), per process.
_WARM_STATES: Dict[tuple, tuple] = {}


def clear_warm_states() -> None:
    """Drop this process's memoized prefix states (test isolation hook)."""
    _WARM_STATES.clear()


@dataclass(frozen=True)
class WarmStartPlan:
    """A trial split into a shared setup prefix and a varying body.

    ``prefix_keys`` names the shard params that feed ``setup``; shards
    agreeing on those params share one machine build + prefix execution.
    Everything else about a trial must live in the body: either ``body``
    itself, or — for a trace plan — ``make_trace`` and ``reduce``, which
    also let the executor batch up to ``batch_size`` trials of a prefix
    group into one array program.
    """

    setup: Setup
    body: Optional[Body] = None
    prefix_keys: Tuple[str, ...] = ()
    make_trace: Optional[MakeTrace] = None
    reduce: Optional[Reduce] = None
    batch_size: int = 64

    def __post_init__(self) -> None:
        if (self.body is None) == (self.make_trace is None):
            raise ReproError("a plan takes either body or make_trace + reduce")
        if (self.make_trace is None) != (self.reduce is None):
            raise ReproError("a trace plan needs both make_trace and reduce")
        if self.batch_size < 1:
            raise ReproError(f"batch_size must be >= 1, got {self.batch_size}")

    def prefix_of(self, shard: Shard) -> Dict[str, Any]:
        """The shard's prefix params (the setup's input)."""
        try:
            return {key: shard.params[key] for key in self.prefix_keys}
        except KeyError as missing:
            raise ReproError(
                f"shard {shard.index} is missing prefix param {missing} "
                f"(plan expects {self.prefix_keys})"
            ) from None

    def identity(self) -> str:
        """Stable name for cache keys and memo keys: the body (or trace builder)."""
        fn = self.body if self.body is not None else self.make_trace
        return f"{fn.__module__}.{fn.__qualname__}"

    def run_body(self, machine, context, shard: Shard) -> Dict[str, Any]:
        """One trial on a prepared machine: the body, or trace -> replay -> reduce."""
        if self.body is not None:
            return self.body(machine, context, shard)
        ops = self.make_trace(machine, context, shard)
        return self.reduce(
            machine, context, shard, machine.run_trace(ops, record=True)
        )

    def cold(self) -> "_ColdWorker":
        """A worker that runs setup + body per trial, with no checkpoints."""
        return _ColdWorker(self)

    def prepare(self, shards: Sequence[Shard], jobs: int, registry, trace,
                runtime) -> "_WarmWorker":
        """Capture this sweep's prefixes; the worker that restores them.

        Called by :func:`~repro.runner.pool.run_shards` before the cache
        lookup (the checkpoint digests are part of the keys).  Under a
        persistent runtime at ``jobs > 1`` the parent-built checkpoint
        table is shipped through one shared-memory segment, so pool
        workers forked before these prefixes existed adopt the parent's
        checkpoints (digest-checked) instead of capturing their own.
        """
        from .runtime import resolve_runtime

        states, digests = _capture_prefixes(self, shards, registry, trace)
        checkpoints = None
        rt = resolve_runtime(runtime)
        if rt is not None and jobs > 1 and states:
            checkpoints = rt.put_payload(
                {key: state[2] for key, state in states.items()}, registry=registry
            )
        batching = self.make_trace is not None and any(
            getattr(state[0], "backend", None) == "batch" for state in states.values()
        )
        return _WarmWorker(
            self, digests, checkpoints=checkpoints, batching=batching
        )


def _memo_key(identity: str, prefix_json: str, digest: str) -> tuple:
    """Memo key for one prefix state, qualified by the calling thread.

    Memoized machines are mutable and restored *in place* before every
    body, so a state entry must never be shared between threads — two
    service jobs running inline sweeps concurrently in one process would
    otherwise restore and mutate one machine simultaneously.  Pool worker
    processes are single-threaded, so the qualifier is constant there;
    fork-start children are cloned from the thread that built the parent
    prefixes, so memo inheritance across the fork still works.
    """
    return (threading.get_ident(), identity, prefix_json, digest)


def _memo_put(key: tuple, state: tuple) -> None:
    if len(_WARM_STATES) >= _MAX_WARM_STATES:
        _WARM_STATES.pop(next(iter(_WARM_STATES)))
    _WARM_STATES[key] = state


def _capture_prefixes(
    plan: WarmStartPlan, shards: Sequence[Shard], registry, trace
) -> Tuple[Dict[str, tuple], Dict[str, str]]:
    """Build each distinct prefix of ``shards`` once and checkpoint it.

    Returns ``{prefix_json: (machine, context, checkpoint)}`` and
    ``{prefix_json: digest}``, in shard order, and seeds this process's
    memo with every state: inline runs reuse them directly, forked pool
    children inherit them for free.  Every capture is counted under
    ``runner.checkpoint.*`` and traced.

    The prefixes are built even when every shard turns out to be a cache
    hit — the digests are needed to *form* the keys.  A warm cache-hit
    sweep therefore costs one prefix execution per distinct prefix.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    sizes: Dict[str, int] = {}
    for shard in shards:
        prefix = plan.prefix_of(shard)
        prefix_json = canonical_json(prefix)
        groups.setdefault(prefix_json, prefix)
        sizes[prefix_json] = sizes.get(prefix_json, 0) + 1

    states: Dict[str, tuple] = {}
    digests: Dict[str, str] = {}
    capture_seconds = registry.histogram(
        "runner.checkpoint.capture.seconds", _PREFIX_SECONDS_BUCKETS
    )
    saved_seconds = 0.0
    for prefix_json, prefix in groups.items():
        start = time.perf_counter()
        machine, context = plan.setup(prefix)
        checkpoint = machine.checkpoint()
        elapsed = time.perf_counter() - start
        digest = digests[prefix_json] = checkpoint.digest()
        state = states[prefix_json] = (machine, context, checkpoint)
        _memo_put(_memo_key(plan.identity(), prefix_json, digest), state)
        registry.counter("runner.checkpoint.captures").inc()
        registry.counter("runner.checkpoint.bytes").inc(checkpoint.approx_bytes)
        capture_seconds.observe(elapsed)
        # Each trial beyond the group's first would have re-run this prefix
        # cold; count the avoided builds as the (estimated) time saved.
        saved_seconds += elapsed * (sizes[prefix_json] - 1)
        trace.emit(
            "runner.checkpoint.capture",
            prefix=prefix_json,
            digest=digest,
            seconds=elapsed,
            trials=sizes[prefix_json],
        )
    registry.gauge("runner.checkpoint.saved_seconds").set(saved_seconds)
    return states, digests


class _ColdWorker:
    """Picklable worker running a plan's setup + body from scratch per trial.

    ``reseed`` on a freshly built channel is an identity operation, which
    is what makes a cold trial structurally equivalent to a warm one.  Its
    cache identity is the plan's with a ``/cold`` suffix, so cold entries
    never answer (or shadow) warm ones.
    """

    def __init__(self, plan: WarmStartPlan):
        self.plan = plan
        self.cache_identity = f"{plan.identity()}/cold"

    def __call__(self, shard: Shard) -> Dict[str, Any]:
        machine, context = self.plan.setup(self.plan.prefix_of(shard))
        return self.plan.run_body(machine, context, shard)


class _WarmWorker:
    """Picklable shard worker that restores the prefix checkpoint per trial.

    ``digests`` maps each prefix to its checkpoint digest (cache-key and
    memo-key material, and the run's recorded digests).  ``checkpoints``
    optionally carries a shared-memory
    :class:`~repro.runner.runtime.PayloadRef` to the parent-built
    ``{prefix_json: checkpoint}`` table: on a memo miss a worker still runs
    ``plan.setup`` (machine and context are live objects only a build can
    produce) but adopts the *shipped* checkpoint — digest-checked — so the
    state it restores per trial is byte-for-byte the parent's.

    With ``batching`` (a trace plan whose prefix machines run the
    ``batch`` backend) the worker also offers :meth:`batches` and
    :meth:`run_batch`, which the executor uses when it runs inline.
    """

    def __init__(
        self,
        plan: WarmStartPlan,
        digests: Dict[str, str],
        checkpoints=None,
        batching: bool = False,
    ):
        self.plan = plan
        self.digests = digests
        self.checkpoints = checkpoints
        #: Run metadata the executor records in the campaign store.
        self.executor = "batch" if batching else "warmstart"
        self.batch_size = plan.batch_size if batching else 1
        #: Cache identity: the body function, like a cold worker's name.
        self.cache_identity = plan.identity()

    def cache_components(self, shard: Shard) -> Dict[str, Any]:
        """Extra cache-key components: prefix checkpoint digest + backend.

        The engine backend is folded in explicitly (falling back to the
        process default when the shard does not carry one) so cached rows
        are never replayed across backends silently — backends are proven
        bit-identical by the differential suites, but a cache hit must
        not be the mechanism enforcing that.
        """
        from ..engine import default_backend

        return {
            "checkpoint": self.digests[canonical_json(self.plan.prefix_of(shard))],
            "engine": shard.params.get("engine") or default_backend(),
        }

    def _shipped_checkpoint(self, prefix_json: str):
        """The parent's checkpoint for ``prefix_json`` from shm, if shipped."""
        if self.checkpoints is None:
            return None
        from .runtime import load_payload

        table = load_payload(self.checkpoints)
        checkpoint = table.get(prefix_json)
        if checkpoint is None or checkpoint.digest() != self.digests[prefix_json]:
            return None  # stale/foreign table: fall back to a local capture
        return checkpoint

    def _state(self, shard: Shard) -> tuple:
        """This process's (machine, context, checkpoint) for the shard's prefix."""
        plan = self.plan
        prefix = plan.prefix_of(shard)
        prefix_json = canonical_json(prefix)
        memo_key = _memo_key(plan.identity(), prefix_json, self.digests[prefix_json])
        state = _WARM_STATES.get(memo_key)
        if state is None:
            machine, context = plan.setup(prefix)
            shipped = self._shipped_checkpoint(prefix_json)
            state = (machine, context, shipped or machine.checkpoint())
            _memo_put(memo_key, state)
        return state

    def __call__(self, shard: Shard) -> Dict[str, Any]:
        machine, context, checkpoint = self._state(shard)
        # Restore before *every* body — first use and retries included — so
        # execution never depends on what previously ran on this machine.
        machine.restore(checkpoint)
        return self.plan.run_body(machine, context, shard)

    def batches(self, shards: Sequence[Shard]) -> List[Tuple[str, List[Shard]]]:
        """``(prefix_json, chunk)`` trial batches for ``shards``, in shard order.

        Shards group by prefix; each group whose machine runs the ``batch``
        backend splits into chunks of at most ``batch_size`` trials.
        """
        groups: Dict[str, List[Shard]] = {}
        for shard in shards:
            key = canonical_json(self.plan.prefix_of(shard))
            groups.setdefault(key, []).append(shard)
        size = self.batch_size
        return [
            (key, members[start : start + size])
            for key, members in groups.items()
            if getattr(self._state(members[0])[0], "backend", None) == "batch"
            for start in range(0, len(members), size)
        ]

    def run_batch(
        self, shards: Sequence[Shard]
    ) -> Tuple[List[Union[Dict[str, Any], Exception]], int, int]:
        """Run one prefix group's ``shards`` as a single array program.

        Returns ``(outcomes, trials, restores)``: per shard, its result or
        the exception its trace builder or reducer raised; how many trials
        the array program ran; and how many checkpoint restores it took
        (one broadcast to the batch plus one per applied trial).
        """
        from ..engine import run_trace_batch

        plan = self.plan
        machine, context, checkpoint = self._state(shards[0])
        machine.restore(checkpoint)
        restores = 1
        outcomes: List[Any] = [None] * len(shards)
        traces, traced = [], []
        for slot, shard in enumerate(shards):
            try:
                traces.append(plan.make_trace(machine, context, shard))
            except Exception as error:
                outcomes[slot] = error
            else:
                traced.append(slot)
        if not traced:
            return outcomes, 0, restores
        batch = run_trace_batch(machine, traces, record=True)
        for t, slot in enumerate(traced):
            machine.restore(checkpoint)
            restores += 1
            batch.apply(t)
            try:
                outcomes[slot] = plan.reduce(
                    machine, context, shards[slot], batch.results(t)
                )
            except Exception as error:
                outcomes[slot] = error
        return outcomes, len(traced), restores


def run_warm_shards(plan: WarmStartPlan, shards: Sequence[Shard],
                    **kwargs) -> List[Dict[str, Any]]:
    """Run ``shards`` through ``plan`` with per-prefix warm starts.

    Equivalent to ``run_shards(plan, shards, **kwargs)`` (see
    :func:`~repro.runner.pool.run_shards` for the keywords); kept as the
    named entry point for warm-start sweeps.
    """
    return run_shards(plan, shards, **kwargs)
