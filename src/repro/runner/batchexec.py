"""Trial-batched sweeps: a named entry point for batching trace plans.

Batching is a capability of a trace-building
:class:`~repro.runner.warmstart.WarmStartPlan` (``make_trace`` +
``reduce``): :func:`~repro.runner.pool.run_shards` runs each prefix group
through :func:`repro.engine.run_trace_batch` when it runs inline and the
group's machine runs the ``batch`` backend, and runs every other shard —
including shards that failed inside a batch — through the same per-shard
fault/retry call as any sweep.  Rows are bit-identical to the scalar path
at any ``jobs`` value and ``batch_size``; cache keys carry the engine, so
a batched run never answers (or is answered by) another engine's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Sequence

from .pool import run_shards
from .shard import Shard
from .warmstart import WarmStartPlan


def run_batch_shards(plan: WarmStartPlan, shards: Sequence[Shard],
                     batch_size: int = 64, **kwargs) -> List[Dict[str, Any]]:
    """Run ``shards`` through ``plan`` with up to ``batch_size`` trials per batch.

    Equivalent to ``run_shards(replace(plan, batch_size=batch_size), shards,
    **kwargs)`` (see :func:`~repro.runner.pool.run_shards`).
    """
    return run_shards(replace(plan, batch_size=batch_size), shards, **kwargs)
