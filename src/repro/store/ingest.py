"""Ingest wiring: how sweep runs and benchmark artifacts reach the store.

The sweep executor (:func:`repro.runner.run_shards`) calls
:func:`record_sweep` once after every merge; ``benchmarks/conftest.artifact`` calls :func:`record_artifact` per
benchmark.  Both are **fail-soft**: a broken or read-only store costs the
history entry, never the sweep — mirroring the
:class:`~repro.runner.cache.ResultCache` contract that results must not
depend on filesystem health.

Store resolution mirrors the result cache's env convention:

* an explicit :class:`~repro.store.db.CampaignStore` always wins;
* otherwise the process default applies — set programmatically with
  :func:`set_default_store` / :func:`use_default_store` (the CLI's
  ``--store`` does this), or from the ``REPRO_STORE`` env var (a path to
  the sqlite file; ``0`` / ``off`` / ``none`` disable);
* with neither, nothing is recorded.

Pass :data:`DISABLED` to suppress recording for one call even when a
default store is installed (the CLI's ``--no-store``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from .db import CampaignStore

#: Env var naming the default campaign store file.
STORE_ENV = "REPRO_STORE"

#: Values of ``REPRO_STORE`` that mean "no store".
_DISABLING_VALUES = ("", "0", "off", "none")

#: Sentinel: suppress recording for this call even if a default exists.
DISABLED = object()

#: Programmatic default (takes precedence over the env var when set;
#: may hold :data:`DISABLED` to force recording off).
_default_store: Union[CampaignStore, None, object] = None
_default_installed = False

#: Env-derived store, memoized per (env value) so repeated sweeps in one
#: process share a connection instead of reopening the file per call.
_env_store: Optional[CampaignStore] = None
_env_store_path: Optional[str] = None


def set_default_store(
    store: Union[CampaignStore, None, object]
) -> Union[CampaignStore, None, object]:
    """Install ``store`` as the process default; returns the previous one.

    ``None`` uninstalls, restoring env-var resolution; :data:`DISABLED`
    installs a default that records nothing — the CLI's ``--no-store``,
    which must override ``$REPRO_STORE`` rather than fall back to it.
    """
    global _default_store, _default_installed
    previous = _default_store if _default_installed else None
    _default_store = store
    _default_installed = store is not None
    return previous


@contextmanager
def use_default_store(store: Optional[CampaignStore]) -> Iterator[Optional[CampaignStore]]:
    """Scoped :func:`set_default_store` (the CLI wraps each sweep in this)."""
    previous = set_default_store(store)
    try:
        yield store
    finally:
        set_default_store(previous)


def get_default_store() -> Optional[CampaignStore]:
    """The process-default store, or None when recording is off."""
    global _env_store, _env_store_path
    if _default_installed:
        return None if _default_store is DISABLED else _default_store
    path = os.environ.get(STORE_ENV)
    if path is None or path.lower() in _DISABLING_VALUES:
        return None
    if _env_store is None or _env_store_path != path:
        try:
            _env_store = CampaignStore(path)
            _env_store_path = path
        except Exception:
            return None  # fail-soft: an unopenable store records nothing
    return _env_store


def resolve_store(
    store: Union[CampaignStore, None, object]
) -> Optional[CampaignStore]:
    """An executor's effective store: explicit, default, or none."""
    if store is DISABLED:
        return None
    if store is not None:
        return store  # type: ignore[return-value]
    return get_default_store()


def campaign_name(cache_tag: Optional[str], identity: str) -> str:
    """Default campaign name: the cache tag minus its ``/vN`` suffix.

    ``capacity_sweep/v1`` -> ``capacity_sweep``; with no tag, the worker's
    dotted identity names the campaign.
    """
    if not cache_tag:
        return identity
    base, sep, version = cache_tag.rpartition("/")
    if sep and version.startswith("v") and version[1:].isdigit():
        return base
    return cache_tag


def record_sweep(
    store: Union[CampaignStore, None, object],
    campaign: str,
    shards: Sequence,
    results: Sequence,
    *,
    executor: str,
    engine: Optional[str] = None,
    batch_size: int = 1,
    jobs: int = 1,
    shards_computed: int = 0,
    shards_cached: int = 0,
    retries: int = 0,
    failures: int = 0,
    wall_seconds: float = 0.0,
    registry=None,
    trace=None,
    digests: Optional[Dict[str, str]] = None,
    cache_keys: Optional[Sequence[Optional[str]]] = None,
) -> Optional[int]:
    """Record one completed sweep run, fail-soft; returns the run id or None.

    ``engine`` defaults to the first shard's ``engine`` param (every sweep
    experiment stamps one) and falls back to the process default backend.
    ``registry``'s snapshot is stored as the run's metrics; the recording
    itself is accounted under ``runner.store.*`` and a ``runner.store``
    trace event, so history ingestion is observable like everything else.
    """
    target = resolve_store(store)
    if target is None or not shards:
        return None
    if engine is None:
        engine = _sweep_engine(shards)
    from ..cache import ENGINE_VERSION

    metrics_snapshot = None
    if registry is not None and registry.enabled:
        metrics_snapshot = registry.as_dict()
    try:
        run_id = target.record_run(
            campaign,
            list(shards),
            list(results),
            executor=executor,
            engine=engine,
            engine_version=str(ENGINE_VERSION),
            batch_size=batch_size,
            jobs=jobs,
            shards_computed=shards_computed,
            shards_cached=shards_cached,
            retries=retries,
            failures=failures,
            wall_seconds=wall_seconds,
            metrics=metrics_snapshot,
            digests=digests,
            cache_keys=cache_keys,
        )
    except Exception:
        if registry is not None:
            registry.counter("runner.store.errors").inc()
        return None
    if registry is not None:
        registry.counter("runner.store.runs").inc()
        registry.counter("runner.store.shards").inc(len(shards))
    if trace is not None:
        trace.emit("runner.store", campaign=campaign, run=run_id,
                   shards=len(shards))
    return run_id


def _sweep_engine(shards: Sequence) -> str:
    """The sweep's engine backend, from shard params or the process default."""
    try:
        engine = shards[0].params.get("engine")
    except (AttributeError, IndexError):
        engine = None
    if engine:
        return engine
    from ..engine import default_backend

    return default_backend()


def stamp_artifact(result: Any) -> Any:
    """A *copy* of ``result`` stamped with engine backend and batch width.

    Benchmarks that already pin ``engine_backend`` / ``trial_batch_size``
    keep their values.  Non-dict results pass through untouched.  The input
    is never mutated — benchmark code frequently asserts on the very dict
    it hands to ``artifact()``.
    """
    if not isinstance(result, dict):
        return result
    from ..engine import default_backend

    stamped = dict(result)
    stamped.setdefault("engine_backend", default_backend())
    stamped.setdefault("trial_batch_size", 1)
    return stamped


def record_artifact(
    name: str,
    payload: Any,
    store: Union[CampaignStore, None, object] = None,
) -> Optional[int]:
    """Record one benchmark artifact, fail-soft; returns its row id or None."""
    target = resolve_store(store)
    if target is None or not isinstance(payload, dict):
        return None
    try:
        return target.record_artifact(name, payload)
    except Exception:
        return None
