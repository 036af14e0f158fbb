"""Bounded result cache: oldest-first eviction under a byte budget."""

import json
import os
import time

import pytest

from repro.config import SKYLAKE
from repro.experiments.insertion_sweep import run_insertion_sweep
from repro.obs import MetricsRegistry
from repro.runner import (
    ResultCache,
    Shard,
    clear_warm_states,
    make_shards,
    run_shards,
)
from repro.sim.machine import Machine


def _put(cache, key, payload, mtime=None):
    cache.put(key, payload)
    if mtime is not None:
        path = cache._path(key)
        os.utime(path, (mtime, mtime))


def _entry_keys(cache):
    return sorted(p.stem for p in cache.root.glob("*/*.json"))


class TestEviction:
    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(50):
            cache.put(f"key-{i}", {"blob": "x" * 512})
        assert cache.evicted == 0
        assert len(_entry_keys(cache)) == 50

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(str(tmp_path), max_bytes=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(str(tmp_path), max_bytes=-10)

    def test_oldest_entries_evicted_first(self, tmp_path):
        payload = {"blob": "x" * 100}
        size = len(json.dumps(payload, sort_keys=True))
        cache = ResultCache(str(tmp_path), max_bytes=3 * size)
        base = time.time() - 100
        for i, key in enumerate(["old", "mid", "new"]):
            _put(cache, key, payload, mtime=base + i)
        assert cache.evicted == 0
        _put(cache, "newest", payload)  # pushes the total over budget
        assert cache.evicted == 1
        assert "old" not in _entry_keys(cache)
        for survivor in ("mid", "new", "newest"):
            assert cache.get(survivor) == payload

    def test_just_written_entry_is_protected(self, tmp_path):
        """A single entry larger than any other must not evict itself."""
        cache = ResultCache(str(tmp_path), max_bytes=64)
        cache.put("big", {"blob": "x" * 256})
        assert cache.get("big") == {"blob": "x" * 256}

    def test_evicts_entries_written_by_other_handles(self, tmp_path):
        """Eviction re-walks the directory: fleet-shared roots stay bounded."""
        payload = {"blob": "y" * 100}
        size = len(json.dumps(payload, sort_keys=True))
        writer = ResultCache(str(tmp_path))  # unbounded sibling handle
        _put(writer, "foreign", payload, mtime=time.time() - 1000)
        bounded = ResultCache(str(tmp_path), max_bytes=size + 10)
        bounded.put("mine", payload)
        assert bounded.evicted == 1
        assert bounded.get("foreign") is None
        assert bounded.get("mine") == payload


def _worker(shard: Shard) -> dict:
    return {"index": shard.index, "blob": "z" * 200}


def _cold(cache, registry):
    shards = make_shards(0, [{"x": i} for i in range(8)])
    run_shards(_worker, shards, cache=cache, metrics=registry)


def _insertion(engine):
    def sweep(cache, registry):
        clear_warm_states()
        run_insertion_sweep(
            lambda: Machine(SKYLAKE, seed=11), positions=range(3), trials=4,
            seed=9, engine=engine, result_cache=cache, metrics=registry,
        )
    return sweep


class TestMetricsSurface:
    @pytest.mark.parametrize("sweep", [
        _cold, _insertion("object"), _insertion("batch"),
    ], ids=["cold", "warm", "batch"])
    def test_runner_cache_evicted_counter(self, tmp_path, sweep):
        registry = MetricsRegistry()
        cache = ResultCache(str(tmp_path), max_bytes=600)
        sweep(cache, registry)
        counters = registry.as_dict("runner.")["counters"]
        assert counters["runner.cache.evicted"] == cache.evicted
        assert cache.evicted > 0

    def test_sweep_results_correct_even_while_evicting(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=600)
        shards = make_shards(0, [{"x": i} for i in range(8)])
        bounded = run_shards(_worker, shards, cache=cache)
        unbounded = run_shards(_worker, shards)
        assert bounded == unbounded
