"""Service dedupe gate: N=8 duplicate submissions cost <= 2x one sweep.

The fleet-shared result cache is the service's whole performance story:
eight clients racing the *same* sweep spec through the job queue must not
cost eight sweeps.  The first claim computes and populates the shared
cache; every other job is served from it, paying only scheduling overhead.

Gate: wall time for 8 concurrent duplicate submissions (4 dispatcher
slots) <= 2x the wall time of one direct in-process sweep, plus a fixed
per-job scheduling budget.  The 2x term absorbs the worst legal race —
two dispatchers claiming duplicates before either has populated the
cache — and the budget covers HTTP + queue + dispatch per job, which must
stay O(milliseconds) regardless of sweep size.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from conftest import artifact, report

from repro.runner import ResultCache
from repro.service import (
    JobQueue,
    JobSpec,
    LocalBackend,
    ServiceClient,
    ServiceThread,
    execute_job,
)

N_SUBMISSIONS = 8
WORKERS = 4
GATE_FACTOR = 2.0
PER_JOB_BUDGET_SECONDS = 0.5

SPEC = JobSpec(
    experiment="capacity",
    params={"channel": "ntp+ntp", "intervals": [2100, 1800], "n_bits": 48},
    seed=340,
)


def _direct_seconds(tmp_path) -> float:
    """One sweep, run the cheapest possible way: in process, cold cache."""
    cache = ResultCache(str(tmp_path / "direct-cache"))
    start = time.perf_counter()
    execute_job(SPEC, cache=cache)
    return time.perf_counter() - start


def _service_seconds(tmp_path):
    """Eight duplicate submissions racing through one service node."""
    queue = JobQueue(":memory:")
    backend = LocalBackend(
        cache_root=str(tmp_path / "svc-cache"),
        store_path=str(tmp_path / "svc.sqlite"),
    )
    server = ServiceThread(queue, backend, workers=WORKERS)
    try:
        client = ServiceClient(server.host, server.port)
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_SUBMISSIONS) as pool:
            ids = list(pool.map(
                lambda _: client.submit(SPEC)["id"], range(N_SUBMISSIONS)
            ))
            results = list(pool.map(
                lambda job_id: client.wait(job_id, timeout=600)["result"], ids
            ))
        wall = time.perf_counter() - start
        computed = sum(r["shards"]["computed"] for r in results)
        cached = sum(r["shards"]["cached"] for r in results)
        fingerprints = {r["runs"][0]["fingerprint"] for r in results}
        return wall, computed, cached, fingerprints
    finally:
        server.stop()
        queue.close()


def _measure(tmp_path):
    return _direct_seconds(tmp_path), _service_seconds(tmp_path)


def test_duplicate_submissions_are_cache_served(tmp_path, once):
    # Through ``once`` like every other gate, so ``--benchmark-only`` runs
    # it instead of skipping it.
    direct, (service_wall, computed, cached, fingerprints) = once(
        _measure, tmp_path
    )

    shards_per_sweep = len(SPEC.params["intervals"])
    gate = GATE_FACTOR * direct + PER_JOB_BUDGET_SECONDS * N_SUBMISSIONS

    result = {
        "submissions": N_SUBMISSIONS,
        "dispatcher_slots": WORKERS,
        "direct_sweep_seconds": direct,
        "service_wall_seconds": service_wall,
        "gate_seconds": gate,
        "shards_computed_total": computed,
        "shards_cached_total": cached,
        "shards_per_sweep": shards_per_sweep,
        "distinct_fingerprints": len(fingerprints),
    }
    artifact("service_dedupe", result)
    report(
        "Service dedupe: 8 duplicate submissions vs one direct sweep",
        f"direct sweep        : {direct:8.2f} s\n"
        f"8 via service       : {service_wall:8.2f} s"
        f"  (gate {gate:.2f} s)\n"
        f"shards computed     : {computed}  (one sweep = {shards_per_sweep};"
        f" naive 8x = {N_SUBMISSIONS * shards_per_sweep})\n"
        f"shards cache-served : {cached}",
    )

    # All eight jobs converge on one store fingerprint...
    assert len(fingerprints) == 1
    # ...most of the fleet's shards came from the shared cache: in the
    # worst legal race every dispatcher slot claims a duplicate before
    # any has populated the cache, so at most WORKERS sweeps compute —
    # and they compute in parallel, which is why the wall gate holds.
    assert computed <= WORKERS * shards_per_sweep
    assert cached >= (N_SUBMISSIONS - WORKERS) * shards_per_sweep
    # ...and the whole fleet cost no more than ~one sweep plus overhead.
    assert service_wall <= gate
