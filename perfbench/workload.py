"""One iteration of one benchmark workload, run in a fresh interpreter.

Usage (``run.py`` launches it; it is not meant to be run by hand)::

    python perfbench/workload.py INPUTS.json OUT.json [--trace TRACE_PREFIX]

The interpreter receives only the inputs ``run.py`` generated from the
workload seed, plus an environment that pins ``REPRO_STORE``,
``REPRO_CACHE_DIR``, ``REPRO_ENGINE`` and ``REPRO_RUNTIME`` to this
iteration's own fresh directory.  It runs the workload once, checks and
digests its simulated outputs, and writes a JSON report to ``OUT.json``.

A :class:`hostspeed.HostProbe` thread runs from before the program is
imported to the end of the measured phase, so that ``run.py`` can report
set-up, phase and job times in reference seconds.

With ``--trace`` it first installs span wrappers (:mod:`tracer`) around
each layer's public functions, removes them after the measured phase, and
writes ``TRACE_PREFIX.trace.json`` (Chrome trace events) and
``TRACE_PREFIX.summary.json`` (per-layer calls, self time, wall share).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402

#: Run as a script, the probe starts before the program is imported, so
#: that the host speed during set-up is known.
PROBE = hostspeed.HostProbe().start() if __name__ == "__main__" else None
PROBE_START = time.perf_counter()

import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from repro.config import KABY_LAKE, SKYLAKE  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.runner import ResultCache  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402

PLATFORMS = {"skylake": SKYLAKE, "kaby-lake": KABY_LAKE}

#: Paper Table II peak capacities (KB/s), by (channel, platform).
PAPER_TABLE2 = {
    ("ntp+ntp", "skylake"): 302.0,
    ("ntp+ntp", "kaby-lake"): 275.0,
    ("prime+probe", "skylake"): 86.0,
    ("prime+probe", "kaby-lake"): 81.0,
}

#: Registry counters a sweep's failure shows up in.
_FAILURE_COUNTERS = ("runner.failures", "runner.store.errors")


def digest(material: Any) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _counter(registry: MetricsRegistry, name: str) -> int:
    return registry.counter(name).value


class Report:
    """What one iteration measured, checked and failed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.first_call: Optional[float] = None
        self.phase_start = 0.0
        self.phase_end = 0.0
        #: (start, end) perf_counter window of every completed job.
        self.jobs: List[Tuple[float, float]] = []
        self.shards = 0
        self.attempted = 0
        self.errors: List[str] = []
        self.digest_material: List[Any] = []
        self.extra: Dict[str, Any] = {}

    def start_phase(self) -> None:
        self.first_call = time.monotonic()
        self.phase_start = time.perf_counter()
        self.cpu_start = time.process_time()
        self.sys_start = os.times().system

    def end_phase(self) -> None:
        self.phase_end = time.perf_counter()
        self.cpu_end = time.process_time()
        self.sys_end = os.times().system

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check {name} failed")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _job_span(tracer: Optional[tracing.Tracer], name: str, **attrs):
    """A benchmark-level span in the traced run, nothing otherwise."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


def _store_fingerprint(campaign: str) -> Optional[str]:
    from repro.store import CampaignStore

    with CampaignStore(os.environ["REPRO_STORE"]) as store:
        runs = store.latest_runs(campaign, 1)
    return runs[0].fingerprint if runs else None


def run_capacity(inputs: Dict[str, Any], report: Report,
                 tracer: Optional[tracing.Tracer]) -> None:
    """Cold Figure 8 / Table II sweeps, warm start, jobs=1, cache and store on."""
    from repro.experiments.capacity_sweep import run_capacity_sweep

    registry = MetricsRegistry()
    cache = ResultCache()
    sweeps = []
    report.start_phase()
    for job in inputs["jobs"]:
        config = PLATFORMS[job["platform"]]
        machine_seed = job["machine_seed"]
        before = {name: _counter(registry, name) for name in _FAILURE_COUNTERS}
        shards_before = _counter(registry, "runner.shards.total")
        report.attempted += 1
        try:
            with _job_span(tracer, "bench.job", run=f"{job['channel']}/{job['platform']}"):
                sweep = run_capacity_sweep(
                    lambda: Machine(config, seed=machine_seed),
                    job["channel"], n_bits=job["n_bits"], seed=job["seed"],
                    jobs=1, result_cache=cache, metrics=registry, warm_start=True,
                )
        except Exception as error:  # every failure is reported, not raised
            report.fail(f"capacity {job}: {type(error).__name__}: {error}")
            continue
        report.shards += _counter(registry, "runner.shards.total") - shards_before
        for name in _FAILURE_COUNTERS:
            if _counter(registry, name) != before[name]:
                report.fail(f"capacity {job}: {name} increased")
        sweeps.append((job, sweep))
    report.end_phase()
    # The sweep workloads have no job queue: their job is the iteration's
    # whole command, every sweep of it.
    report.jobs = [(report.phase_start, report.phase_end)]

    peaks = {}
    for job, sweep in sweeps:
        campaign = f"capacity_sweep/{job['channel']}/{sweep.platform}"
        rows = [[p.interval, p.raw_rate_kb_per_s, p.bit_error_rate,
                 p.capacity_kb_per_s] for p in sweep.points]
        report.digest_material.append(
            [job["channel"], job["platform"], rows, _store_fingerprint(campaign)]
        )
        if not rows:
            report.fail(f"capacity {job}: no points")
            continue
        peaks[(job["channel"], job["platform"])] = sweep.peak.capacity_kb_per_s
    for platform in sorted({job["platform"] for job in inputs["jobs"]}):
        ntp = peaks.get(("ntp+ntp", platform))
        pp = peaks.get(("prime+probe", platform))
        report.check(f"ntp_beats_prime_probe/{platform}",
                     ntp is not None and pp is not None and ntp > pp)
    if len(peaks) == len(PAPER_TABLE2):
        errors = [abs(peaks[key] - ref) / ref * 100.0
                  for key, ref in PAPER_TABLE2.items()]
        report.extra["table2_err_pct"] = sum(errors) / len(errors)
        report.extra["peaks"] = {"/".join(key): value for key, value in peaks.items()}


def run_insertion_batch(inputs: Dict[str, Any], report: Report,
                        tracer: Optional[tracing.Tracer]) -> None:
    """Cold Figure 2 sweeps on the trial-batched engine, cache and store on."""
    from repro.experiments.insertion_sweep import run_insertion_sweep

    registry = MetricsRegistry()
    cache = ResultCache()
    sweeps = []
    report.start_phase()
    for job in inputs["jobs"]:
        config = PLATFORMS[job["platform"]]
        machine_seed = job["machine_seed"]
        before = {name: _counter(registry, name) for name in _FAILURE_COUNTERS}
        shards_before = _counter(registry, "runner.shards.total")
        report.attempted += 1
        try:
            with _job_span(tracer, "bench.job", run=f"insertion/{job['platform']}"):
                sweep = run_insertion_sweep(
                    lambda: Machine(config, seed=machine_seed),
                    trials=job["trials"], seed=job["seed"], jobs=1,
                    result_cache=cache, metrics=registry, engine="batch",
                )
        except Exception as error:
            report.fail(f"insertion {job}: {type(error).__name__}: {error}")
            continue
        report.shards += _counter(registry, "runner.shards.total") - shards_before
        for name in _FAILURE_COUNTERS:
            if _counter(registry, name) != before[name]:
                report.fail(f"insertion {job}: {name} increased")
        if sweep.failures:
            report.fail(f"insertion {job}: {sweep.failures} shard(s) failed")
        sweeps.append((job, sweep))
    report.end_phase()
    # The sweep workloads have no job queue: their job is the iteration's
    # whole command, every sweep of it.
    report.jobs = [(report.phase_start, report.phase_end)]

    for job, sweep in sweeps:
        fractions = {str(a): f for a, f in sorted(sweep.evicted_fraction.items())}
        latencies = {str(a): v for a, v in sorted(sweep.latencies.items())}
        campaign = f"insertion_sweep/{sweep.platform}"
        report.digest_material.append(
            [job["platform"], fractions, latencies, _store_fingerprint(campaign)]
        )
        ways = PLATFORMS[job["platform"]].llc.ways
        report.check(
            f"evicted_at_every_position/{job['platform']}",
            len(fractions) == ways and all(f == 1.0 for f in fractions.values()),
        )


def run_service_mixed(inputs: Dict[str, Any], report: Report,
                      tracer: Optional[tracing.Tracer]) -> None:
    """Closed loop of client threads against an in-process sweep service."""
    from repro.errors import QueueFullError, ServiceError
    from repro.service import JobQueue, LocalBackend, ServiceClient, ServiceThread

    work = os.path.dirname(os.environ["REPRO_STORE"])
    queue = JobQueue(os.path.join(work, "queue.sqlite"))
    backend = LocalBackend(
        cache_root=os.environ["REPRO_CACHE_DIR"],
        store_path=os.environ["REPRO_STORE"],
    )
    service = ServiceThread(queue, backend, workers=inputs["dispatch_workers"])
    client = ServiceClient(service.host, service.port)
    submissions = inputs["submissions"]
    order = itertools.count()
    lock = threading.Lock()
    outcomes: Dict[int, Dict[str, Any]] = {}
    refused = [0]

    def client_loop(client_id: int) -> None:
        while True:
            with lock:
                index = next(order)
            if index >= len(submissions):
                return
            spec = submissions[index]
            start = time.perf_counter()
            outcome: Dict[str, Any] = {"client": client_id, "spec": spec}
            try:
                with _job_span(tracer, "bench.job", submission=index) as span:
                    with _job_span(tracer, "service.submit"):
                        job = client.submit(spec)
                    outcome["submit_s"] = time.perf_counter() - start
                    if tracer is not None:
                        span.attrs["job"] = job["id"]
                    outcome.update(id=job["id"], final=None)
                    events = client.watch(job["id"])
                    try:
                        for event in events:
                            if event.get("name") in ("service.job.done",
                                                     "service.job.failed"):
                                outcome.update(
                                    final=event, seen_at=time.time(),
                                    window=(start, time.perf_counter()))
                                break
                    finally:
                        events.close()
            except QueueFullError as error:
                with lock:
                    refused[0] += 1
                outcome["error"] = f"429: {error}"
            except (ServiceError, OSError) as error:
                outcome["error"] = f"{type(error).__name__}: {error}"
            with lock:
                outcomes[index] = outcome

    clients = [threading.Thread(target=client_loop, args=(i,))
               for i in range(inputs["clients"])]
    try:
        report.start_phase()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=150)
        report.end_phase()
        records = {job["id"]: job for job in client.jobs()}
    finally:
        service.stop()
        queue.close()
    if any(thread.is_alive() for thread in clients):
        report.fail("service clients did not finish within 150 s")

    first_of: Dict[str, Dict[str, Any]] = {}
    total = cached = 0
    queue_waits: List[float] = []
    notify: List[float] = []
    submit: List[float] = []
    for index in range(len(submissions)):
        report.attempted += 1
        outcome = outcomes.get(index)
        if outcome is None or "error" in outcome:
            report.fail(f"submission {index}: {outcome and outcome.get('error')}")
            continue
        record = records.get(outcome["id"], {})
        final = outcome["final"]
        if final is None or final.get("name") != "service.job.done" \
                or record.get("state") != "done":
            report.fail(f"submission {index}: job {outcome['id']} not done "
                        f"({record.get('state')}: {record.get('error')})")
            continue
        result = final["result"]
        report.jobs.append(outcome["window"])
        submit.append(outcome["submit_s"])
        queue_waits.append(record["started_at"] - record["submitted_at"])
        notify.append(outcome["seen_at"] - record["finished_at"])
        shards = result["shards"]
        total += shards["total"]
        cached += shards["cached"]
        runs = result.get("runs") or []
        if shards["failures"] or not runs or any(run["failures"] for run in runs):
            report.fail(f"submission {index}: degraded result {shards} runs={len(runs)}")
        identity = {
            "runs": [run["fingerprint"] for run in runs],
            "detail": result["detail"],
        }
        fingerprint = result["spec_fingerprint"]
        original = first_of.get(fingerprint)
        if original is None:
            first_of[fingerprint] = identity
            report.digest_material.append([fingerprint, identity])
        elif original != identity:
            report.fail(f"submission {index}: duplicate of {fingerprint[:12]} "
                        "computed different outputs")
    report.shards = total
    report.extra["service"] = {
        "submit_s": submit,
        "queue_wait_s": queue_waits,
        "notify_s": notify,
        "dedupe_ratio": cached / total if total else 0.0,
        "refused": refused[0],
    }


WORKLOADS: Dict[str, Callable] = {
    "capacity": run_capacity,
    "insertion-batch": run_insertion_batch,
    "service-mixed": run_service_mixed,
}


# ---------------------------------------------------------------------------
# traced run: layer wrappers and counters
# ---------------------------------------------------------------------------


def _sim_counts(machine) -> tuple:
    hierarchy = machine.hierarchy
    return (sum(level.stats.accesses for level in hierarchy.l1s),
            hierarchy.llc.stats.misses)


class LayerCounts:
    """Counters gathered by the traced run's hooks."""

    def __init__(self) -> None:
        self.accesses = 0
        self.llc_misses = 0
        self.store_rows = 0
        self.search_evals = 0
        self.registries: Dict[int, MetricsRegistry] = {}
        self.lock = threading.Lock()
        self.local = threading.local()


class _SimHook(tracing.Hook):
    """Simulated-access deltas around the outermost simulation call.

    ``machine_of(args)`` finds the machine whose own counters to read; the
    call nests (``run_trace`` may run a one-trial batch), so only the
    outermost call on a thread counts.
    """

    def __init__(self, counts: LayerCounts, machine_of: Callable):
        self.counts = counts
        self.machine_of = machine_of

    def before(self, args, kwargs):
        local = self.counts.local
        depth = getattr(local, "depth", 0)
        local.depth = depth + 1
        if depth:
            return None
        machine = self.machine_of(args)
        return (machine, _sim_counts(machine)) if machine is not None else None

    def after(self, state, args, kwargs, result):
        self.counts.local.depth -= 1
        if state is None:
            return
        machine, (accesses, misses) = state
        now_accesses, now_misses = _sim_counts(machine)
        with self.counts.lock:
            self.counts.accesses += now_accesses - accesses
            self.counts.llc_misses += now_misses - misses


class _BatchRunHook(tracing.Hook):
    """Remembers which machine the latest trial batch ran on."""

    def __init__(self, counts: LayerCounts):
        self.counts = counts

    def after(self, state, args, kwargs, result):
        machine = args[0] if args else kwargs.get("machine")
        self.counts.local.last_batch = (result, machine)


def _batch_machine(counts: LayerCounts):
    def machine_of(args):
        last = getattr(counts.local, "last_batch", None)
        if last is not None and last[0] is args[0]:
            return last[1]
        return None
    return machine_of


class _RegistryHook(tracing.Hook):
    """Collects each ``metrics=`` registry handed to a runner executor."""

    def __init__(self, counts: LayerCounts):
        self.counts = counts

    def before(self, args, kwargs):
        registry = kwargs.get("metrics")
        if registry is not None:
            with self.counts.lock:
                self.counts.registries[id(registry)] = registry


class _StoreHook(tracing.Hook):
    def __init__(self, counts: LayerCounts):
        self.counts = counts

    def after(self, state, args, kwargs, result):
        shards = args[2] if len(args) > 2 else kwargs.get("shards", ())
        with self.counts.lock:
            self.counts.store_rows += len(shards)


class _SearchHook(tracing.Hook):
    def __init__(self, counts: LayerCounts):
        self.counts = counts

    def after(self, state, args, kwargs, result):
        if result is not None:
            with self.counts.lock:
                self.counts.search_evals += result.evaluations_used


#: Modules importing wrapped functions by name, loaded before patching.
_ALIASING_MODULES = (
    "repro.experiments.capacity_sweep",
    "repro.experiments.insertion_sweep",
    "repro.search",
    "repro.search.objectives",
    "repro.service",
    "repro.service.exec",
)


def install_layer_wrappers(tracer: tracing.Tracer, counts: LayerCounts) -> None:
    """Wrap every layer boundary the per-layer metrics are named after."""
    import repro.engine.batch as engine_batch
    import repro.engine.compile as engine_compile
    import repro.runner.batchexec as batchexec
    import repro.runner.pool as pool
    import repro.runner.shard as shard
    import repro.runner.warmstart as warmstart
    import repro.service.backends as backends
    import repro.victims.noise as noise
    from repro.attacks.ntp_ntp import NTPNTPChannel
    from repro.attacks.prime_probe import PrimeProbeChannel
    from repro.mem.allocator import AddressSpace
    from repro.search.driver import SearchDriver
    from repro.sim.scheduler import Scheduler
    from repro.store import CampaignStore

    # Load every module that may alias a wrapped function first: a module
    # imported after patching would keep a wrapper that restore() misses.
    for name in _ALIASING_MODULES:
        importlib.import_module(name)
    registry_hook = _RegistryHook(counts)
    functions = [
        (shard, "make_shards", "runner.plan", None),
        (shard, "make_content_shards", "runner.plan", None),
        (pool, "run_shards", "runner.exec", registry_hook),
        (warmstart, "run_warm_shards", "runner.exec", registry_hook),
        (batchexec, "run_batch_shards", "runner.exec", registry_hook),
        (noise, "make_noise_lines", "victims.noise_lines", None),
        (engine_compile, "compile_trace", "engine.compile", None),
        (engine_batch, "run_trace_batch", "engine.batch", _BatchRunHook(counts)),
    ]
    for module, attr, name, hook in functions:
        tracer.wrap_function(module, attr, name, hook)
    methods = [
        (ResultCache, "get", "runner.cache.get", None),
        (ResultCache, "put", "runner.cache.put", None),
        (Machine, "__init__", "sim.machine", None),
        (Machine, "checkpoint", "sim.checkpoint", None),
        (Machine, "restore", "sim.restore", None),
        (Machine, "run_trace", "sim.run_trace",
         _SimHook(counts, lambda args: args[0])),
        (Scheduler, "run", "sim.scheduler",
         _SimHook(counts, lambda args: args[0].machine)),
        (engine_batch.BatchResult, "apply", "engine.batch.apply",
         _SimHook(counts, _batch_machine(counts))),
        (AddressSpace, "congruent_lines", "mem.congruent", None),
        (AddressSpace, "alloc_pages", "mem.alloc", None),
        (NTPNTPChannel, "__init__", "attacks.setup", None),
        (PrimeProbeChannel, "__init__", "attacks.setup", None),
        (NTPNTPChannel, "transmit", "attacks.transmit", None),
        (PrimeProbeChannel, "transmit", "attacks.transmit", None),
        (CampaignStore, "record_run", "store.record", _StoreHook(counts)),
        (SearchDriver, "run", "search.run", _SearchHook(counts)),
        (backends.LocalBackend, "run_job", "service.exec", None),
    ]
    for cls, attr, name, hook in methods:
        tracer.wrap_method(cls, attr, name, hook)


def _registry_totals(registries) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for registry in registries:
        for name, value in registry.as_dict()["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(report: Report, spans, counts: LayerCounts,
                  sampled: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    wall = report.phase_end - report.phase_start
    summary = tracing.layer_summary(spans, wall)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    c = _registry_totals(counts.registries.values())
    hits, misses = c.get("runner.cache.hits", 0), c.get("runner.cache.misses", 0)
    sim_s = sum(summary.get(n, {}).get("total_s", 0.0)
                for n in ("sim.scheduler", "sim.run_trace", "engine.batch"))
    metrics = {
        "runner.plan.calls": calls("runner.plan"),
        "runner.plan.self_s": self_s("runner.plan"),
        "runner.exec.self_s": self_s("runner.exec"),
        "runner.cache.put.calls": calls("runner.cache.put"),
        "runner.cache.put.self_s": self_s("runner.cache.put"),
        "runner.cache.get.calls": calls("runner.cache.get"),
        "runner.cache.get.self_s": self_s("runner.cache.get"),
        "runner.cache.hit_ratio": _ratio(hits, hits + misses),
        "runner.cache.lookups": hits + misses,
        "runner.shards.computed": c.get("runner.shards.computed", 0),
        "runner.shards.cached": c.get("runner.shards.cached", 0),
        "runner.retries": c.get("runner.retries", 0),
        "runner.failures": c.get("runner.failures", 0),
        "runner.store.errors": c.get("runner.store.errors", 0),
        "runner.checkpoint.restores_per_capture": _ratio(
            c.get("runner.checkpoint.restores", 0),
            c.get("runner.checkpoint.captures", 0)),
        "runner.batch.trials_per_batch": _ratio(
            c.get("runner.batch.trials", 0), c.get("runner.batch.batches", 0)),
        "runner.runtime.spawns": c.get("runner.runtime.spawns", 0),
        "runner.runtime.reuses": c.get("runner.runtime.reuses", 0),
        "runner.runtime.shm_bytes": c.get("runner.runtime.shm.bytes", 0),
        "sim.machine.calls": calls("sim.machine"),
        "sim.machine.self_s": self_s("sim.machine"),
        "sim.checkpoint.calls": calls("sim.checkpoint"),
        "sim.checkpoint.self_s": self_s("sim.checkpoint"),
        "sim.restore.calls": calls("sim.restore"),
        "sim.restore.self_s": self_s("sim.restore"),
        "sim.scheduler.calls": calls("sim.scheduler"),
        "sim.scheduler.self_s": self_s("sim.scheduler"),
        "sim.run_trace.calls": calls("sim.run_trace"),
        "sim.run_trace.self_s": self_s("sim.run_trace"),
        "sim.host_ns_per_access": _ratio(sim_s * 1e9, counts.accesses),
        "cache.accesses": counts.accesses,
        "cache.llc_misses": counts.llc_misses,
        "cache.self_s": sampled.get("cache", 0.0),
        "mem.congruent.calls": calls("mem.congruent"),
        "mem.congruent.self_s": self_s("mem.congruent"),
        "mem.alloc.self_s": self_s("mem.alloc"),
        "victims.noise_lines.self_s": self_s("victims.noise_lines"),
        "attacks.setup.self_s": self_s("attacks.setup"),
        "attacks.transmit.self_s": self_s("attacks.transmit"),
        "engine.compile.calls": calls("engine.compile"),
        "engine.compile.self_s": self_s("engine.compile"),
        "engine.batch.calls": calls("engine.batch"),
        "engine.batch.self_s": self_s("engine.batch"),
        "store.record.calls": calls("store.record"),
        "store.record.self_s": self_s("store.record"),
        "store.rows": counts.store_rows,
        "search.run.self_s": self_s("search.run"),
        "search.evals": counts.search_evals,
        "service.exec.self_s": self_s("service.exec"),
    }
    service = report.extra.get("service")
    if service:
        waits = service["queue_wait_s"] or [0.0]
        metrics.update({
            "service.submit_s": stats.percentile(service["submit_s"] or [0.0], 50),
            "service.queue_wait_p50_s": stats.percentile(waits, 50),
            "service.queue_wait_p90_s": stats.percentile(waits, 90),
            "service.notify_s": stats.percentile(service["notify_s"] or [0.0], 50),
            "service.dedupe_ratio": service["dedupe_ratio"],
            "service.refused": service["refused"],
        })
    else:
        metrics.update({name: 0.0 for name in (
            "service.submit_s", "service.queue_wait_p50_s",
            "service.queue_wait_p90_s", "service.notify_s",
            "service.dedupe_ratio", "service.refused")})
    top = [s for s in spans if s.name == "bench.job"]
    metrics["obs.top_span_coverage_pct"] = 100.0 * tracing.coverage(
        top, report.phase_start, report.phase_end)
    report.extra["layer_summary"] = summary
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: List[str]) -> int:
    probe = PROBE or hostspeed.HostProbe().start()
    inputs_path, out_path = argv[0], argv[1]
    trace_prefix = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    with open(inputs_path) as handle:
        inputs = json.load(handle)
    workload = inputs["workload"]
    report = Report(workload)
    tracer = counts = sampler = None
    if trace_prefix is not None:
        tracer = tracing.Tracer()
        counts = LayerCounts()
        install_layer_wrappers(tracer, counts)
        sampler = tracing.Sampler()
        sampler.start()
    try:
        WORKLOADS[workload](inputs, report, tracer)
    finally:
        probe.stop()
        if tracer is not None:
            sampler.stop()
            tracer.restore()
            left = tracing.leftover_wrappers()
            if left:
                report.fail(f"wrappers left after restore: {left}")
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out: Dict[str, Any] = {
        "workload": workload,
        "first_call": report.first_call,
        "phase_s": report.phase_end - report.phase_start,
        "phase_ref_s": probe.reference_seconds(report.phase_start, report.phase_end),
        "phase_cpu_s": report.cpu_end - report.cpu_start,
        "phase_sys_s": report.sys_end - report.sys_start,
        # Host speed over the part of set-up this interpreter can probe.
        "setup_speed": probe.speed(PROBE_START, report.phase_start),
        "setup_availability": probe.availability(PROBE_START, report.phase_start),
        "phase_speed": probe.speed(report.phase_start, report.phase_end),
        "phase_availability": probe.availability(report.phase_start, report.phase_end),
        "jobs": [probe.reference_seconds(start, end) for start, end in report.jobs],
        "jobs_raw": [end - start for start, end in report.jobs],
        "shards": report.shards,
        "attempted": report.attempted,
        "failed": len(report.errors),
        "errors": report.errors[:20],
        "digest": digest(report.digest_material),
        "rss_mb": max(self_rss, child_rss) / 1024.0,
        "table2_err_pct": report.extra.get("table2_err_pct"),
        "peaks": report.extra.get("peaks"),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(report, tracer.spans, counts, sampler.seconds)
        out["spans"] = len(tracer.spans)
        tracing.export_chrome(tracer.spans, trace_prefix + ".trace.json")
        with open(trace_prefix + ".summary.json", "w") as handle:
            json.dump({"workload": workload, "wall_s": out["phase_s"],
                       "layers": report.extra["layer_summary"],
                       "sampled_self_s": sampler.seconds,
                       "metrics": out["layers"]}, handle, indent=2, sort_keys=True)
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
