"""End-to-end benchmark of the Leaky Way reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``capacity`` — cold Figure 8 / Table II capacity sweeps, both channels on
  both platforms over the full interval grids (warm start, ``jobs=1``,
  result cache and campaign store on).
* ``insertion-batch`` — cold Figure 2 sweeps on the trial-batched engine,
  one per platform (``jobs=1``, cache and store on).
* ``service-mixed`` — an in-process sweep service with one dispatch worker,
  driven by a closed loop of two client threads over a seeded mix of small
  capacity, insertion and search specs, two thirds of them duplicates.

The inputs are generated here from ``--seed``; each iteration runs them in
a fresh interpreter (``workload.py``) whose environment pins the result
cache, campaign store, engine and runtime to a new directory.  Iterations
repeat until ``--seconds`` have passed.  Times are in reference seconds
(``hostspeed.py``): wall seconds scaled by the host speed that a probe
thread measured over the same interval in the same process and by the
share of the CPU time wanted that the hypervisor did not steal, because
the shared host's speed drifts by a quarter or more from minute to minute.
Rates are totals over the measured phases of all iterations and job
latencies are pooled over them; set-up time and peak memory are medians
over the iterations.  A job is one service job on ``service-mixed``; the
sweep workloads have no job queue, so there a job is one iteration's whole
command (all of its sweeps, as ``repro table2`` or ``repro fig2-sweep``
would run them on both platforms), and ``jobs_per_s`` is a fixed multiple
of ``shards_per_s``.  The wall-clock equivalents go to standard error.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced iterations on the same inputs
and prints every per-layer metric, writing the traced spans as Chrome
trace-event JSON (and a per-layer summary beside it) under
``.perfbench_out/trace/``.

Every run checks the simulated outputs: all iterations must produce the
same digest, equal to the one recorded in ``perfbench/digests.json`` for
the seed's input variant (the seed modulo ``INPUT_VARIANTS``; a variant
with no recorded digest fails the check), and the paper-shape checks must
hold.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("capacity", "insertion-batch", "service-mixed")
PLATFORMS = ("skylake", "kaby-lake")
CHANNELS = ("ntp+ntp", "prime+probe")

#: Bits per capacity-sweep point: enough for a stable BER at the peak while
#: one iteration (four full-grid sweeps) stays near five seconds.
CAPACITY_BITS = 128
#: Trials per insertion position (one full 64-trial batch per position).
INSERTION_TRIALS = 64
#: Service submissions per iteration; two iterations give >= 100 jobs.
SERVICE_SUBMISSIONS = 60
SERVICE_CLIENTS = 2
SERVICE_DISPATCH_WORKERS = 1
#: Distinct specs per iteration; the other two thirds of the submissions
#: repeat an earlier spec.  Fixed counts (and a fixed mix of kinds) keep the
#: work per iteration the same for every seed.
SERVICE_DISTINCT = SERVICE_SUBMISSIONS // 3
#: Intervals of the small NTP+NTP capacity specs.
SERVICE_INTERVALS = [1800, 1400, 1250]

#: Inputs are made from the seed modulo this many variants.  The output
#: digest of every variant is recorded in ``digests.json``, so every run is
#: checked against a recorded digest, whatever its seed.
INPUT_VARIANTS = 64

#: At least this many set-ups (fresh interpreters) per run.
MIN_ITERATIONS = 4
#: Service jobs the iterations of a run must hold, so that p90
#: has at least ten samples beyond it.
MIN_SERVICE_JOBS = 100
#: Untraced/traced iteration pairs in a traced run.
TRACE_PAIRS = 2
#: No iteration starts that is expected to end after this many seconds.
HARD_LIMIT_S = 150.0

OUT_DIR = ".perfbench_out"
#: Finished runs are kept until their iterations hold more than this.
KEEP_BYTES = 3 << 30
DIGESTS = os.path.join(HERE, "digests.json")


class BenchError(Exception):
    """The benchmark could not run (not a measured failure)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _service_spec(rng: random.Random, n: int) -> Dict[str, Any]:
    """The ``n``-th distinct spec: kinds, platforms and strategies rotate."""
    platform = PLATFORMS[(n // 3) % len(PLATFORMS)]
    spec: Dict[str, Any] = {"platform": platform, "seed": rng.randrange(1 << 16)}
    kind = n % 3
    if kind == 0:
        spec.update(experiment="capacity", jobs=2, params={
            "channel": "ntp+ntp", "intervals": SERVICE_INTERVALS, "n_bits": 64})
    elif kind == 1:
        spec.update(experiment="insertion", engine="soa", params={"trials": 4})
    else:
        strategy = ("halving", "bandit")[(n // 3) % 2]
        spec.update(experiment="search", params={
            "objective": "toy-cliff", "strategy": strategy, "budget": 16})
    return spec


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Everything a workload iteration runs, generated from ``seed`` alone."""
    seed %= INPUT_VARIANTS
    if workload == "capacity":
        return {"workload": workload, "jobs": [
            {"platform": platform, "channel": channel, "machine_seed": seed,
             "seed": seed, "n_bits": CAPACITY_BITS}
            for platform in PLATFORMS for channel in CHANNELS
        ]}
    if workload == "insertion-batch":
        return {"workload": workload, "jobs": [
            {"platform": platform, "machine_seed": seed, "seed": seed,
             "trials": INSERTION_TRIALS}
            for platform in PLATFORMS
        ]}
    if workload == "service-mixed":
        # The seed draws the specs' simulation seeds.  Where the first
        # submission of each spec falls, and which earlier spec each
        # duplicate repeats, is the same for every seed: which jobs queue
        # behind a computed one sets the tail latency, and drawing that
        # from the seed made job_p90_s differ by a tenth from seed to seed.
        rng = random.Random(f"service-mixed/{seed}")
        layout = random.Random("service-mixed/layout")
        fresh = {0, 1, 2} | set(layout.sample(range(3, SERVICE_SUBMISSIONS),
                                              SERVICE_DISTINCT - 3))
        distinct: List[Dict[str, Any]] = []
        submissions: List[Dict[str, Any]] = []
        for index in range(SERVICE_SUBMISSIONS):
            if index in fresh:
                distinct.append(_service_spec(rng, len(distinct)))
                submissions.append(distinct[-1])
            else:
                # Duplicates rotate over the kinds too, so their mix is fixed.
                kind = (index - len(distinct)) % 3
                submissions.append(layout.choice(distinct[kind::3]))
        return {"workload": workload, "submissions": submissions,
                "clients": SERVICE_CLIENTS,
                "dispatch_workers": SERVICE_DISPATCH_WORKERS}
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------


def _pinned_env(root: str, work: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "REPRO_STORE": os.path.join(work, "store.sqlite"),
        "REPRO_CACHE_DIR": os.path.join(work, "cache"),
        "REPRO_ENGINE": "object",
        "REPRO_RUNTIME": "fresh",
    })
    return env


def _run_child(cmd: List[str], root: str, env: Dict[str, str],
               timeout: float) -> None:
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s")
    if code != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with code {code}")


def run_iteration(root: str, run_dir: str, index: int, inputs_path: str,
                  timeout: float, trace_prefix: Optional[str] = None) -> Dict[str, Any]:
    """One fresh-interpreter iteration; returns its report with its set-up time."""
    work = os.path.join(run_dir, f"iter{index}")
    os.makedirs(work)
    out = os.path.join(run_dir, f"iter{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), inputs_path, out]
    if trace_prefix is not None:
        cmd += ["--trace", trace_prefix]
    # Flush the previous iteration's writes so their write-back does not
    # run during this iteration's measured phase.
    os.sync()
    launch = time.monotonic()
    _run_child(cmd, root, _pinned_env(root, work), timeout)
    with open(out) as handle:
        report = json.load(handle)
    report["setup_raw_s"] = report["first_call"] - launch
    speed = report["setup_speed"] or report["phase_speed"] or 1.0
    report["setup_ref_s"] = (report["setup_raw_s"] * speed
                             * report["setup_availability"])
    report["trace_prefix"] = trace_prefix
    return report


def disk_bytes(path: str) -> int:
    """Bytes allocated to the files under ``path``."""
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_blocks * 512
            except OSError:
                pass
    return total


def finish_run_dir(run_dir: str) -> None:
    """Record a finished run's size; its files stay until pruned.

    The files are not deleted after each run on purpose.  On ext4 without
    a journal, a new inode is never one freed within the last minutes, and
    finding one scans past all of them.  When each run deleted its 16000
    cache files, a cache write of the next insertion-batch run cost about
    0.5 ms of system time instead of 0.05 ms: an iteration's system time
    grew from 0.2 s to 1.5 s over consecutive runs and came back only after
    a minute or more of idling, and shards_per_s fell by a third.
    """
    with open(os.path.join(run_dir, "SIZE"), "w") as handle:
        handle.write(str(disk_bytes(run_dir)))


def prune_old_runs() -> None:
    """Delete every earlier run once they hold over ``KEEP_BYTES`` together.

    Runs that never finished (no ``SIZE``) are measured.  The run that
    prunes pays the slower file creation described above; with the bound
    that is about one insertion-batch run (120 MB) in twenty-five.
    """
    try:
        names = os.listdir(OUT_DIR)
    except FileNotFoundError:
        return
    runs = []
    for name in names:
        path = os.path.join(OUT_DIR, name)
        if not name.startswith("run-") or not os.path.isdir(path):
            continue
        try:
            with open(os.path.join(path, "SIZE")) as handle:
                size = int(handle.read())
        except (OSError, ValueError):
            size = disk_bytes(path)
        runs.append((size, path))
    if sum(size for size, _ in runs) <= KEEP_BYTES:
        return
    for _, path in runs:
        shutil.rmtree(path, ignore_errors=True)
    os.sync()


def cli_import_seconds(root: str, work: str, repeats: int = 5) -> float:
    """Median seconds of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    env = _pinned_env(root, work)
    times = []
    for _ in range(repeats):
        result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                capture_output=True, text=True, timeout=60)
        if result.returncode != 0:
            raise BenchError(f"import repro.cli failed: {result.stderr[-500:]}")
        times.append(float(result.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    try:
        with open(DIGESTS) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed % INPUT_VARIANTS))


def output_checks(workload: str, seed: int,
                  reports: List[Dict[str, Any]]) -> List[str]:
    """Cross-iteration output checks; returns the failures."""
    failures = []
    digests = sorted({r["digest"] for r in reports})
    if len(digests) != 1:
        failures.append(f"iterations disagree on the output digest: {digests}")
    expected = recorded_digest(workload, seed)
    if expected is None:
        failures.append(f"no digest recorded for {workload} input variant "
                        f"{seed % INPUT_VARIANTS}")
    elif expected not in digests or len(digests) != 1:
        failures.append(f"digest {digests} differs from the recorded {expected}")
    return failures


def end_to_end_metrics(reports: List[Dict[str, Any]],
                       wall: bool = False) -> Dict[str, float]:
    """Metrics over all iterations, in reference seconds (or wall seconds)."""
    phase, jobs, setup = (("phase_s", "jobs_raw", "setup_raw_s") if wall
                          else ("phase_ref_s", "jobs", "setup_ref_s"))
    latencies = [t for r in reports for t in r[jobs]]
    if not latencies:
        raise BenchError("no job completed")
    phase_s = sum(r[phase] for r in reports)
    return {
        "setup_s": statistics.median(r[setup] for r in reports),
        "shards_per_s": sum(r["shards"] for r in reports) / phase_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
        "job_p50_s": stats.percentile(latencies, 50),
        "job_p90_s": stats.percentile(latencies, 90),
        "jobs_per_s": len(latencies) / phase_s,
    }


def _account(reports: List[Dict[str, Any]], check_failures: List[str],
             checks: int) -> tuple:
    """(attempted, failed) over the iterations' operations plus run checks."""
    for report in reports:
        for error in report["errors"]:
            log(f"FAILED: {error}")
    for failure in check_failures:
        log(f"FAILED: {failure}")
    attempted = sum(r["attempted"] for r in reports) + checks
    failed = sum(r["failed"] for r in reports) + len(check_failures)
    return attempted, failed


def _emit(metric_specs: List[Dict[str, Any]], values: Dict[str, float],
          correct: bool, attempted: int, failed: int) -> None:
    metrics = {}
    for spec in metric_specs:
        if spec["name"] not in values:
            raise BenchError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"  {spec['name']:<40} {values[spec['name']]:>14.6g} {spec['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="run one iteration and record its output digest "
                             "for this seed's input variant in "
                             "perfbench/digests.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        raise BenchError("run from the root of a checkout: src/repro is missing")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)

    run_dir = os.path.abspath(os.path.join(
        OUT_DIR, f"run-{args.workload}-s{args.seed}-{os.getpid()}"))
    prune_old_runs()
    os.makedirs(run_dir)
    run = Run(args, root, run_dir, bench)
    try:
        if args.record_digest:
            return record_digest(run)
        if args.trace:
            return traced_run(run)
        return measured_run(run)
    finally:
        finish_run_dir(run_dir)


class Run:
    """One benchmark invocation: its arguments, inputs and time budget."""

    def __init__(self, args, root: str, run_dir: str, bench: Dict[str, Any]):
        self.args = args
        self.root = root
        self.run_dir = run_dir
        self.bench = bench
        self.started = time.monotonic()
        self.inputs_path = os.path.join(run_dir, "inputs.json")
        with open(self.inputs_path, "w") as handle:
            json.dump(make_inputs(args.workload, args.seed), handle)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def iteration(self, index: int, trace_prefix: Optional[str] = None) -> Dict[str, Any]:
        return run_iteration(self.root, self.run_dir, index, self.inputs_path,
                             HARD_LIMIT_S + 20 - self.elapsed(), trace_prefix)


def record_digest(run: Run) -> int:
    """Run one iteration and record its output digest for this seed."""
    report = run.iteration(0)
    if report["failed"]:
        raise BenchError(f"iteration failed: {report['errors']}")
    try:
        with open(DIGESTS) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    variant = run.args.seed % INPUT_VARIANTS
    table.setdefault(run.args.workload, {})[str(variant)] = report["digest"]
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    log(f"recorded {run.args.workload} input variant {variant}: {report['digest']}")
    return 0


def measured_run(run: Run) -> int:
    """Untraced iterations until the time budget is spent; end-to-end metrics."""
    args = run.args
    reports: List[Dict[str, Any]] = []
    while True:
        reports.append(run.iteration(len(reports)))
        last = reports[-1]
        log(f"iteration {len(reports) - 1}: setup {last['setup_raw_s']:.3f} s, "
            f"phase {last['phase_s']:.3f} s (cpu {last['phase_cpu_s']:.3f} s, "
            f"of it system {last['phase_sys_s']:.3f} s), "
            f"host speed {last['phase_speed'] or 0:.3f}, "
            f"availability {last['phase_availability']:.3f}, "
            f"phase {last['phase_ref_s']:.3f} reference s")
        elapsed = run.elapsed()
        jobs = sum(len(r["jobs"]) for r in reports)
        enough = (elapsed >= args.seconds and len(reports) >= MIN_ITERATIONS
                  and (args.workload != "service-mixed" or jobs >= MIN_SERVICE_JOBS))
        if enough or elapsed * (len(reports) + 1) / len(reports) > HARD_LIMIT_S:
            break

    failures = output_checks(args.workload, args.seed, reports)
    attempted, failed = _account(reports, failures, checks=1)
    values = end_to_end_metrics(reports)
    wall = end_to_end_metrics(reports, wall=True)
    log("wall-clock equivalents: " + ", ".join(
        f"{name} {value:.6g}" for name, value in wall.items()))
    latencies = [t for r in reports for t in r["jobs"]]
    tail = stats.tail_percentile(len(latencies))
    print(f"{args.workload} seed {args.seed}: {len(reports)} iterations, "
          f"{len(latencies)} jobs, {sum(r['shards'] for r in reports)} shards; "
          f"times in reference seconds; highest percentile with "
          f">= {stats.MIN_SAMPLES_BEYOND} samples beyond it: "
          f"{'p%g' % tail if tail else 'none'}")
    if reports[0].get("table2_err_pct") is not None:
        print(f"  {'table2_err_pct (simulated)':<40} "
              f"{reports[0]['table2_err_pct']:>14.6g} %  peaks {reports[0]['peaks']}")
    _emit(run.bench["end_to_end"], values, not failed, attempted, failed)
    return 0


def traced_run(run: Run) -> int:
    """Alternating untraced and traced iterations; prints per-layer metrics.

    Per-layer metrics come from the faster traced iteration; the tracing
    overhead compares the fastest traced and untraced measured phases.
    """
    args = run.args
    trace_dir = os.path.abspath(os.path.join(OUT_DIR, "trace"))
    os.makedirs(trace_dir, exist_ok=True)
    prefix = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}")
    import_s = cli_import_seconds(run.root, run.run_dir)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    for pair in range(TRACE_PAIRS):
        plain.append(run.iteration(2 * pair))
        traced.append(run.iteration(2 * pair + 1, trace_prefix=f"{prefix}-{pair}"))
    best = min(traced, key=lambda r: r["phase_ref_s"])
    reports = plain + traced
    failures = output_checks(args.workload, args.seed, reports)
    coverage = best["layers"]["obs.top_span_coverage_pct"]
    if coverage < 95.0:
        failures.append(f"top-level spans cover only {coverage:.1f}% of wall time")
    attempted, failed = _account(reports, failures, checks=2)
    values = dict(best["layers"])
    values["cli.import_s"] = import_s
    fastest_plain = min(r["phase_ref_s"] for r in plain)
    values["obs.trace_overhead_pct"] = (
        100.0 * (best["phase_ref_s"] - fastest_plain) / fastest_plain)
    print(f"{args.workload} seed {args.seed}: traced {best['spans']} spans; "
          f"trace {best['trace_prefix']}.trace.json, "
          f"summary {best['trace_prefix']}.summary.json")
    _emit(run.bench["per_layer"], values, not failed, attempted, failed)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
