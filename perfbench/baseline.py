"""Record the benchmark's baseline and check its run-to-run spread.

Run from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 --heldout 1000 --out perfbench/baseline.json

For every workload it runs ``run.py`` once per seed with tracing off and
reports, per end-to-end metric, the median, quartiles, sample count and
spread (interquartile distance over the median), next to a third of the
metric's bound in ``BENCHMARK.json`` — the steadiness target.  It then
makes one traced run (the first seed) for the per-layer breakdown and one
run on the held-out seed, whose output checks must pass as well.  With
``--out`` everything is written as JSON together with a description of
the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


#: How to read the recorded numbers, and why some per-layer metrics read 0.
NOTES = {
    "time_metrics": "Times and rates are in reference seconds: wall seconds "
                    "scaled by the speed of a fixed probe loop timed every "
                    "10 ms in the workload process and by the share of the "
                    "CPU time wanted that the hypervisor did not steal "
                    "(/proc/stat, over at least a second; hostspeed.py).  "
                    "On the 2-vCPU host the baseline was recorded on, that "
                    "loop and the workloads ran up to half slower from one "
                    "minute to the next, and process CPU time moved with "
                    "wall time, so neither wall nor CPU time could hold a "
                    "bound; in bursts of steal the service lost up to a "
                    "third of its wanted CPU time and its job latencies "
                    "grew by as much while the probe loop did not slow.  "
                    "What remains is drift neither sees.  Rates and job "
                    "percentiles pool all iterations of a run; set-up time "
                    "and peak memory are medians over them.",
    "service_layout": "On service-mixed the seed draws the specs' simulation "
                      "seeds only.  Which submissions are first runs and "
                      "which earlier spec each duplicate repeats is the "
                      "same for every seed, because it decides which jobs "
                      "queue behind a computed one and so the tail "
                      "latency.",
    "jobs": "A job is one service job on service-mixed.  The sweep workloads "
            "have no job queue: a job there is one iteration's whole command "
            "(every sweep of the iteration).  There jobs_per_s is "
            "shards_per_s divided by the fixed shard count of an iteration, "
            "and job_p50_s/job_p90_s are nearest-rank percentiles of the "
            "run's handful of iteration times (p90 is the slowest), so they "
            "duplicate shards_per_s and no percentile has ten samples "
            "beyond it.  They are reported because every run must report "
            "every end-to-end metric.",
    "table2_err_pct": "Mean absolute % error of the four simulated Table II "
                      "peaks against the paper (302/275/86/81 KB/s).  It is "
                      "printed by every capacity run but is not a gated "
                      "metric: it is deterministic per seed yet ranges from "
                      "about 3% to 17% over seeds 1-10, wider than any bound "
                      "the benchmark may set.  The output digest pins it "
                      "exactly.",
    "zeros": "Per-layer metrics of a layer a workload does not call read 0 "
             "(for example engine.batch.* on capacity, sim.scheduler.* on "
             "insertion-batch, service.* outside service-mixed).",
    "cache.self_s": "Cache-hierarchy methods run once per simulated access and "
                    "are not wrapped; their self time is estimated by a 1 ms "
                    "wall-clock sampler that charges each thread's innermost "
                    "repro.cache frame.  It is part of sim.scheduler.self_s.",
    "cache.accesses": "L1 lookups (hits + misses over every core) made inside "
                      "Scheduler.run, Machine.run_trace and trial-batch "
                      "results, read from the machines' own counters; the "
                      "accesses of channel calibration are not counted.",
    "spans": "Spans are recorded in the benchmark's own process only.  The "
             "small capacity jobs of service-mixed run their shards on two "
             "pool workers, so their scheduler and channel time shows up as "
             "runner.exec.self_s (waiting on the pool).",
    "obs.trace_overhead_pct": "Fastest traced minus fastest untraced measured "
                              "phase in reference seconds, of two each; host "
                              "noise can make it negative.",
    "digests": "Inputs come from the seed modulo 64; digests.json holds the "
               "output digest of all 64 input variants of every workload, "
               "and a run whose variant has none fails its check.  The "
               "held-out seed 1000 is variant 40, outside seeds 1-10.",
    "files": "Runs keep their cache and store files (under .perfbench_out/) "
             "until those hold over 3 GiB: on ext4 without a journal, "
             "deleting them made the next runs' cache writes ten times "
             "slower (run.py finish_run_dir).",
}


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = time.monotonic() - start
    for line in lines:
        if line.strip().startswith("table2_err_pct"):
            result["table2_err_pct"] = float(line.split()[2])
    return result


def machine_description() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--heldout", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    baseline: Dict[str, Any] = {
        "notes": NOTES,
        "machine": machine_description(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in names:
        runs = []
        for seed in seeds:
            result = bench_run(workload, seed, seconds, 0)
            result["seed"] = seed
            print(f"{workload} seed {seed}: {result['run_s']:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            runs.append(result)
        table2 = {r["seed"]: r["table2_err_pct"] for r in runs if "table2_err_pct" in r}
        entry: Dict[str, Any] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s_max": max(r["run_s"] for r in runs),
            "end_to_end": {},
        }
        if table2:
            entry["table2_err_pct_by_seed"] = table2
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary = stats.summary(values)
            summary["unit"] = metric["unit"]
            summary["target"] = metric["bound"] / 3
            entry["end_to_end"][metric["name"]] = summary
            ok = summary["spread"] < summary["target"]
            steady &= ok
            print(f"  {metric['name']:<14} median {summary['median']:.5g} "
                  f"q1 {summary['q1']:.5g} q3 {summary['q3']:.5g} "
                  f"spread {summary['spread']:.3f} (target < {summary['target']:.3f})"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        traced = bench_run(workload, seeds[0], seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        if args.heldout is not None:
            held = bench_run(workload, args.heldout, seconds, 0)
            entry["heldout"] = {
                "seed": args.heldout, "correct": held["correct"],
                "attempted": held["attempted"], "failed": held["failed"],
                "metrics": {k: v["value"] for k, v in held["metrics"].items()},
            }
            print(f"  held-out seed {args.heldout}: correct={held['correct']} "
                  f"failed={held['failed']}", flush=True)
        baseline["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
