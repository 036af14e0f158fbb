"""SoA backend speedup gate: >= 3x over the object engine.

The struct-of-arrays backend exists for exactly one reason — replaying
channel-shaped traces faster than per-op dispatch through the object
hierarchy — so this benchmark gates the claim on the workload that
matters: an NTP+NTP transmit loop (receiver eviction-set walks and
PREFETCHNTA probes, sender PREFETCHNTA plus CLFLUSH re-arm, the
``attacks/ntp_ntp.py`` recipe).  Both backends replay the *same* compiled
trace; the differential suites (``tests/engine/``) pin the outputs to
bit-identical, so everything measured here is pure execution cost.

Timing uses best-of-N interleaved rounds per backend: noise and scheduler
drift only ever add time, so the minima are each backend's cleanest
measurement (same reasoning as the instrumentation-overhead gate).  One
replay of the trace takes the soa backend only ~20 ms, short enough that
a single preempted slice or frequency step moves the ratio by a third;
so each timed sample replays the trace as many times as it takes the soa
side to run for at least ``MIN_SAMPLE_SECONDS``, on both twins alike.
"""

import gc
import math
import time

from conftest import artifact, report

from repro.config import SKYLAKE
from repro.engine import compile_trace
from repro.sim.machine import Machine

TRIALS = 200
ROUNDS = 7
#: Shortest timed sample on the (faster) soa side.
MIN_SAMPLE_SECONDS = 0.2
SPEEDUP_GATE = 3.0


def _transmit_trace(machine) -> list:
    """One NTP+NTP transmit session as a flat (op, core, addr) trace."""
    space = machine.address_space("bench")
    evset = space.contiguous_lines(16)
    dr = space.contiguous_lines(1)[0]
    ds = space.contiguous_lines(1)[0]
    ops = []
    for _ in range(TRIALS):
        # Receiver primes the target set with two eviction-set walks.
        for _ in range(2):
            ops += [("load", 0, a) for a in evset]
        # Probe + sender transmit via PREFETCHNTA.
        ops.append(("prefetchnta", 0, dr))
        ops.append(("prefetchnta", 1, ds))
        # Re-arm: flush the walked lines, touch most of them back in.
        ops += [("clflush", 0, a) for a in evset]
        for a in evset[:15]:
            ops += [("load", 0, a), ("load", 0, a)]
        ops.append(("prefetchnta", 0, dr))
    return ops


def _elapsed(machine, trace, backend, replays) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(replays):
            machine.run_trace(trace, backend=backend)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _measure() -> dict:
    obj = Machine(SKYLAKE, seed=7)
    soa = Machine(SKYLAKE, seed=7)
    trace = _transmit_trace(obj)
    _transmit_trace(soa)  # mirror the allocations; machines stay twins
    compiled = compile_trace(soa, trace)
    # Warm-up (set allocation, memo fill, plane construction), then one
    # timed soa replay to size the samples.  The twins replay the same
    # trace equally often throughout, so their states stay equal.
    for _ in range(2):
        obj.run_trace(trace, backend="object")
    soa.run_trace(compiled, backend="soa")
    soa_once = _elapsed(soa, compiled, "soa", 1)
    replays = max(1, math.ceil(MIN_SAMPLE_SECONDS / soa_once))
    obj_times = []
    soa_times = []
    for round_index in range(ROUNDS):
        if round_index % 2:
            soa_times.append(_elapsed(soa, compiled, "soa", replays))
            obj_times.append(_elapsed(obj, trace, "object", replays))
        else:
            obj_times.append(_elapsed(obj, trace, "object", replays))
            soa_times.append(_elapsed(soa, compiled, "soa", replays))
    obj_best = min(obj_times)
    soa_best = min(soa_times)
    n = len(trace) * replays
    return {
        "workload": "ntp+ntp transmit",
        "trials": TRIALS,
        "trace_length": len(trace),
        "replays_per_sample": replays,
        "rounds": ROUNDS,
        "object_ops_per_sec": n / obj_best,
        "soa_ops_per_sec": n / soa_best,
        "speedup": obj_best / soa_best,
        "gate": SPEEDUP_GATE,
    }


def test_soa_speedup(once):
    result = once(_measure)
    artifact("soa_speedup", result)
    report(
        "SoA backend speedup — compiled NTP+NTP transmit trace vs object "
        f"engine (gate: >= {SPEEDUP_GATE}x, bit-identical results)",
        f"object: {result['object_ops_per_sec']:,.0f} ops/s\n"
        f"soa:    {result['soa_ops_per_sec']:,.0f} ops/s\n"
        f"speedup: {result['speedup']:.2f}x "
        f"(best-of-{result['rounds']} interleaved rounds, "
        f"{result['replays_per_sample']} x {result['trace_length']:,} "
        "ops/sample)",
    )
    assert result["speedup"] >= SPEEDUP_GATE
