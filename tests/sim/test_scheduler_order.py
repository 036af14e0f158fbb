"""Differential test: the scheduler's run loop against its reference.

:meth:`Scheduler.run` dispatches inline and keeps a process running
while its clock stays strictly below every queued one.
``ReferenceScheduler`` below keeps the straightforward form those
replace: one heap push and pop per op and ``_execute`` per op.  Random
programs on several cores, with equal-time ties,
waits, sleeps, timed ops and a time horizon, must execute the same ops in
the same global order, at the same times, with the same results.
"""

import heapq
import random

import pytest

from repro.config import SKYLAKE
from repro.errors import SimulationError
from repro.sim.machine import Machine
from repro.sim.process import (
    Clflush,
    Load,
    PrefetchNTA,
    PrefetchT0,
    ReadTSC,
    Sleep,
    StreamClflush,
    StreamLoad,
    TimedLoad,
    TimedPrefetchNTA,
    WaitUntil,
)
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder


class ReferenceScheduler(Scheduler):
    """The run loop and op handlers in their one-push-per-op form."""

    def _execute(self, proc, op):
        core = self.machine.cores[proc.core_id]
        latency = self.machine.config.latency
        mlp = max(1, latency.stream_mlp)
        kind = type(op)
        if kind is Load:
            result = core.load(op.addr, at=proc.time)
            proc.time += result.latency
        elif kind is TimedLoad:
            result = core.timed_load(op.addr, at=proc.time)
            proc.time += result.cycles
        elif kind is PrefetchNTA:
            result = core.prefetchnta(op.addr, at=proc.time)
            proc.time += latency.prefetch_issue
        elif kind is TimedPrefetchNTA:
            result = core.timed_prefetchnta(op.addr, at=proc.time)
            proc.time += result.cycles
        elif kind is PrefetchT0:
            result = core.prefetcht0(op.addr, at=proc.time)
            proc.time += result.latency
        elif kind is Clflush:
            result = core.clflush(op.addr, at=proc.time)
            proc.time += result.latency
        elif kind is StreamClflush:
            result = core.clflush(op.addr, at=proc.time)
            proc.time += max(1, result.latency // mlp)
        elif kind is StreamLoad:
            result = core.load(op.addr, at=proc.time)
            proc.time += max(1, result.latency // mlp)
        elif kind is WaitUntil:
            proc.time = max(proc.time, op.time)
            result = proc.time
        elif kind is ReadTSC:
            result = proc.time
            proc.time += latency.measure_overhead // 2
        elif kind is Sleep:
            if op.cycles < 0:
                raise SimulationError(f"negative sleep from {proc.name!r}")
            proc.time += op.cycles
            result = None
        else:
            raise SimulationError(f"{proc.name!r} yielded unknown op {op!r}")
        return result

    def run(self, until=None):
        execute = self._execute
        heap = []
        for proc in self.processes:
            if not proc.finished:
                heapq.heappush(heap, (proc.time, next(self._counter), proc, None))
        while heap:
            time, _, proc, send_value = heapq.heappop(heap)
            if until is not None and time > until:
                proc.program.close()
                proc.finished = True
                continue
            try:
                op = proc.program.send(send_value)
            except StopIteration as stop:
                proc.finished = True
                proc.result = stop.value
                continue
            result = execute(proc, op)
            heapq.heappush(heap, (proc.time, next(self._counter), proc, result))
        latest = max((p.time for p in self.processes), default=0)
        self.machine.clock = max(self.machine.clock, latest)


N_PROCESSES = 4
OPS_PER_PROCESS = 150


def _random_ops(rng, lines, n_ops):
    """A random op sequence biased towards equal-time ties."""
    ops = []
    for _ in range(n_ops):
        kind = rng.randrange(12)
        addr = rng.choice(lines)
        if kind == 0:
            ops.append(Load(addr))
        elif kind == 1:
            ops.append(TimedLoad(addr))
        elif kind == 2:
            ops.append(PrefetchNTA(addr))
        elif kind == 3:
            ops.append(TimedPrefetchNTA(addr))
        elif kind == 4:
            ops.append(PrefetchT0(addr))
        elif kind == 5:
            ops.append(Clflush(addr))
        elif kind == 6:
            ops.append(StreamClflush(addr))
        elif kind == 7:
            ops.append(StreamLoad(addr))
        elif kind == 8:
            ops.append(ReadTSC())
        elif kind == 9:
            ops.append(Sleep(rng.choice((0, 0, 1, 35, 200))))
        else:
            # Shared slot boundaries line several processes up at one time.
            ops.append(WaitUntil(rng.randrange(0, 60_000, 2_000)))
    return ops


def _run(scheduler_cls, seed, until, trace=False):
    """Run the seeded programs; returns the op log, processes and machine."""
    machine = Machine(SKYLAKE, seed=seed)
    rng = random.Random(seed)
    space = machine.address_space("shared")
    target = space.lines_with_offset(0, count=1)[0]
    # Mostly one LLC set (evictions, busy lines) plus a few stray lines.
    lines = [target] + machine.llc_eviction_set(space, target, size=20)
    lines += space.lines_with_offset(64, count=4)
    log = []
    scheduler = scheduler_cls(machine)
    procs = []

    def program(index, ops):
        proc = procs[index]
        received = []
        for op in ops:
            log.append((proc.name, op, proc.time))
            result = yield op
            log.append((proc.name, result))
            received.append(result)
        return proc.time, received[-3:]

    for index in range(N_PROCESSES):
        ops = _random_ops(rng, lines, OPS_PER_PROCESS)
        start = rng.choice((0, 0, 500))
        procs.append(scheduler.spawn(f"p{index}", index, program(index, ops), start))
    recorder = None
    if trace:
        recorder = TraceRecorder(machine, watch=[target]).attach(scheduler)
    scheduler.run(until=until)
    if recorder is not None:
        recorder.detach()
    return log, procs, machine, recorder


def _outcome(log, procs, machine):
    cores = [
        (c.memory_references, c.flushes, c.llc_references, c.llc_misses)
        for c in machine.cores
    ]
    states = [(p.finished, p.time, p.result) for p in procs]
    return log, states, cores, machine.clock


@pytest.mark.parametrize("until", [None, 20_000, 45_000])
@pytest.mark.parametrize("seed", range(4))
def test_run_matches_reference_order(seed, until):
    ref = _run(ReferenceScheduler, seed, until)[:3]
    new = _run(Scheduler, seed, until)[:3]
    assert len(ref[0]) > 0
    if until is not None:
        # The horizon really cut some program short.
        assert any(p.result is None for p in ref[1])
    assert _outcome(*new) == _outcome(*ref)


@pytest.mark.parametrize("seed", range(2))
def test_traced_run_matches_reference_and_sees_every_op(seed):
    """An attached recorder routes every op through its hook, in order."""
    ref = _run(ReferenceScheduler, seed, None)[:3]
    log, procs, machine, recorder = _run(Scheduler, seed, None, trace=True)
    assert _outcome(log, procs, machine) == _outcome(*ref)
    mapping = machine.hierarchy.llc_mapping
    watched = mapping.flat_index(recorder._reference)
    expected = [
        (entry[0], type(entry[1]).__name__)
        for entry in log
        if len(entry) == 3
        and getattr(entry[1], "addr", None) is not None
        and mapping.flat_index(entry[1].addr) == watched
    ]
    assert len(expected) > 50
    assert [(e.process, e.op) for e in recorder.events] == expected


def test_detached_scheduler_returns_to_inline_dispatch():
    """Detaching removes the instance hook instead of pinning the method."""
    machine = Machine(SKYLAKE, seed=0)
    target = machine.address_space("shared").lines_with_offset(0, count=1)[0]
    scheduler = Scheduler(machine)
    recorder = TraceRecorder(machine, watch=[target]).attach(scheduler)
    assert "_execute" in vars(scheduler)
    recorder.detach()
    assert "_execute" not in vars(scheduler)


def test_nested_recorders_detach_in_reverse_order():
    machine = Machine(SKYLAKE, seed=0)
    target = machine.address_space("shared").lines_with_offset(0, count=1)[0]
    scheduler = Scheduler(machine)
    outer = TraceRecorder(machine, watch=[target]).attach(scheduler)
    outer_hook = vars(scheduler)["_execute"]
    inner = TraceRecorder(machine, watch=[target]).attach(scheduler)
    inner.detach()
    assert vars(scheduler)["_execute"] is outer_hook
    outer.detach()
    assert "_execute" not in vars(scheduler)
