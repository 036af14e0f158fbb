"""Discrete-event scheduler interleaving processes against shared caches.

The scheduler always runs the process with the smallest local clock, executes
its next yielded operation atomically at that timestamp, and advances the
process's clock by the operation's latency.  Shared-LLC interactions between
processes therefore occur in global time order, which is what makes the
cross-core races of the paper (sender vs. receiver prefetches, victim vs.
attacker accesses) observable in simulation.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional

from ..errors import SimulationError
from .machine import Machine
from .process import (
    Clflush,
    Load,
    Op,
    PrefetchNTA,
    PrefetchT0,
    Program,
    ReadTSC,
    SimProcess,
    Sleep,
    StreamClflush,
    StreamLoad,
    TimedLoad,
    TimedPrefetchNTA,
    WaitUntil,
)


class Scheduler:
    """Runs :class:`SimProcess` programs on a shared :class:`Machine`."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.processes: List[SimProcess] = []
        # core id -> the process most recently spawned there; consulted (and
        # lazily cleaned) by spawn so registering a process is O(1) instead
        # of a scan over every process ever spawned on this scheduler.
        self._core_owner: Dict[int, SimProcess] = {}
        self._counter = itertools.count()

    def spawn(
        self, name: str, core_id: int, program: Program, start_time: int = 0
    ) -> SimProcess:
        """Register a process; cores may host at most one process at a time."""
        if not 0 <= core_id < len(self.machine.cores):
            raise SimulationError(f"core {core_id} out of range for {name!r}")
        owner = self._core_owner.get(core_id)
        if owner is not None and not owner.finished:
            raise SimulationError(
                f"core {core_id} already busy with {owner.name!r}"
            )
        proc = SimProcess(name, core_id, program, start_time)
        self.processes.append(proc)
        self._core_owner[core_id] = proc
        return proc

    # ------------------------------------------------------------------
    # Op execution: one dict lookup dispatches each yielded op.  Exact-type
    # dispatch is equivalent to the former isinstance ladder because the op
    # types have no subclass relationships among them.

    def _exec_load(self, proc: SimProcess, op: Load) -> Any:
        result = self.machine.cores[proc.core_id].load(op.addr, at=proc.time)
        proc.time += result.latency
        return result

    def _exec_timed_load(self, proc: SimProcess, op: TimedLoad) -> Any:
        timed = self.machine.cores[proc.core_id].timed_load(op.addr, at=proc.time)
        proc.time += timed.cycles
        return timed

    def _exec_prefetchnta(self, proc: SimProcess, op: PrefetchNTA) -> Any:
        result = self.machine.cores[proc.core_id].prefetchnta(op.addr, at=proc.time)
        # Non-blocking: the hint retires immediately; the fill is in
        # flight until the line's busy_until.
        proc.time += self.machine.config.latency.prefetch_issue
        return result

    def _exec_timed_prefetchnta(self, proc: SimProcess, op: TimedPrefetchNTA) -> Any:
        timed = self.machine.cores[proc.core_id].timed_prefetchnta(
            op.addr, at=proc.time
        )
        proc.time += timed.cycles
        return timed

    def _exec_prefetcht0(self, proc: SimProcess, op: PrefetchT0) -> Any:
        result = self.machine.cores[proc.core_id].prefetcht0(op.addr, at=proc.time)
        proc.time += result.latency
        return result

    def _exec_clflush(self, proc: SimProcess, op: Clflush) -> Any:
        result = self.machine.cores[proc.core_id].clflush(op.addr, at=proc.time)
        proc.time += result.latency
        return result

    def _exec_stream_clflush(self, proc: SimProcess, op: StreamClflush) -> Any:
        result = self.machine.cores[proc.core_id].clflush(op.addr, at=proc.time)
        mlp = max(1, self.machine.config.latency.stream_mlp)
        proc.time += max(1, result.latency // mlp)
        return result

    def _exec_wait_until(self, proc: SimProcess, op: WaitUntil) -> Any:
        proc.time = max(proc.time, op.time)
        # Returning the arrival time gives programs a free lateness
        # check (they learn whether the wait actually waited).
        return proc.time

    def _exec_stream_load(self, proc: SimProcess, op: StreamLoad) -> Any:
        result = self.machine.cores[proc.core_id].load(op.addr, at=proc.time)
        mlp = max(1, self.machine.config.latency.stream_mlp)
        proc.time += max(1, result.latency // mlp)
        return result

    def _exec_read_tsc(self, proc: SimProcess, op: ReadTSC) -> Any:
        stamp = proc.time
        proc.time += self.machine.config.latency.measure_overhead // 2
        return stamp

    def _exec_sleep(self, proc: SimProcess, op: Sleep) -> Any:
        if op.cycles < 0:
            raise SimulationError(f"negative sleep from {proc.name!r}")
        proc.time += op.cycles
        return None

    _DISPATCH = {
        Load: _exec_load,
        TimedLoad: _exec_timed_load,
        PrefetchNTA: _exec_prefetchnta,
        TimedPrefetchNTA: _exec_timed_prefetchnta,
        PrefetchT0: _exec_prefetcht0,
        Clflush: _exec_clflush,
        StreamClflush: _exec_stream_clflush,
        WaitUntil: _exec_wait_until,
        StreamLoad: _exec_stream_load,
        ReadTSC: _exec_read_tsc,
        Sleep: _exec_sleep,
    }

    def _execute(self, proc: SimProcess, op: Op) -> Any:
        """Execute ``op`` at ``proc.time``; advance the clock; return result.

        :meth:`run` dispatches inline instead of calling this; an instance
        attribute of this name (how :class:`~repro.sim.trace.TraceRecorder`
        observes a run) makes :meth:`run` route every op through it.
        """
        handler = self._DISPATCH.get(type(op))
        if handler is None:
            raise SimulationError(f"{proc.name!r} yielded unknown op {op!r}")
        return handler(self, proc, op)

    def run(self, until: Optional[int] = None) -> None:
        """Run until every process finishes (or the time horizon passes).

        ``until`` bounds simulated time: a process whose clock passes the
        horizon is suspended permanently (its generator is closed).

        Processes run in ``(time, spawn/yield order)`` order through a heap.
        A process whose clock after an op is still strictly below every
        queued process's would be popped straight back, so it keeps running
        without the heap round trip; a tie goes through the heap, which
        keeps the order of equal-time ops exactly that of one push per op.
        """
        hook = self.__dict__.get("_execute")
        dispatch = self._DISPATCH
        counter = self._counter
        horizon = math.inf if until is None else until
        heap: List[tuple] = []
        for proc in self.processes:
            if not proc.finished:
                heappush(heap, (proc.time, next(counter), proc, None))
        while heap:
            _, _, proc, value = heappop(heap)
            send = proc.program.send
            while True:
                if proc.time > horizon:
                    proc.program.close()
                    proc.finished = True
                    break
                try:
                    op = send(value)
                except StopIteration as stop:
                    proc.finished = True
                    proc.result = stop.value
                    break
                if hook is None:
                    handler = dispatch.get(type(op))
                    if handler is None:
                        raise SimulationError(
                            f"{proc.name!r} yielded unknown op {op!r}"
                        )
                    value = handler(self, proc, op)
                else:
                    value = hook(proc, op)
                if heap and proc.time >= heap[0][0]:
                    heappush(heap, (proc.time, next(counter), proc, value))
                    break
        # Keep the sequential clock monotone with the simulated world so a
        # later non-scheduled experiment on the same machine starts "after".
        latest = max((p.time for p in self.processes), default=0)
        self.machine.clock = max(self.machine.clock, latest)

    def run_all(self, until: Optional[int] = None) -> List[Any]:
        """Run and return each process's program return value, in spawn order."""
        self.run(until=until)
        return [proc.result for proc in self.processes]
