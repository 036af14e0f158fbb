"""Host-speed probe: a fixed loop timed over and over while a workload runs.

The benchmark host shares its cores with other tenants.  Their load changes
how long the same pure-Python code takes by up to half, from one second to
the next and from one minute to the next, and process CPU time moves with
wall time (the core is slower, not taken away).  A probe thread in the
workload process therefore runs a fixed loop of ``PROBE_LOOPS`` iterations
every ``INTERVAL_S`` seconds.  Because the workload holds the interpreter
lock otherwise, the loop runs on the same core, under the same contention,
and its duration tracks that core's speed.  (Probes that also walk a buffer
larger than the last-level cache, or run a small pure-Python cache model,
tracked the workloads no better, and the buffer would add to their peak
memory.)

The host also steals time: the hypervisor holds a virtual CPU back while
it has work to run.  A probe loop that is held back is among the slowest
tenth, which the speed leaves out, so the probe thread also reads the
kernel's cumulative busy and steal ticks (``/proc/stat``) each time it
runs.  The *availability* of an interval is the share of the ticks the
CPUs wanted (busy plus stolen) that they got; on a host that steals
nothing it is 1.  The multi-threaded service with its worker processes
lost up to a third of its wanted time this way, and its job latencies
grew by as much, while the probe's speed did not move.

Time metrics are reported in reference seconds: the measured seconds of an
interval times its speed, ``REFERENCE_S`` over the probe's mean duration
within that interval (the slowest tenth of the probes, which a context
switch interrupted, left out), times its availability.  On an idle host a
reference second is about one second; on a loaded host it is what the
interval would have taken idle.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Optional, Tuple

STAT = "/proc/stat"

#: Iterations of the probe loop.
PROBE_LOOPS = 2000
#: Seconds between probes.
INTERVAL_S = 0.01
#: Probe duration that counts as reference speed, in seconds.
REFERENCE_S = 1.2e-4
#: Shortest window availability is taken over, in seconds.  The kernel
#: counts ticks of 10 ms, so a shorter window holds too few of them.
AVAILABILITY_WINDOW_S = 1.0


def probe_once() -> float:
    """Seconds one run of the fixed probe loop takes."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def cpu_ticks(path: str = STAT) -> Optional[Tuple[int, int]]:
    """(busy, stolen) ticks of all CPUs since boot, or None without them."""
    try:
        with open(path) as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return user + nice + system + irq + softirq, steal


def trimmed_mean(durations: List[float], keep: float = 0.9) -> float:
    """Mean of the fastest ``keep`` share of ``durations`` (at least one)."""
    ordered = sorted(durations)
    return statistics.fmean(ordered[:max(1, int(len(ordered) * keep))])


class HostProbe:
    """Background thread timing :func:`probe_once` every ``INTERVAL_S``."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        #: (perf_counter at probe start, probe seconds)
        self.samples: List[Tuple[float, float]] = []
        #: (perf_counter, busy ticks, stolen ticks) read with every probe
        self.ticks: List[Tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-hostspeed")

    def start(self) -> "HostProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            ticks = cpu_ticks()
            if ticks is not None:
                self.ticks.append((time.perf_counter(), *ticks))
            start = time.perf_counter()
            self.samples.append((start, probe_once()))

    def speed(self, start: float, end: float) -> Optional[float]:
        """Host speed over ``[start, end]`` relative to reference, or None."""
        durations = [d for t, d in list(self.samples) if start <= t <= end]
        if not durations:
            return None
        return REFERENCE_S / trimmed_mean(durations)

    def availability(self, start: float, end: float) -> float:
        """Share of the CPU time wanted around ``[start, end]`` that was not stolen.

        The window is widened about its middle to ``AVAILABILITY_WINDOW_S``
        and runs from the last tick reading at or before its start to the
        first at or after its end (the nearest ones at the edges of the
        run).  1.0 without two readings or without wanted time.
        """
        widen = max(0.0, AVAILABILITY_WINDOW_S - (end - start)) / 2
        start, end = start - widen, end + widen
        ticks = list(self.ticks)
        before = [t for t in ticks if t[0] <= start] or ticks[:1]
        after = [t for t in ticks if t[0] >= end] or ticks[-1:]
        if not before or before[-1][0] >= after[0][0]:
            return 1.0
        busy = after[0][1] - before[-1][1]
        stolen = after[0][2] - before[-1][2]
        return busy / (busy + stolen) if busy + stolen > 0 else 1.0

    def reference_seconds(self, start: float, end: float) -> float:
        """``end - start`` converted to reference seconds.

        An interval too short to hold a probe takes the speed of the
        whole run so far.
        """
        speed = self.speed(start, end)
        if speed is None:
            speed = self.speed(float("-inf"), float("inf")) or 1.0
        return (end - start) * speed * self.availability(start, end)
