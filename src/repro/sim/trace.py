"""Operation tracing for scheduler runs.

Attach a :class:`TraceRecorder` to a scheduler to capture every memory
operation that touches a watched LLC set, with timestamps, process names,
and a rendered before/after set state — the raw material for understanding
why an attack run misbehaved::

    recorder = TraceRecorder(machine, watch=[dr], watcher=set_watcher)
    recorder.attach(scheduler)
    scheduler.run()
    for event in recorder.events:
        print(event)

Tracing is implemented by wrapping the scheduler's execute hook, so it
composes with any program and costs nothing when not attached: attaching
sets ``_execute`` on the scheduler instance, and :meth:`Scheduler.run`
routes every op through an instance-level ``_execute`` instead of its
inline dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..analysis.setviz import SetWatcher
from ..errors import SimulationError
from .machine import Machine
from .scheduler import Scheduler


@dataclass(frozen=True)
class TraceEvent:
    """One traced operation."""

    time: int
    process: str
    op: str
    target: str
    state_after: str

    def __str__(self) -> str:
        return (
            f"{self.time:>12} {self.process:<14} {self.op:<18} "
            f"{self.target:<6} {self.state_after}"
        )


class TraceRecorder:
    """Records operations touching the watched LLC set(s)."""

    def __init__(
        self,
        machine: Machine,
        watch: Sequence[int],
        watcher: Optional[SetWatcher] = None,
        max_events: int = 100_000,
    ):
        if not watch:
            raise SimulationError("watch needs at least one address")
        self.machine = machine
        self.watcher = watcher or SetWatcher()
        self.max_events = max_events
        self._watch_keys = {
            machine.hierarchy.llc_mapping.index(addr).flat for addr in watch
        }
        self._reference = watch[0]
        self.events: List[TraceEvent] = []
        self._attached: Optional[Scheduler] = None
        self._original: Optional[Callable] = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, scheduler: Scheduler) -> "TraceRecorder":
        if self._attached is not None:
            raise SimulationError("recorder is already attached")
        self._attached = scheduler
        # An instance hook already set (another recorder), or None.
        self._original = vars(scheduler).get("_execute")
        execute = scheduler._execute
        recorder = self

        def traced_execute(proc, op):
            result = execute(proc, op)
            recorder._record(proc, op)
            return result

        scheduler._execute = traced_execute
        return self

    def detach(self) -> None:
        if self._attached is None:
            return
        # Dropping the instance attribute puts run() back on its inline
        # dispatch; storing the class method there would not.
        if self._original is None:
            del self._attached._execute
        else:
            self._attached._execute = self._original
        self._attached = None
        self._original = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- recording -----------------------------------------------------------

    def _record(self, proc, op) -> None:
        addr = getattr(op, "addr", None)
        if addr is None:
            return
        mapping = self.machine.hierarchy.llc_mapping
        if mapping.index(addr).flat not in self._watch_keys:
            return
        if len(self.events) >= self.max_events:
            return
        target_set = self.machine.hierarchy.llc.set_for(addr)
        self.events.append(
            TraceEvent(
                time=proc.time,
                process=proc.name,
                op=type(op).__name__,
                target=self.watcher.name_of(addr >> 6 << 6),
                state_after=self.watcher.render(target_set),
            )
        )

    # -- queries ---------------------------------------------------------------

    def by_process(self, name: str) -> List[TraceEvent]:
        return [e for e in self.events if e.process == name]

    def between(self, start: int, end: int) -> List[TraceEvent]:
        return [e for e in self.events if start <= e.time < end]

    def dump(self, limit: Optional[int] = None) -> str:
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in events)
