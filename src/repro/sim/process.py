"""Processes for the discrete-event scheduler.

A simulated process is a Python generator that *yields operation requests*
and receives each operation's outcome back from the scheduler::

    def receiver(proc: SimProcess):
        yield WaitUntil(slot_start)
        timed = yield TimedPrefetchNTA(dr)
        bit = 1 if timed.cycles > threshold else 0
        ...
        return bits

The scheduler executes the yielded operation at the process's local time on
the process's core, advances local time by the operation's latency, and
sends the result back into the generator.  Processes on different cores thus
interleave in global-timestamp order against the shared LLC — the simulated
equivalent of two pinned processes racing on real silicon.
"""

from __future__ import annotations

from typing import Any, Generator, Optional


class Op:
    """Base class for yieldable operation requests.

    Ops are value objects: equal when of the same type with equal fields,
    hashable, and printed like ``Load(addr=4096)``.  They are plain
    ``__slots__`` classes rather than frozen dataclasses because a capacity
    sweep builds hundreds of thousands of them, and a frozen dataclass's
    ``__init__`` (one ``object.__setattr__`` per field) costs several times
    a plain attribute store.  Treat them as immutable all the same.
    """

    __slots__ = ()
    #: Field names, in constructor order (``__slots__`` of a subclass that
    #: adds no field is empty, so it cannot serve).
    _FIELDS: tuple = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"{type(self).__name__}({fields})"


class _AddrOp(Op):
    """An op on one physical address."""

    __slots__ = ("addr",)
    _FIELDS = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr


class Load(_AddrOp):
    """Demand load; result sent back is a :class:`MemOpResult`."""

    __slots__ = ()


class TimedLoad(_AddrOp):
    """RDTSCP-wrapped load; result sent back is a :class:`TimedResult`."""

    __slots__ = ()


class PrefetchNTA(_AddrOp):
    """PREFETCHNTA; result is a :class:`MemOpResult`.

    Non-blocking, as on real hardware: the instruction retires at issue
    cost while the fill completes in the background (the line's
    ``busy_until`` covers the in-flight window).  Use
    :class:`TimedPrefetchNTA` for the serialized, measured variant that
    waits for completion.
    """

    __slots__ = ()


class TimedPrefetchNTA(_AddrOp):
    """RDTSCP-wrapped PREFETCHNTA; result is a :class:`TimedResult`."""

    __slots__ = ()


class PrefetchT0(_AddrOp):
    __slots__ = ()


class Clflush(_AddrOp):
    __slots__ = ()


class StreamClflush(_AddrOp):
    """A CLFLUSH issued in an independent stream (overlapped with others).

    Same cache effect as :class:`Clflush`, charged ``clflush / stream_mlp``
    cycles like a streamed load.
    """

    __slots__ = ()


class WaitUntil(Op):
    """Spin on RDTSC until the given absolute cycle (no-op if in the past).

    The scheduler sends back the process's arrival time, so programs can
    tell whether they hit the deadline or arrived late.
    """

    __slots__ = ("time",)
    _FIELDS = ("time",)

    def __init__(self, time: int):
        self.time = time


class Sleep(Op):
    """Burn the given number of cycles (models computation)."""

    __slots__ = ("cycles",)
    _FIELDS = ("cycles",)

    def __init__(self, cycles: int):
        self.cycles = cycles


class StreamLoad(_AddrOp):
    """A load issued in an independent (non-chased) access stream.

    Semantically identical to :class:`Load`, but charged only
    ``latency / stream_mlp`` cycles: out-of-order cores overlap independent
    misses, which is why the paper's Listing 1 finishes 192 references in
    ~1900 cycles.
    """

    __slots__ = ()


class ReadTSC(Op):
    """Read the time-stamp counter; result sent back is the current cycle.

    Costs half a measurement overhead (one serialized RDTSCP), so bracketing
    a sequence with two ReadTSCs models the paper's timed access sequences.
    """

    __slots__ = ()


Program = Generator[Op, Any, Any]


class SimProcess:
    """A schedulable process: a program generator pinned to a core."""

    def __init__(self, name: str, core_id: int, program: Program, start_time: int = 0):
        self.name = name
        self.core_id = core_id
        self.program = program
        self.time = start_time
        self.finished = False
        #: Return value of the program generator once finished.
        self.result: Optional[Any] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else f"t={self.time}"
        return f"SimProcess({self.name!r}, core={self.core_id}, {state})"
