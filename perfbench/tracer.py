"""Span tracing from outside the program: wrappers around public functions.

The traced run installs a wrapper around each public function or method
listed by ``workload.install_layer_wrappers``.  A wrapper records one span per
call (name, start, end, parent span, thread and correlation attributes)
into memory; nothing is written until :func:`export_chrome`.
:meth:`Tracer.restore` puts every original back, so the program is
unchanged after a traced run.

Functions that the program imports by name (``from ..runner import
run_shards``) live in several module namespaces at once; a function target
is therefore patched in every loaded ``repro`` module that holds it.
Functions called once per simulated access are never wrapped: their time
stays inside the enclosing span, and their counts come from the program's
own counters.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Modules searched for references to a patched function.
PATCH_PREFIXES = ("repro",)


@dataclass
class Span:
    """One recorded call into a layer."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Hook:
    """Optional per-target callbacks run around the wrapped call.

    ``before(args, kwargs)`` returns a state value that ``after(state,
    args, kwargs, result)`` receives; both run inside the span, and
    ``after`` runs even when the call raises (``result`` is then None).
    """

    def before(self, args: tuple, kwargs: dict) -> Any:
        return None

    def after(self, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
        pass


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        #: (owner, attribute, original) triples, in patch order.
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int]]:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: Optional[int], name: str,
               start: float, attrs: Dict[str, Any]) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span = Span(span_id, parent, name, start, end,
                    threading.get_ident(), attrs)
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """Context manager recording one span named ``name``."""
        return _SpanContext(self, name, attrs)

    # -- patching ---------------------------------------------------------

    def _wrapper(self, original: Callable, name: str, hook: Optional[Hook]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            state = result = None
            try:
                if hook is not None:
                    state = hook.before(args, kwargs)
                result = original(*args, **kwargs)
                return result
            finally:
                if hook is not None:
                    hook.after(state, args, kwargs, result)
                tracer._close(span_id, parent, name, start, {})

        traced.__wrapped_by_perfbench__ = True
        return traced

    def wrap_function(self, module: Any, attr: str, name: str,
                      hook: Optional[Hook] = None) -> int:
        """Wrap ``module.attr`` and every ``repro`` module alias of it.

        Returns the number of namespaces patched.
        """
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, hook)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(PATCH_PREFIXES):
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    patched += 1
        return patched

    def wrap_method(self, cls: type, attr: str, name: str,
                    hook: Optional[Hook] = None) -> None:
        """Wrap a plain method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, hook))

    def restore(self) -> None:
        """Put every original back, newest patch first.  Idempotent."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self.span_id, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.span_id, self.parent, self.name,
                           self.start, self.attrs)


def leftover_wrappers() -> List[str]:
    """``module.attr`` names still bound to a wrapper (empty after restore)."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith(PATCH_PREFIXES):
            continue
        for key, value in list(getattr(mod, "__dict__", {}).items()):
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append(f"{mod_name}.{key}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, "__wrapped_by_perfbench__", False):
                        found.append(f"{mod_name}.{key}.{attr}")
    return sorted(set(found))


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the union of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _union_length(children.get(span.id, ()))
        for span in spans
    }


def coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of ``spans``."""
    if end <= start:
        return 0.0
    clipped = [(max(s.start, start), min(s.end, end)) for s in spans
               if s.end > start and s.start < end]
    return _union_length(clipped) / (end - start)


def layer_summary(spans: Sequence[Span], wall_s: float) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, and self share of wall."""
    selfs = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = summary.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
    for row in summary.values():
        row["wall_share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return dict(sorted(summary.items()))


def export_chrome(spans: Sequence[Span], path: str, pid: Optional[int] = None) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    pid = os.getpid() if pid is None else pid
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": span.thread,
            "args": {"id": span.id, "parent": span.parent, **span.attrs},
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class Sampler:
    """Wall-clock sampler attributing thread time to ``repro`` subpackages.

    Per-access code (the cache hierarchy) is never wrapped; sampling the
    innermost ``repro`` frame of every thread estimates its self time
    instead.  Each sample is weighted by the real time since the previous
    one, so a sampler delayed by the interpreter lock stays unbiased.
    """

    def __init__(self, interval_s: float = 0.001):
        self.interval_s = interval_s
        self.seconds: Dict[str, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def _run(self) -> None:
        me = threading.get_ident()
        last = time.perf_counter()
        while not self._stop.wait(self.interval_s):
            now = time.perf_counter()
            weight = now - last
            last = now
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                while frame is not None:
                    module = frame.f_globals.get("__name__", "")
                    if module.startswith("repro."):
                        layer = module.split(".")[1]
                        self.seconds[layer] = self.seconds.get(layer, 0.0) + weight
                        break
                    frame = frame.f_back
