"""Self-time arithmetic, coverage, Chrome export and wrapper removal."""

import json
import threading

import pytest

import tracer as tracing
from tracer import Span


def _span(id, parent, start, end, name="x"):
    return Span(id, parent, name, start, end, thread=1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),   # grandchild: charged to span 2, not span 1
        _span(4, 1, 5.0, 9.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 6.0),
             _span(3, 1, 4.0, 8.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(3.0)


def test_layer_summary_and_coverage():
    spans = [_span(1, None, 0.0, 4.0, "a"), _span(2, 1, 1.0, 2.0, "b"),
             _span(3, None, 5.0, 9.0, "a")]
    summary = tracing.layer_summary(spans, wall_s=10.0)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["self_s"] == pytest.approx(7.0)
    assert summary["a"]["wall_share"] == pytest.approx(0.7)
    top = [s for s in spans if s.parent is None]
    assert tracing.coverage(top, 0.0, 10.0) == pytest.approx(0.8)


def test_nested_spans_record_parents_per_thread():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        worker = threading.Thread(target=lambda: tracer.span("other").__enter__().__exit__())
        worker.start()
        worker.join(timeout=10)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["other"].parent is None  # another thread's stack


def test_chrome_export_is_trace_event_json(tmp_path):
    spans = [_span(1, None, 1.0, 1.5, "runner.exec"), _span(2, 1, 1.1, 1.2, "sim.restore")]
    path = tmp_path / "t.trace.json"
    tracing.export_chrome(spans, str(path), pid=7)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["ts"] == 0 and events[0]["dur"] == pytest.approx(5e5)
    assert events[1]["args"]["parent"] == 1


def test_wrappers_are_removed_after_a_traced_run():
    import repro.runner as runner
    import repro.runner.pool as pool
    import repro.experiments.capacity_sweep as capacity_sweep
    from repro.runner import ResultCache
    from repro.sim.machine import Machine

    original_run_shards = pool.run_shards
    original_get = ResultCache.__dict__["get"]
    original_init = Machine.__dict__["__init__"]
    tracer = tracing.Tracer()
    assert tracer.wrap_function(pool, "run_shards", "runner.exec") >= 3
    tracer.wrap_method(ResultCache, "get", "runner.cache.get")
    tracer.wrap_method(Machine, "__init__", "sim.machine")
    assert runner.run_shards is not original_run_shards
    assert capacity_sweep.run_shards is runner.run_shards
    Machine.skylake(seed=1)
    assert [s.name for s in tracer.spans] == ["sim.machine"]
    assert tracing.leftover_wrappers()

    tracer.restore()
    assert pool.run_shards is original_run_shards
    assert runner.run_shards is original_run_shards
    assert capacity_sweep.run_shards is original_run_shards
    assert ResultCache.__dict__["get"] is original_get
    assert Machine.__dict__["__init__"] is original_init
    assert tracing.leftover_wrappers() == []
    tracer.restore()  # idempotent


def test_workload_wrappers_restore_every_layer():
    import workload

    tracer = tracing.Tracer()
    workload.install_layer_wrappers(tracer, workload.LayerCounts())
    assert len(tracing.leftover_wrappers()) >= 20
    tracer.restore()
    assert tracing.leftover_wrappers() == []
