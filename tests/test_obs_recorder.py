"""Recorder core: span nesting, counters, events, thread-safety,
NullRecorder zero-overhead guarantees."""

import threading
import time

import pytest

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    current,
    recording,
    set_recorder,
)


class TestSpans:
    def test_span_measures_wall_time(self):
        rec = Recorder()
        with rec.span("work") as sp:
            time.sleep(0.005)
        assert sp.seconds >= 0.004
        assert rec.spans == [sp]

    def test_nesting_parent_and_depth(self):
        rec = Recorder()
        with rec.span("outer") as outer:
            with rec.span("middle") as middle:
                with rec.span("inner") as inner:
                    pass
        assert outer.parent_id is None and outer.depth == 0
        assert middle.parent_id == outer.span_id and middle.depth == 1
        assert inner.parent_id == middle.span_id and inner.depth == 2
        # closed inner-first: recorded in closing order
        assert [s.name for s in rec.spans] == ["inner", "middle", "outer"]

    def test_siblings_share_parent(self):
        rec = Recorder()
        with rec.span("root") as root:
            with rec.span("a") as a:
                pass
            with rec.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id
        assert a.depth == b.depth == 1
        assert a.span_id != b.span_id

    def test_span_ids_unique_and_attrs(self):
        rec = Recorder()
        with rec.span("x", n=3) as sp:
            sp.set(extra="y")
        assert sp.attrs == {"n": 3, "extra": "y"}
        ids = [s.span_id for s in rec.spans]
        assert len(ids) == len(set(ids))

    def test_stack_unwinds_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("fails"):
                raise RuntimeError("boom")
        # the failed span closed and left the stack clean
        with rec.span("after") as sp:
            pass
        assert sp.parent_id is None and sp.depth == 0

    def test_totals_aggregation(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("repeat"):
                pass
        with rec.span("once"):
            pass
        totals = rec.totals()
        assert totals["repeat"]["count"] == 3
        assert totals["once"]["count"] == 1
        assert totals["repeat"]["seconds"] == pytest.approx(
            rec.total_seconds("repeat")
        )
        assert totals["repeat"]["max_seconds"] <= totals["repeat"]["seconds"]


class TestCountersAndEvents:
    def test_counter_accumulates(self):
        rec = Recorder()
        rec.count("edges", 10)
        rec.count("edges", 2.5)
        rec.count("vertices")
        assert rec.counter("edges") == pytest.approx(12.5)
        assert rec.counter("vertices") == 1.0
        assert rec.counter("missing") == 0.0

    def test_event_records_time_and_attrs(self):
        rec = Recorder()
        rec.event("reuse_ratio", value=0.4)
        (e,) = rec.events
        assert e["name"] == "reuse_ratio"
        assert e["attrs"] == {"value": 0.4}
        assert e["t"] >= 0.0
        assert e["thread_id"] == threading.get_ident()


class TestNullRecorder:
    def test_is_default_current(self):
        assert current() is NULL_RECORDER
        assert isinstance(current(), NullRecorder)

    def test_null_span_still_measures(self):
        with NULL_RECORDER.span("anything", attr=1) as sp:
            time.sleep(0.003)
        assert sp.seconds >= 0.002

    def test_records_nothing(self):
        with NULL_RECORDER.span("s"):
            pass
        NULL_RECORDER.count("c", 5)
        NULL_RECORDER.event("e", x=1)
        assert NULL_RECORDER.spans == []
        assert NULL_RECORDER.counters == {}
        assert NULL_RECORDER.events == []

    def test_instrumented_pipeline_adds_no_events_by_default(self, lap2d_nd):
        from repro import fuse
        from repro.fusion import build_combination

        assert current() is NULL_RECORDER
        kernels, _ = build_combination(3, lap2d_nd)
        fl = fuse(kernels, 4)
        assert fl.inspector_seconds > 0  # _NullSpan still timed it
        assert NULL_RECORDER.spans == []
        assert NULL_RECORDER.counters == {}
        assert NULL_RECORDER.events == []


class TestCurrentRecorder:
    def test_set_and_restore(self):
        rec = Recorder()
        prev = set_recorder(rec)
        try:
            assert current() is rec
        finally:
            set_recorder(prev)
        assert current() is prev

    def test_recording_contextmanager(self):
        before = current()
        with recording() as rec:
            assert current() is rec
            assert isinstance(rec, Recorder)
        assert current() is before

    def test_recording_restores_on_exception(self):
        before = current()
        with pytest.raises(ValueError):
            with recording():
                raise ValueError
        assert current() is before

    def test_recording_accepts_existing(self):
        rec = Recorder()
        with recording(rec) as got:
            assert got is rec


class TestThreadSafety:
    def test_concurrent_spans_and_counters(self):
        rec = Recorder()
        n_threads, n_iter = 8, 50

        def work():
            for i in range(n_iter):
                with rec.span("worker", i=i):
                    with rec.span("worker.inner"):
                        pass
                rec.count("ticks")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(rec.spans) == n_threads * n_iter * 2
        assert rec.counter("ticks") == n_threads * n_iter
        ids = [s.span_id for s in rec.spans]
        assert len(ids) == len(set(ids))
        # nesting is per-thread: every inner parents to a same-thread outer
        by_id = {s.span_id: s for s in rec.spans}
        for s in rec.spans:
            if s.name == "worker.inner":
                parent = by_id[s.parent_id]
                assert parent.thread_id == s.thread_id
                assert s.depth == parent.depth + 1
