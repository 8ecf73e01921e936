"""Tests for repro.core.obs: metric primitives, spans, recorder, exports."""

import gc
import importlib.util
import json
from pathlib import Path

import pytest

from repro.core import obs
from repro.core.obs.metrics import Counter, Histogram
from repro.core.obs.recorder import SCHEMA_VERSION
from repro.core.obs.spans import NULL_SPAN

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_telemetry", REPO_ROOT / "tools" / "validate_telemetry.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def recorder():
    """An installed recorder, guaranteed uninstalled afterwards."""
    instance = obs.Recorder().install()
    yield instance
    instance.uninstall()


class TestPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_histogram(self):
        histogram = Histogram()
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(5.0)
        assert histogram.as_dict() == {
            "count": 3,
            "sum": 15.0,
            "min": 2.0,
            "max": 8.0,
            "mean": 5.0,
        }

    def test_empty_histogram_mean_and_dict(self):
        empty = Histogram()
        assert empty.mean == 0.0
        assert empty.as_dict()["min"] == 0.0


class TestStopwatch:
    def test_elapsed_is_monotone(self):
        watch = obs.Stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0 <= first <= second

    def test_restart_returns_prior_elapsed(self):
        watch = obs.Stopwatch()
        prior = watch.restart()
        assert prior >= 0
        assert watch.elapsed() <= prior + watch.elapsed()


class TestFunnelOffPath:
    """With no recorder installed, every funnel call must be a no-op."""

    def test_span_returns_shared_null_span(self):
        assert obs.get_recorder() is None
        assert obs.span("anything", cat="x", arg=1) is NULL_SPAN
        with obs.span("still.null"):
            pass

    def test_count_observe_cache_event_are_noops(self):
        obs.count("nothing")
        obs.observe("nothing", 1.0)
        obs.cache_event("nothing", hit=True)


class TestSpanRecording:
    def test_nesting_depth_and_stack(self, recorder):
        with obs.span("outer", cat="t"):
            with obs.span("inner", cat="t"):
                pass
        by_name = {span.name: span for span in recorder.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].start >= by_name["outer"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_span_args_and_duration(self, recorder):
        with obs.span("tagged", cat="t", app="a1", n=3):
            pass
        (span,) = recorder.spans()
        assert span.args == {"app": "a1", "n": 3}
        assert span.duration >= 0
        assert span.pid > 0


class TestCountersAndCaches:
    def test_count_and_observe(self, recorder):
        obs.count("events", 2)
        obs.count("events")
        obs.observe("latency", 0.5)
        assert recorder.counter_value("events") == 3
        assert recorder.metrics()["histograms"]["latency"]["count"] == 1

    def test_cache_event(self, recorder):
        obs.cache_event("handrolled", hit=True)
        obs.cache_event("handrolled", hit=True)
        obs.cache_event("handrolled", hit=False)
        assert recorder.counter_value("cache.handrolled.hit") == 2
        assert recorder.counter_value("cache.handrolled.miss") == 1

    def test_install_uninstall_lifecycle(self):
        recorder = obs.Recorder()
        assert obs.get_recorder() is None
        recorder.install()
        assert obs.get_recorder() is recorder
        recorder.uninstall()
        assert obs.get_recorder() is None


class TestGCTelemetry:
    """A ``gc.callbacks`` hook exists only while a recorder is installed
    and books each collection on the active recorder."""

    def test_hook_only_while_installed(self):
        hooks = list(gc.callbacks)
        recorder = obs.Recorder().install()
        try:
            recorder.install()
            assert len(gc.callbacks) == len(hooks) + 1
        finally:
            recorder.uninstall()
        assert gc.callbacks == hooks

    def test_collections_are_counted_and_timed(self):
        gc.disable()
        try:
            recorder = obs.Recorder().install()
            try:
                gc.collect(0)
                gc.collect(2)
                gc.collect(2)
            finally:
                recorder.uninstall()
        finally:
            gc.enable()
        counters = recorder.counters()
        assert counters["gc.collections.gen0"] == 1
        assert counters["gc.collections.gen2"] == 2
        pauses = recorder.metrics()["histograms"]["gc.pause_s"]
        assert pauses["count"] == 3
        assert 0 <= pauses["min"] <= pauses["max"]

    def test_detached_recorder_records_nothing(self):
        gc.disable()
        try:
            recorder = obs.Recorder().install()
            try:
                obs.set_recorder(None)
                gc.collect()
                obs.set_recorder(recorder)
            finally:
                recorder.uninstall()
        finally:
            gc.enable()
        assert not [name for name in recorder.counters() if "gc." in name]


class TestExports:
    def _populated_recorder(self):
        recorder = obs.Recorder().install()
        try:
            with obs.span("outer", cat="test", app="a"):
                with obs.span("inner", cat="test"):
                    pass
            obs.count("events", 3)
            obs.observe("latency", 0.25)
        finally:
            recorder.uninstall()
        return recorder

    def test_trace_and_metrics_validate_against_schemas(self, tmp_path):
        validator = _load_validator()
        recorder = self._populated_recorder()
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        recorder.write_trace(trace_path)
        recorder.write_metrics(metrics_path)
        assert (
            validator.validate_file(
                str(REPO_ROOT / "schemas" / "telemetry_trace.schema.json"),
                str(trace_path),
            )
            == []
        )
        assert (
            validator.validate_file(
                str(REPO_ROOT / "schemas" / "telemetry_metrics.schema.json"),
                str(metrics_path),
            )
            == []
        )

    def test_validator_flags_bad_documents(self, tmp_path):
        validator = _load_validator()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "B"}]}))
        violations = validator.validate_file(
            str(REPO_ROOT / "schemas" / "telemetry_trace.schema.json"),
            str(bad),
        )
        assert violations
        assert any("ph" in violation for violation in violations)

    def test_chrome_trace_shape(self):
        recorder = self._populated_recorder()
        trace = recorder.chrome_trace()
        assert trace["otherData"]["schema"] == SCHEMA_VERSION
        events = trace["traceEvents"]
        assert len(events) == 2
        assert {event["ph"] for event in events} == {"X"}
        assert all(event["ts"] >= 0 and event["dur"] >= 0 for event in events)
        outer = next(event for event in events if event["name"] == "outer")
        assert outer["args"] == {"app": "a"}

    def test_metrics_document(self):
        recorder = self._populated_recorder()
        metrics = recorder.metrics()
        assert metrics["schema"] == SCHEMA_VERSION
        assert metrics["counters"]["events"] == 3
        assert metrics["spans"]["total"] == 2

    def test_summary_table(self):
        recorder = self._populated_recorder()
        rendered = recorder.summary_table().render()
        assert "events" in rendered
        assert "span.outer" in rendered
        assert "hist.latency" in rendered
