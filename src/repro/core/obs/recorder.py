"""The telemetry recorder and the module-level instrumentation funnel.

One :class:`Recorder` collects everything a run emits — spans, counters,
histograms — and exports two artifacts:

* a Chrome trace-event JSON (``ph: "X"`` complete events, microsecond
  timestamps) that loads directly into Perfetto or ``about://tracing``;
* a flat metrics JSON with every counter/histogram.

Instrumented code never takes a recorder parameter.  It calls the
module-level funnel (:func:`span`, :func:`count`, :func:`observe`), which
consults the process-global active recorder: ``None`` means telemetry is
off and every call degrades to a near-free no-op, which is how the whole
subsystem stays off by default with negligible overhead.

Span *timestamps* are wall-clock facts and naturally vary run to run;
determinism is claimed for metrics and for study results, never for
timings.

A hot-path cache reports each lookup through :func:`cache_event`, which
counts ``cache.<name>.hit`` / ``cache.<name>.miss`` while a recorder is
installed.

While a recorder is installed, a :data:`gc.callbacks` hook times every
cyclic garbage collection: ``gc.collections.gen0/1/2`` counters and a
``gc.pause_s`` histogram.  The hook never takes the recorder's lock (a
collection can start while the lock is held); it queues each
collection's ``(generation, pause)`` and the queue is folded into the
metrics at uninstall time.  With no recorder installed there is no hook.
"""

from __future__ import annotations

import collections
import gc
import json
import threading
from typing import Dict, List, Optional

from repro.core.obs import clock
from repro.core.obs.metrics import Counter, Histogram
from repro.core.obs.spans import NULL_SPAN, Span, SpanTimer

#: Version tag stamped into both JSON exports.
SCHEMA_VERSION = "repro-telemetry-v1"


class Recorder:
    """Collects one run's telemetry; thread-safe; export to JSON."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[Span] = []
        self._tls = threading.local()
        #: ``(generation, pause_s)`` per collection, appended by
        #: :func:`_on_gc` without the lock (``deque.append`` is atomic).
        self._gc_pending: collections.deque = collections.deque()
        self.epoch = clock.now()

    # -- span stack (called by SpanTimer) ----------------------------------

    def _push_span(self, name: str) -> int:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        depth = len(stack)
        stack.append(name)
        return depth

    def _pop_span(self) -> None:
        self._tls.stack.pop()

    def _record_span(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def span_stack(self) -> List[str]:
        """Names of the calling thread's currently open spans."""
        return list(getattr(self._tls, "stack", ()))

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "", **args) -> SpanTimer:
        """A context manager timing one region."""
        return SpanTimer(self, name, cat, args)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.add(n)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "Recorder":
        """Make this the process's active recorder."""
        set_recorder(self)
        if _on_gc not in gc.callbacks:
            gc.callbacks.append(_on_gc)
        return self

    def uninstall(self) -> None:
        """Collect the queued GC collections and deactivate."""
        if get_recorder() is self:
            set_recorder(None)
            if _on_gc in gc.callbacks:
                gc.callbacks.remove(_on_gc)
        self._collect_gc()

    def _collect_gc(self) -> None:
        """Fold the collections the GC hook queued into metrics."""
        pending = self._gc_pending
        while pending:
            generation, pause_s = pending.popleft()
            self.count(f"gc.collections.gen{generation}")
            self.observe("gc.pause_s", pause_s)

    # -- read access -------------------------------------------------------

    def counter_value(self, name: str) -> float:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return {k: c.value for k, c in sorted(self._counters.items())}

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The run as a Chrome trace-event document.

        Complete (``"ph": "X"``) events with microsecond timestamps
        relative to the recorder's epoch; one pid track per process that
        contributed spans.  Loads in Perfetto and ``about://tracing``.
        """
        with self._lock:
            spans = sorted(self._spans, key=lambda s: (s.pid, s.tid, s.start))
        events = [
            {
                "name": span.name,
                "cat": span.cat or "repro",
                "ph": "X",
                "ts": max(0.0, (span.start - self.epoch) * 1e6),
                "dur": max(0.0, span.duration * 1e6),
                "pid": span.pid,
                "tid": span.tid,
                "args": {str(k): _jsonable(v) for k, v in span.args.items()},
            }
            for span in spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": SCHEMA_VERSION},
        }

    def metrics(self) -> dict:
        """The run as a flat metrics document."""
        with self._lock:
            return {
                "schema": SCHEMA_VERSION,
                "counters": {
                    k: self._counters[k].value for k in sorted(self._counters)
                },
                "histograms": {
                    k: self._histograms[k].as_dict()
                    for k in sorted(self._histograms)
                },
                "spans": {"total": len(self._spans)},
            }

    def write_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
            fh.write("\n")

    def write_metrics(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metrics(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def summary_table(self):
        """Counters and span-time totals as a reporting table."""
        from repro.reporting.tables import Table

        table = Table("Telemetry summary", ["metric", "value"])
        for name, value in self.counters().items():
            table.add_row(name, f"{value:g}")
        totals: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for span in self.spans():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
            counts[span.name] = counts.get(span.name, 0) + 1
        for name in sorted(totals):
            table.add_row(
                f"span.{name}", f"{totals[name]:.3f}s x{counts[name]}"
            )
        for name, histogram in sorted(self._histograms.items()):
            table.add_row(
                f"hist.{name}",
                f"mean={histogram.mean:.4f} n={histogram.count}",
            )
        return table


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- the module-level funnel -------------------------------------------------

_ACTIVE: Optional[Recorder] = None


def get_recorder() -> Optional[Recorder]:
    """The process's active recorder, or None when telemetry is off."""
    return _ACTIVE


def set_recorder(recorder: Optional[Recorder]) -> None:
    global _ACTIVE
    _ACTIVE = recorder


#: Start time of the collection in progress (one at a time per process).
_GC_STARTED = 0.0


def _on_gc(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: queue one collection on the active recorder.

    Registered while a recorder is installed.  A recorder detached with
    ``set_recorder(None)`` (the deep audit's re-run) records nothing.
    """
    global _GC_STARTED
    if phase == "start":
        _GC_STARTED = clock.now()
        return
    recorder = _ACTIVE
    if recorder is not None:
        recorder._gc_pending.append(
            (info["generation"], clock.now() - _GC_STARTED)
        )


def span(name: str, cat: str = "", **args):
    """Time a region on the active recorder (no-op when telemetry is off)."""
    recorder = _ACTIVE
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, cat, **args)


def count(name: str, n: float = 1) -> None:
    """Bump a counter on the active recorder (no-op when off)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.count(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active recorder (no-op when off)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.observe(name, value)


def cache_event(name: str, hit: bool) -> None:
    """Record a hand-rolled cache's hit or miss (no-op when off)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.count(
            f"cache.{name}.hit" if hit else f"cache.{name}.miss"
        )
