"""Zero-dependency run telemetry: spans, counters, and trace export.

The study's observability layer (DESIGN.md §9).  Three pieces:

* :mod:`repro.core.obs.clock` — the one monotonic clock
  (``time.perf_counter``) every duration in the codebase is measured on.
* :mod:`repro.core.obs.metrics` / :mod:`repro.core.obs.spans` — the
  primitives: counters/histograms and nested timed regions.
* :mod:`repro.core.obs.recorder` — the :class:`Recorder` that collects
  both and exports a Chrome trace-event JSON (Perfetto /
  ``about://tracing``) plus a flat metrics JSON, and the module-level
  funnel (:func:`span`, :func:`count`, :func:`observe`,
  :func:`cache_event`) instrumented code calls.

Telemetry is **off by default**: with no recorder installed every funnel
call is a global read and a ``None`` check.  ``Study.run(recorder=...)``
or ``repro study --trace-out/--metrics-out`` turns it on.
"""

from repro.core.obs.clock import Stopwatch, now
from repro.core.obs.metrics import Counter, Histogram
from repro.core.obs.recorder import (
    Recorder,
    cache_event,
    count,
    get_recorder,
    observe,
    set_recorder,
    span,
)
from repro.core.obs.spans import NULL_SPAN, Span

__all__ = [
    "Counter",
    "Histogram",
    "NULL_SPAN",
    "Recorder",
    "Span",
    "Stopwatch",
    "cache_event",
    "count",
    "get_recorder",
    "now",
    "observe",
    "set_recorder",
    "span",
]
