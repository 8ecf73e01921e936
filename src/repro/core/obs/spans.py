"""Timed regions: the span model and its context-manager timer.

A :class:`Span` is one closed interval on the telemetry clock
(:mod:`repro.core.obs.clock`, ``perf_counter``-based) with a name, a
category, a nesting depth and free-form ``args``.  Spans nest via a
per-thread stack kept by the recorder; the Chrome trace export does not
need explicit parent links (the viewer infers nesting from containment
within one pid/tid track) but the recorded depth makes nesting testable
and keeps the flat span list self-describing.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Span:
    """One completed timed region."""

    name: str
    cat: str
    start: float
    end: float
    depth: int
    pid: int
    tid: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTimer:
    """Context manager that records one span into a recorder.

    Created by :meth:`Recorder.span`; measures on
    :func:`repro.core.obs.clock.now` and pushes/pops the recorder's
    per-thread span stack so nested timers know their depth.
    """

    __slots__ = ("_recorder", "name", "cat", "args", "start", "depth")

    def __init__(self, recorder, name: str, cat: str, args: Dict[str, object]):
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.args = args
        self.start = 0.0
        self.depth = 0

    def __enter__(self) -> "SpanTimer":
        from repro.core.obs import clock

        self.depth = self._recorder._push_span(self.name)
        self.start = clock.now()
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.core.obs import clock

        end = clock.now()
        self._recorder._pop_span()
        self._recorder._record_span(
            Span(
                name=self.name,
                cat=self.cat,
                start=self.start,
                end=end,
                depth=self.depth,
                pid=os.getpid(),
                tid=threading.get_ident() & 0x7FFFFFFF,
                args=self.args,
            )
        )


class NullSpan:
    """The do-nothing timer handed out when no recorder is active.

    A single shared instance keeps the telemetry-off path down to one
    global read, one ``None`` check, and two no-op method calls.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = NullSpan()
