"""The long-lived study service (DESIGN.md §14).

Running a study from a cold CLI pays the same fixed costs every time:
import the package, regenerate the corpus, open the result store.  The
service keeps them **warm across requests**:

* :mod:`repro.service.daemon` — :class:`StudyService`, the daemon behind
  ``repro serve``.  It owns one content-addressed result-store
  directory and a per-``(seed, scale)`` corpus cache, and executes jobs
  through the ordinary :class:`~repro.core.analysis.Study` /
  :class:`~repro.core.sweep.SweepEngine` machinery so output stays
  byte-identical to a direct CLI run.
* :mod:`repro.service.jobs` — the job layer: :class:`Job` and its state
  machine, the bounded FIFO :class:`JobQueue`, and the
  :class:`JobRunner` worker threads with a concurrency cap.
* :mod:`repro.service.protocol` — newline-delimited JSON over a unix
  domain socket; one request, one response, per line.
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin client
  behind ``repro submit`` / ``repro jobs``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import StudyService
from repro.service.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Draining,
    Job,
    JobQueue,
    JobRunner,
    QueueFull,
    UnknownJob,
)
from repro.service.protocol import DEFAULT_SOCKET, ProtocolError

__all__ = [
    "CANCELLED",
    "COMPLETED",
    "DEFAULT_SOCKET",
    "Draining",
    "FAILED",
    "Job",
    "JobQueue",
    "JobRunner",
    "ProtocolError",
    "QUEUED",
    "QueueFull",
    "RUNNING",
    "ServiceClient",
    "ServiceError",
    "StudyService",
    "TERMINAL_STATES",
    "UnknownJob",
]
