"""The job layer: states, the bounded FIFO queue, the runner threads.

Pure in-process machinery — no sockets, no studies — so the scheduling
semantics (FIFO order, the concurrency cap, cancellation, drain) are
testable with synthetic jobs that just sleep.

Job lifecycle::

    QUEUED ──▶ RUNNING ──▶ COMPLETED
       │          │  └────▶ FAILED
       └──────────┴──────▶ CANCELLED

A queued job cancels immediately (it never starts).  A running job
cancels *cooperatively*: ``cancel_requested`` is set, the study runs to
completion (mid-run preemption would orphan pool workers), and the
runner discards its output and marks it
``CANCELLED``.  Every transition into a terminal state sets the job's
``done`` event, releasing ``result``-waiters.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core import obs

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED)
TERMINAL_STATES = (COMPLETED, FAILED, CANCELLED)

#: Job kinds the service executes.
KINDS = ("study", "sweep")


class QueueFull(RuntimeError):
    """The bounded queue is at capacity; the submit was rejected."""


class Draining(RuntimeError):
    """The service is draining; new submits are rejected."""


class UnknownJob(KeyError):
    """No job with the requested id was ever submitted."""


@dataclass
class Job:
    """One submitted unit of service work and its full lifecycle record."""

    id: str
    kind: str
    config: Dict[str, Any]
    #: Optional paths the daemon writes artifacts to (client-side absolute).
    metrics_out: Optional[str] = None
    report_out: Optional[str] = None

    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Seconds spent waiting in the queue (set when the job starts).
    queue_wait_s: Optional[float] = None
    #: The job's stdout — byte-identical to the direct CLI run.
    output: Optional[str] = None
    error: Optional[str] = None
    #: Study error-ledger size (retryable per-app failures), if run.
    failures: Optional[int] = None
    store_hits: Optional[int] = None
    store_misses: Optional[int] = None
    cancel_requested: bool = False
    done: threading.Event = field(default_factory=threading.Event, repr=False, compare=False)

    def describe(self, include_output: bool = False) -> Dict[str, Any]:
        """The job's wire form (plain JSON-encodable data)."""
        described: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "config": dict(self.config),
            "state": self.state,
            "queue_wait_s": self.queue_wait_s,
            "elapsed_s": (
                self.finished_at - self.started_at
                if self.finished_at is not None and self.started_at is not None
                else None
            ),
            "error": self.error,
            "failures": self.failures,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "cancel_requested": self.cancel_requested,
        }
        if include_output:
            described["output"] = self.output
        return described


class JobQueue:
    """Bounded FIFO of pending jobs plus a registry of all jobs ever seen.

    All state transitions happen under one lock, so observers (the
    ``status`` op, the drain loop) always see a consistent picture.  The
    queue never runs anything — :class:`JobRunner` pulls from it.
    """

    def __init__(self, maxsize: int = 16):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._pending: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._counter = 0
        self._running = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Producer side

    def submit(
        self,
        kind: str,
        config: Dict[str, Any],
        metrics_out: Optional[str] = None,
        report_out: Optional[str] = None,
    ) -> Job:
        """Enqueue a job; raises :class:`Draining` / :class:`QueueFull`."""
        if kind not in KINDS:
            raise ValueError(f"unknown job kind {kind!r} (expected one of {KINDS})")
        with self._changed:
            if self._draining:
                raise Draining("service is draining; not accepting new jobs")
            if len(self._pending) >= self.maxsize:
                raise QueueFull(f"queue is full ({self.maxsize} pending jobs)")
            self._counter += 1
            job = Job(
                id=f"job-{self._counter:04d}",
                kind=kind,
                config=dict(config),
                metrics_out=metrics_out,
                report_out=report_out,
                submitted_at=obs.now(),
            )
            self._jobs[job.id] = job
            self._pending.append(job)
            self._changed.notify_all()
            return job

    # ------------------------------------------------------------------
    # Consumer side (the runner)

    def get(self, timeout: float) -> Optional[Job]:
        """Pop the oldest pending job and mark it RUNNING, or ``None``.

        Blocks up to ``timeout`` seconds waiting for a job to arrive.
        The QUEUED→RUNNING transition happens here, under the queue
        lock, so a concurrent cancel either removes the job before it
        starts or sets ``cancel_requested`` on a running one — never a
        lost race in between.
        """
        with self._changed:
            if not self._pending:
                self._changed.wait(timeout)
            if not self._pending:
                return None
            job = self._pending.popleft()
            job.state = RUNNING
            job.started_at = obs.now()
            job.queue_wait_s = job.started_at - job.submitted_at
            self._running += 1
            return job

    def finish(self, job: Job, state: str, **fields: Any) -> None:
        """Move a RUNNING job into a terminal state and wake waiters."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() requires a terminal state, got {state!r}")
        with self._changed:
            for name, value in fields.items():
                setattr(job, name, value)
            job.state = state
            job.finished_at = obs.now()
            self._running -= 1
            job.done.set()
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # Control plane

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued jobs die now, running ones cooperatively.

        Terminal jobs are left untouched (cancel is idempotent and never
        un-finishes anything).  Returns the job.
        """
        with self._changed:
            job = self._job_locked(job_id)
            if job.state == QUEUED:
                self._pending.remove(job)
                job.state = CANCELLED
                job.finished_at = obs.now()
                job.done.set()
                self._changed.notify_all()
            elif job.state == RUNNING:
                job.cancel_requested = True
            return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            return self._job_locked(job_id)

    def _job_locked(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def jobs(self) -> List[Job]:
        """Every job ever submitted, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def position(self, job: Job) -> Optional[int]:
        """0-based queue position of a pending job, else ``None``."""
        with self._lock:
            try:
                return list(self._pending).index(job)
            except ValueError:
                return None

    def counts(self) -> Dict[str, int]:
        """Jobs per state — the ledger the stats op reconciles against."""
        with self._lock:
            tally = {state: 0 for state in STATES}
            for job in self._jobs.values():
                tally[job.state] += 1
            return tally

    # ------------------------------------------------------------------
    # Drain

    def start_draining(self) -> None:
        """Reject new submits; already-accepted jobs still run."""
        with self._changed:
            self._draining = True
            self._changed.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def running(self) -> int:
        with self._lock:
            return self._running

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is pending or running (True) or timeout."""
        deadline = None if timeout is None else obs.now() + timeout
        with self._changed:
            while self._pending or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - obs.now()
                    if remaining <= 0:
                        return False
                self._changed.wait(remaining if remaining is not None else 1.0)
            return True


class JobRunner:
    """``max_concurrent`` threads pulling jobs off the queue and running them.

    ``execute(job) -> dict`` does the actual work and returns terminal
    job fields (``output``, ``failures``, ...).  The runner owns the
    terminal transition: COMPLETED normally, CANCELLED when a
    cooperative cancel arrived mid-run (the output is discarded), FAILED
    with a traceback when ``execute`` raised.  ``on_finish(job)`` fires
    after every terminal transition — the daemon hangs its
    ``service.jobs.*`` counters there.
    """

    def __init__(
        self,
        queue: JobQueue,
        execute: Callable[[Job], Dict[str, Any]],
        max_concurrent: int = 1,
        on_finish: Optional[Callable[[Job], None]] = None,
    ):
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.queue = queue
        self.execute = execute
        self.max_concurrent = max_concurrent
        self.on_finish = on_finish
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    def start(self) -> None:
        for index in range(self.max_concurrent):
            thread = threading.Thread(target=self._loop, name=f"job-runner-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop pulling new jobs; optionally wait for in-flight ones."""
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.get(timeout=0.1)
            if job is None:
                continue
            self._run(job)

    def _run(self, job: Job) -> None:
        try:
            fields = self.execute(job)
        except BaseException as exc:  # noqa: BLE001 - job isolation boundary
            self.queue.finish(
                job,
                FAILED,
                error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
        else:
            if job.cancel_requested:
                # Cooperative cancel: the work finished, but the caller
                # asked for the job to die — drop its output.
                self.queue.finish(job, CANCELLED, output=None)
            else:
                self.queue.finish(job, COMPLETED, **fields)
        if self.on_finish is not None:
            self.on_finish(job)
