"""Tests for the long-lived study service (DESIGN.md §14).

Two layers, mirroring the package split:

* The job layer (:class:`JobQueue` / :class:`JobRunner`) is exercised
  with synthetic jobs — threads that sleep and signal — so FIFO
  ordering, the concurrency cap, cancellation semantics, and drain are
  testable in milliseconds without running studies.
* The daemon is exercised end-to-end over a real unix socket with the
  real client: byte parity against a direct ``Study.run``, warm-start on
  resubmission, and telemetry-versus-ledger reconciliation.
"""

from __future__ import annotations

import os
import socket as socket_module
import threading
import time

import pytest

from repro.core.analysis import Study
from repro.core.exec import ExecutionPlan
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout
from repro.service import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    Draining,
    JobQueue,
    JobRunner,
    QueueFull,
    ServiceClient,
    ServiceError,
    StudyService,
)

requires_unix_sockets = pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"),
    reason="unix domain sockets unavailable on this platform",
)


def _drained(queue: JobQueue, runner: JobRunner, timeout: float = 10.0) -> None:
    assert queue.wait_idle(timeout=timeout)
    runner.stop()


class TestJobQueue:
    def test_fifo_execution_order(self):
        queue = JobQueue(maxsize=8)
        ran = []

        def execute(job):
            ran.append(job.id)
            return {}

        jobs = [queue.submit("study", {"n": i}) for i in range(4)]
        runner = JobRunner(queue, execute, max_concurrent=1)
        runner.start()
        _drained(queue, runner)
        assert ran == [job.id for job in jobs]
        assert all(job.state == COMPLETED for job in jobs)
        assert all(job.queue_wait_s >= 0 for job in jobs)

    def test_bounded_queue_rejects_when_full(self):
        queue = JobQueue(maxsize=2)
        queue.submit("study", {})
        queue.submit("study", {})
        with pytest.raises(QueueFull):
            queue.submit("study", {})

    def test_concurrency_cap_is_respected(self):
        queue = JobQueue(maxsize=16)
        lock = threading.Lock()
        active = {"now": 0, "peak": 0}

        def execute(job):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.05)
            with lock:
                active["now"] -= 1
            return {}

        for _ in range(6):
            queue.submit("study", {})
        runner = JobRunner(queue, execute, max_concurrent=2)
        runner.start()
        _drained(queue, runner)
        assert active["peak"] <= 2
        assert queue.counts()[COMPLETED] == 6

    def test_serial_runner_never_overlaps(self):
        queue = JobQueue(maxsize=16)
        lock = threading.Lock()
        active = {"now": 0, "peak": 0}

        def execute(job):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.02)
            with lock:
                active["now"] -= 1
            return {}

        for _ in range(4):
            queue.submit("study", {})
        runner = JobRunner(queue, execute, max_concurrent=1)
        runner.start()
        _drained(queue, runner)
        assert active["peak"] == 1

    def test_cancel_before_start_never_runs(self):
        queue = JobQueue(maxsize=8)
        ran = []
        job = queue.submit("study", {})
        assert job.state == QUEUED
        cancelled = queue.cancel(job.id)
        assert cancelled.state == CANCELLED
        assert job.done.is_set()

        runner = JobRunner(queue, lambda j: ran.append(j.id) or {}, max_concurrent=1)
        runner.start()
        _drained(queue, runner, timeout=2.0)
        assert ran == []

    def test_cancel_mid_run_discards_output(self):
        queue = JobQueue(maxsize=8)
        started = threading.Event()
        release = threading.Event()

        def execute(job):
            started.set()
            assert release.wait(timeout=5)
            return {"output": "doomed"}

        runner = JobRunner(queue, execute, max_concurrent=1)
        runner.start()
        job = queue.submit("study", {})
        assert started.wait(timeout=5)
        queue.cancel(job.id)
        assert job.cancel_requested
        release.set()
        _drained(queue, runner)
        assert job.state == CANCELLED
        assert job.output is None

    def test_drain_rejects_submits_but_finishes_accepted(self):
        queue = JobQueue(maxsize=8)
        release = threading.Event()

        def execute(job):
            assert release.wait(timeout=5)
            return {"output": job.id}

        accepted = [queue.submit("study", {}) for _ in range(3)]
        runner = JobRunner(queue, execute, max_concurrent=1)
        runner.start()
        queue.start_draining()
        with pytest.raises(Draining):
            queue.submit("study", {})
        release.set()
        _drained(queue, runner)
        assert all(job.state == COMPLETED for job in accepted)
        assert all(job.output == job.id for job in accepted)

    def test_failed_execute_records_the_error(self):
        queue = JobQueue(maxsize=8)

        def execute(job):
            raise ValueError("synthetic job explosion")

        finished = []
        runner = JobRunner(queue, execute, max_concurrent=1, on_finish=finished.append)
        runner.start()
        job = queue.submit("study", {})
        _drained(queue, runner)
        assert job.state == FAILED
        assert "synthetic job explosion" in job.error
        assert finished == [job]

    def test_unknown_job_and_idempotent_cancel(self):
        from repro.service import UnknownJob

        queue = JobQueue(maxsize=8)
        with pytest.raises(UnknownJob):
            queue.job("job-9999")
        job = queue.submit("study", {})
        queue.cancel(job.id)
        # Cancelling a terminal job is a no-op, not an error.
        assert queue.cancel(job.id).state == CANCELLED


@requires_unix_sockets
class TestStudyServiceEndToEnd:
    """One daemon lifecycle covering the full tentpole contract."""

    SEED = 2022
    SCALE = 0.02

    def _direct_output(self) -> str:
        config = CorpusConfig(seed=self.SEED).scaled(self.SCALE)
        corpus = CorpusGenerator(config).generate()
        results = Study(corpus, plan=ExecutionPlan(workers=2)).run()
        return render_study_stdout(results)

    def test_service_lifecycle(self, tmp_path):
        socket_path = str(tmp_path / "svc.sock")
        service = StudyService(
            socket_path=socket_path,
            store_dir=str(tmp_path / "store"),
        )
        service.start()
        try:
            client = ServiceClient(socket_path)
            assert client.ping()["pid"] == os.getpid()

            # Cold job: output must be byte-identical to a direct run.
            config = {"seed": self.SEED, "scale": self.SCALE, "workers": 2}
            metrics_path = tmp_path / "job-metrics.json"
            job = client.submit_and_wait(
                "study", config, metrics_out=str(metrics_path)
            )
            assert job["state"] == COMPLETED, job.get("error")
            assert job["output"] == self._direct_output()
            assert metrics_path.exists()

            # Warm resubmission: >=95% of units come from the shared store,
            # output unchanged.
            warm = client.submit_and_wait("study", config)
            assert warm["state"] == COMPLETED, warm.get("error")
            assert warm["output"] == job["output"]
            lookups = warm["store_hits"] + warm["store_misses"]
            assert lookups > 0
            assert warm["store_hits"] / lookups >= 0.95

            # Telemetry counters reconcile against the job ledger.
            stats = client.stats()
            counters = stats["counters"]
            ledger = stats["jobs"]
            assert counters["service.jobs.submitted"] == sum(ledger.values()) == 2
            assert counters["service.jobs.completed"] == ledger[COMPLETED] == 2
            assert counters.get("service.jobs.failed", 0) == ledger[FAILED] == 0
            assert counters.get("service.jobs.cancelled", 0) == ledger[CANCELLED]
            assert counters["service.corpus.built"] == 1
            # Engine/store metrics merged up into the service recorder.
            assert counters["store.units.hit"] == warm["store_hits"]

            # Job-level errors come back as typed protocol errors.
            with pytest.raises(ServiceError) as err:
                client.status("job-9999")
            assert err.value.code == "unknown-job"

            # Draining rejects new submissions.
            service.queue.start_draining()
            with pytest.raises(ServiceError) as err:
                client.submit("study", config)
            assert err.value.code == "draining"
        finally:
            assert service.drain(timeout=60)
            service.stop()
        # A clean stop removes the socket file.
        assert not os.path.exists(socket_path)

    def test_failed_job_surfaces_error(self, tmp_path):
        socket_path = str(tmp_path / "svc.sock")
        service = StudyService(socket_path=socket_path)
        service.start()
        try:
            client = ServiceClient(socket_path)
            job = client.submit_and_wait("study", {"scale": "not-a-number"})
            assert job["state"] == FAILED
            assert job["error"]
            stats = client.stats()
            assert stats["counters"]["service.jobs.failed"] == 1
        finally:
            service.drain(timeout=30)
            service.stop()

    def test_bool_workers_job_fails(self, tmp_path):
        # JSON ``true`` must not pass for one worker.
        socket_path = str(tmp_path / "svc.sock")
        service = StudyService(socket_path=socket_path)
        service.start()
        try:
            client = ServiceClient(socket_path)
            job = client.submit_and_wait(
                "study", {"scale": self.SCALE, "workers": True}
            )
            assert job["state"] == FAILED
            assert "workers must be >= 1" in job["error"]
        finally:
            service.drain(timeout=30)
            service.stop()

    def test_bad_requests_are_rejected(self, tmp_path):
        socket_path = str(tmp_path / "svc.sock")
        service = StudyService(socket_path=socket_path)
        service.start()
        try:
            client = ServiceClient(socket_path)
            with pytest.raises(ServiceError) as err:
                client.submit("frobnicate", {})
            assert err.value.code == "bad-request"
        finally:
            service.drain(timeout=30)
            service.stop()
