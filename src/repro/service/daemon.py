""":class:`StudyService` — the long-lived daemon behind ``repro serve``.

What stays warm across jobs (the whole point of the service):

* **One result store.**  Every non-faulted job runs against the same
  content-addressed store directory, so a second submission of an
  overlapping configuration warm-starts from the first one's entries.
  Each job gets a *fresh* :class:`~repro.core.exec.ResultStore` handle
  on that directory, so per-job hit/miss statistics stay per-job.
* **Per-``(seed, scale)`` corpora.**  Generation is deterministic, so
  each corpus is built once and cached; sweeps share the same cache
  dict in place.

A job with ``workers`` above 1 runs on a pool of its own, started and
shut down by its study like a direct CLI run's.

Jobs execute through the ordinary ``Study`` / ``SweepEngine`` machinery
and render through :mod:`repro.reporting.render`, so their output is
byte-identical to a direct CLI run.  Each job runs under its own
:class:`~repro.core.obs.Recorder`; after optional per-job metrics
export, the job recorder merges into the service-level recorder, which
accumulates ``service.jobs.{submitted,completed,failed,cancelled}``, the
``service.job.queue_wait_s`` histogram and the corpus reuse counters
alongside every engine/store metric the jobs produced.

Shutdown is a graceful drain: on SIGTERM (or the ``shutdown`` op) the
queue rejects new submits, accepted jobs run to completion, the socket
is torn down, and the process exits 0.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core import obs
from repro.core.analysis import Study
from repro.core.exec import ExecutionPlan, ResultStore, SeededFaults
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout, render_sweep_stdout
from repro.service import protocol
from repro.service.jobs import (
    Draining,
    Job,
    JobQueue,
    JobRunner,
    QueueFull,
    UnknownJob,
)


class StudyService:
    """The daemon: socket server + job runner + warm corpora and store.

    Args:
        socket_path: unix-domain socket to listen on.
        store_dir: shared result-store directory; ``None`` disables the
            cross-job store (every job runs cold).
        sleep_s: dynamic capture window, fixed service-wide — it enters
            corpus/store fingerprints, so one service serves one value.
        queue_size: bounded FIFO capacity; submits beyond it fail fast.
        max_concurrent: jobs running simultaneously.  The default of 1
            serialises jobs, which keeps the per-job telemetry funnel
            exact; higher values trade precise per-job attribution of
            funnel counters for throughput (service totals stay exact).
        log: optional callable for daemon commentary lines.
    """

    def __init__(
        self,
        socket_path: str = protocol.DEFAULT_SOCKET,
        store_dir: Optional[str] = None,
        sleep_s: float = 30.0,
        queue_size: int = 16,
        max_concurrent: int = 1,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.socket_path = str(socket_path)
        self.store_dir = store_dir
        self.sleep_s = sleep_s
        self.recorder = obs.Recorder()
        self.queue = JobQueue(maxsize=queue_size)
        self.runner = JobRunner(
            self.queue,
            self._execute,
            max_concurrent=max_concurrent,
            on_finish=self._on_finish,
        )
        self._log = log or (lambda line: None)
        self._corpora: Dict[Tuple[int, float], Any] = {}
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Warm execution state

    def _corpus(self, seed: int, scale: float):
        key = (int(seed), float(scale))
        if key in self._corpora:
            self.recorder.count("service.corpus.reused")
            return self._corpora[key]
        config = CorpusConfig(seed=key[0])
        if key[1] != 1.0:
            config = config.scaled(key[1])
        corpus = CorpusGenerator(config).generate()
        self._corpora[key] = corpus
        self.recorder.count("service.corpus.built")
        return corpus

    def _store_for(self, corpus) -> Optional[ResultStore]:
        if self.store_dir is None:
            return None
        return ResultStore(self.store_dir, corpus, sleep_s=self.sleep_s)

    # ------------------------------------------------------------------
    # Job execution (runner threads)

    def _execute(self, job: Job) -> Dict[str, Any]:
        self.recorder.observe("service.job.queue_wait_s", job.queue_wait_s or 0.0)
        self._log(f"{job.id}: running {job.kind}")
        if job.kind == "study":
            return self._execute_study(job)
        return self._execute_sweep(job)

    def _execute_study(self, job: Job) -> Dict[str, Any]:
        cfg = job.config
        corpus = self._corpus(cfg.get("seed", 2022), cfg.get("scale", 0.1))
        plan = ExecutionPlan(
            workers=cfg.get("workers", 1),
            chunk_size=cfg.get("chunk_size", 0),
            max_retries=cfg.get("max_retries", 1),
        )
        fault_rate = cfg.get("fault_rate", 0.0)
        faults = None
        if fault_rate > 0:
            faults = SeededFaults(fault_rate, seed=cfg.get("fault_seed", 0))
        # Faulted jobs run store-less: a hit would bypass the injection
        # site.
        store = self._store_for(corpus) if faults is None else None
        recorder = obs.Recorder()
        study = Study(
            corpus,
            sleep_s=self.sleep_s,
            plan=plan,
            fault_predicate=faults,
        )
        results = study.run(recorder=recorder, store=store)
        output = render_study_stdout(results)
        self._export_job_metrics(job, recorder)
        self.recorder.merge_from(recorder)
        return {
            "output": output,
            "failures": len(results.failures),
            "store_hits": store.stats.unit_hits if store is not None else None,
            "store_misses": store.stats.unit_misses if store is not None else None,
        }

    def _execute_sweep(self, job: Job) -> Dict[str, Any]:
        from repro.core.sweep import SweepEngine, SweepSpec

        cfg = job.config
        spec = SweepSpec(
            seeds=tuple(cfg.get("seeds") or [2022]),
            scales=tuple(cfg.get("scales") or [0.1]),
            fault_rates=tuple(cfg.get("fault_rates") or [0.0]),
            detectors=tuple(cfg.get("detectors") or ["full"]),
            workers=tuple(cfg.get("workers") or [1]),
        )
        engine = SweepEngine(
            spec,
            sleep_s=self.sleep_s,
            store_dir=self.store_dir,
            fault_seed=cfg.get("fault_seed", 0),
            progress=lambda line: self._log(f"{job.id}: {line}"),
            corpora=self._corpora,
        )
        results = engine.run()
        output = render_sweep_stdout(results)
        if job.report_out:
            import json

            with open(job.report_out, "w", encoding="utf-8") as handle:
                json.dump(results.to_json_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        if results.telemetry is not None:
            self._export_job_metrics(job, results.telemetry)
            self.recorder.merge_from(results.telemetry)
        hits = sum(p.store_hits or 0 for p in results.points)
        misses = sum(p.store_misses or 0 for p in results.points)
        stored = any(p.store_hits is not None for p in results.points)
        return {
            "output": output,
            "failures": sum(p.failures for p in results.points),
            "store_hits": hits if stored else None,
            "store_misses": misses if stored else None,
        }

    def _export_job_metrics(self, job: Job, recorder: "obs.Recorder") -> None:
        """Write the job's own metrics JSON before it merges away."""
        if job.metrics_out:
            recorder.write_metrics(job.metrics_out)

    def _on_finish(self, job: Job) -> None:
        self.recorder.count(f"service.jobs.{job.state}")
        detail = f" ({job.error.splitlines()[0]})" if job.error else ""
        self._log(f"{job.id}: {job.state}{detail}")

    # ------------------------------------------------------------------
    # Socket server

    def start(self) -> None:
        """Bind the socket and start accepting requests and running jobs."""
        self._claim_socket()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self.runner.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()
        self._started = True
        self._log(
            f"listening on {self.socket_path} "
            f"(store={self.store_dir or 'off'})"
        )

    def _claim_socket(self) -> None:
        """Take over a stale socket file; refuse a live one."""
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.5)
            probe.connect(self.socket_path)
        except OSError:
            os.unlink(self.socket_path)  # stale leftover from a dead daemon
        else:
            raise RuntimeError(f"a service is already listening on {self.socket_path}")
        finally:
            probe.close()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed during shutdown
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="service-conn",
                daemon=True,
            )
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while True:
                try:
                    request = protocol.read_message(stream)
                except protocol.ProtocolError as exc:
                    protocol.write_message(stream, protocol.error_response("protocol", str(exc)))
                    return
                if request is None:
                    return
                protocol.write_message(stream, self._dispatch(request))
        except (BrokenPipeError, ConnectionResetError, ValueError, OSError):
            pass  # peer went away mid-exchange; nothing to clean up
        finally:
            try:
                stream.close()
            finally:
                conn.close()

    # ------------------------------------------------------------------
    # Request dispatch

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        handler = {
            "submit": self._op_submit,
            "status": self._op_status,
            "result": self._op_result,
            "cancel": self._op_cancel,
            "stats": self._op_stats,
            "ping": self._op_ping,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            return protocol.error_response("unknown-op", f"unknown op {op!r}")
        try:
            return handler(request)
        except UnknownJob as exc:
            return protocol.error_response("unknown-job", f"no such job: {exc}")
        except Exception as exc:  # noqa: BLE001 - connection isolation boundary
            return protocol.error_response("internal", f"{type(exc).__name__}: {exc}")

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        kind = request.get("kind")
        config = request.get("config")
        if kind not in ("study", "sweep"):
            return protocol.error_response(
                "bad-request", f"kind must be 'study' or 'sweep', got {kind!r}"
            )
        if not isinstance(config, dict):
            return protocol.error_response("bad-request", "config must be an object")
        try:
            job = self.queue.submit(
                kind,
                config,
                metrics_out=request.get("metrics_out"),
                report_out=request.get("report_out"),
            )
        except Draining as exc:
            return protocol.error_response("draining", str(exc))
        except QueueFull as exc:
            return protocol.error_response("queue-full", str(exc))
        self.recorder.count("service.jobs.submitted")
        self._log(f"{job.id}: submitted {kind}")
        return protocol.ok_response(job=job.describe(), position=self.queue.position(job))

    def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self.queue.job(str(request.get("id")))
        return protocol.ok_response(job=job.describe(), position=self.queue.position(job))

    def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self.queue.job(str(request.get("id")))
        if request.get("wait", True):
            timeout = request.get("timeout")
            if not job.done.wait(timeout):
                return protocol.error_response("timeout", f"{job.id} still {job.state}")
        return protocol.ok_response(job=job.describe(include_output=True))

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self.queue.cancel(str(request.get("id")))
        return protocol.ok_response(job=job.describe())

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.ok_response(
            pid=os.getpid(),
            draining=self.queue.draining,
            jobs=self.queue.counts(),
            counters=self.recorder.counters(),
        )

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.ok_response(pid=os.getpid())

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._log("shutdown requested")
        self._stop.set()
        return protocol.ok_response(draining=True)

    # ------------------------------------------------------------------
    # Lifecycle

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Reject new submits and wait for accepted jobs to finish."""
        self.queue.start_draining()
        return self.queue.wait_idle(timeout)

    def stop(self) -> None:
        """Tear everything down: runner, listener, socket file."""
        self._stop.set()
        if self._started:
            self.runner.stop(wait=True)
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=2.0)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._started = False

    def serve_forever(self) -> int:
        """Run until SIGTERM/SIGINT or a ``shutdown`` op, then drain.

        Returns the process exit code: 0 after a clean drain.
        """
        self.start()
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, lambda *_: self._stop.set())
        try:
            while not self._stop.wait(0.2):
                pass
            self._log("draining")
            self.drain()
            self._log("drained; exiting")
            return 0
        finally:
            self.stop()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # Context manager form for in-process use (tests).
    def __enter__(self) -> "StudyService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()
        self.stop()
