"""The parallel study execution engine.

Shards per-app work units — static scans, two-setting dynamic runs,
circumvention sweeps — across a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping study results bit-for-bit identical to a serial run.

Determinism contract
--------------------

Every work unit is a pure function of ``(corpus, sleep_s, unit)``:

* each worker receives the parent's corpus, capture window, fault
  predicate and pipeline configuration as pool ``initargs`` — inherited
  as they are under ``fork``, pickled under ``spawn`` — and builds its
  pipelines from them;
* per-app randomness derives from the study seed and the app id alone
  (harness run streams, install-time anchors, proxy forgeries), never
  from how many apps ran before on the same worker;
* unit results come back pickled as they are and are merged in
  submission order, so scheduling and completion order cannot leak into
  the output.

The serial path (``plan.serial``) executes the very same unit functions
in the parent process, against lazily built (or caller provided) local
pipelines — one code path, two schedulers.

The pool
--------

One engine-owned pool per run (DESIGN.md §11).  Every pending unit is
submitted at once and results are collected as they complete, each into
its submission position.  On an error the outstanding futures are
cancelled and the pool is shut down.

Fault tolerance
---------------

:meth:`ExecutionEngine.execute` is the one execution path, and it
tolerates failing units: a failed unit is retried up to
``plan.max_retries`` times (with bounded exponential backoff and an
optional per-unit deadline), then **quarantined** — its apps are re-run
solo, each with its own retry budget, so one poisoned app cannot take a
whole chunk's results down.  Apps that still fail become
:class:`~repro.core.exec.faults.UnitFailure` records in the returned
:class:`ExecutionOutcome` instead of exceptions.  The ladder is reserved
for *retryable* faults: deterministic programming errors
(:data:`~repro.core.exec.faults.NON_RETRYABLE_ERRORS`, e.g. an
``AttributeError`` inside a detector or a ``TypeError`` for an unknown
work-unit kind) propagate immediately instead of being retried or
quarantined into the ledger, after the pool is released.  Because unit
purity makes retries and solo re-runs reproduce exactly what an
untroubled run would have computed, the surviving results remain
bit-for-bit identical to a fault-free run — the ledger is the only
difference.

Incremental execution
---------------------

An optional :class:`~repro.core.exec.resultstore.ResultStore` makes
repeated runs incremental: before dispatching a unit the engine asks the
store for it (every app's entry must hit), and completed work is
published back into one pack file per dataset.  Because store keys
fingerprint exactly the inputs a result is a function of — corpus
configuration, capture window, stage, app id, per-app stage config, and
a code-version salt — a warm run recomputes only fingerprint misses and
still merges to bit-for-bit the same study as a cold run, at any worker
count.  The store is also how a killed run resumes: every unit is
published as it completes (temp file + ``os.replace``), so a re-run
against the same store recomputes only the units the killed run had not
finished.

Stage-granular recomputation (DESIGN.md §15): a unit that misses at the
app level may still have warm *stage* artifacts on disk (a config flip
invalidated only the downstream suffix of its stage graph).  The engine
probes for those and runs such units in the parent process with the
stage cache attached — pool workers have no store handle, so partial
recomputation is parent-side by construction — while fully cold units
still ship to the pool.

Garbage collection
------------------

With ``freeze_results`` set, :meth:`ExecutionEngine.execute` calls
:func:`gc.freeze` each time a unit's results land (a store hit, a
serial compute, a pool completion), so later collections scan only the
objects allocated since.  Finished results are acyclic, so freezing
them leaves nothing collectable behind; whoever sets the flag must call
:func:`gc.unfreeze` when the run ends (``Study.run`` does).

``concurrent.futures`` is imported only when a pool is first used: it
pulls in ``multiprocessing``, which a serial run never needs.
"""

from __future__ import annotations

import gc
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import obs
from repro.core.exec.faults import (
    FaultPredicate,
    InjectedFault,
    UnitFailure,
    is_retryable,
)
from repro.core.exec.plan import ExecutionPlan
from repro.core.exec.resultstore import ResultStore

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: A work unit: ``(kind, platform, dataset, indices, extra)``.  ``indices``
#: are positions inside ``corpus.dataset(platform, dataset)``.  ``extra``
#: is the pre-launch wait for dynamic units and the per-index pinned
#: destination tuples for circumvention units.
WorkUnit = Tuple[str, str, str, Tuple[int, ...], object]


@dataclass
class ExecutionOutcome:
    """What a fault-tolerant execution produced.

    Attributes:
        unit_results: per-unit result lists in submission order; apps that
            failed permanently are simply absent from their unit's list.
        failures: the error ledger — one record per abandoned app.
    """

    unit_results: List[list]
    failures: List[UnitFailure] = field(default_factory=list)

    @property
    def items(self) -> list:
        """All results flattened, preserving submission order."""
        return [item for unit in self.unit_results for item in unit]


def _pipeline_config(pipelines: Optional[tuple]) -> dict:
    """The per-kind constructor kwargs mirroring the parent pipelines.

    Passed to pool workers so the pipelines they build carry the same
    config knobs (detector variant, native-scan ablation, hook set) as
    the parent's — worker results must be a function of the *study's*
    configuration, not the constructor defaults.
    """
    if pipelines is None:
        return {}
    static, dynamic, circumvent = pipelines
    config: dict = {}
    if static is not None:
        config["static"] = {
            "jailbroken_device_available": static.jailbroken_device_available,
            "include_native": static.include_native,
        }
    if dynamic is not None:
        config["dynamic"] = {
            "transient_failure_prob": dynamic.transient_failure_prob,
            "detector": dynamic.detector,
        }
    if circumvent is not None:
        config["circumvent"] = {"hook_set": circumvent.hook_set}
    return config


def _build_state(
    corpus,
    sleep_s: float,
    fault_predicate: Optional[FaultPredicate] = None,
    config: Optional[dict] = None,
) -> dict:
    """Process-local execution state; pipelines are built on first use."""
    return {
        "corpus": corpus,
        "sleep_s": sleep_s,
        "faults": fault_predicate,
        "config": config or {},
        "static": None,
        "dynamic": None,
        "circumvent": None,
    }


def _static_pipeline(state: dict):
    if state["static"] is None:
        from repro.core.static.pipeline import StaticPipeline

        state["static"] = StaticPipeline(
            state["corpus"].registry.ctlog,
            fault_predicate=state["faults"],
            **state["config"].get("static", {}),
        )
    return state["static"]


def _dynamic_pipeline(state: dict):
    if state["dynamic"] is None:
        from repro.core.dynamic.pipeline import DynamicPipeline

        state["dynamic"] = DynamicPipeline(
            state["corpus"],
            sleep_s=state["sleep_s"],
            fault_predicate=state["faults"],
            **state["config"].get("dynamic", {}),
        )
    return state["dynamic"]


def _circumvention_pipeline(state: dict):
    if state["circumvent"] is None:
        from repro.core.circumvent.pipeline import CircumventionPipeline

        state["circumvent"] = CircumventionPipeline(
            _dynamic_pipeline(state),
            fault_predicate=state["faults"],
            **state["config"].get("circumvent", {}),
        )
    return state["circumvent"]


def _run_unit(state: dict, unit: WorkUnit, cache=None) -> list:
    """Execute one unit against process-local state.

    ``cache`` is an optional result store (parent-process runs only —
    workers never hold a store handle).  With one, the pipelines' stage
    graphs serve warm stages from it, and the stages they compute are
    held until the whole unit is published: its results and stages in
    one write of its dataset's pack.
    """
    if cache is None:
        return _compute_unit(state, unit)
    with cache.holding():
        results = _compute_unit(state, unit, cache)
        cache.publish_unit(unit, results)
    return results


def _compute_unit(state: dict, unit: WorkUnit, cache=None) -> list:
    """The unit's per-app results, through the stage cache if given."""
    kind, platform, dataset, indices, extra = unit
    apps = state["corpus"].dataset(platform, dataset)
    if kind == "static":
        pipeline = _static_pipeline(state)
        return [
            pipeline.analyze_app(apps[i], cache=cache, dataset=dataset)
            for i in indices
        ]
    if kind == "dynamic":
        pipeline = _dynamic_pipeline(state)
        return [
            pipeline.run_app(
                apps[i],
                pre_launch_wait_s=extra,
                cache=cache,
                dataset=dataset,
            )
            for i in indices
        ]
    if kind == "circumvent":
        pipeline = _circumvention_pipeline(state)
        return [
            pipeline.circumvent_app_pins(
                apps[i], set(pins), cache=cache, dataset=dataset
            )
            for i, pins in zip(indices, extra)
        ]
    # TypeError, not ValueError: a malformed unit is a programming error,
    # which must fail the run rather than ride the retry ladder.
    raise TypeError(f"unknown work-unit kind: {kind!r}")


def _run_unit_timed(state: dict, unit: WorkUnit, cache=None) -> list:
    """Execute one unit inside a top-level telemetry span.

    The span is a no-op when no recorder is active in this process; with
    one, it becomes the unit's depth-0 region, under which the pipelines'
    per-app and per-phase spans nest.
    """
    kind, platform, dataset, indices, _ = unit
    with obs.span(
        f"unit.{kind}",
        cat="exec",
        platform=platform,
        dataset=dataset,
        apps=len(indices),
    ):
        return _run_unit(state, unit, cache=cache)


def split_unit(unit: WorkUnit) -> List[WorkUnit]:
    """Split a unit into per-app solo units (quarantine).

    Circumvention units carry per-index pinned sets in ``extra``; those
    are sliced along with the indices, like
    :meth:`ExecutionEngine.units_for` does.
    """
    kind, platform, dataset, indices, extra = unit
    if kind == "circumvent":
        return [
            (kind, platform, dataset, (index,), (pins,))
            for index, pins in zip(indices, extra)
        ]
    return [(kind, platform, dataset, (index,), extra) for index in indices]


# -- worker-process entry points ---------------------------------------------

_WORKER_STATE: Optional[dict] = None
_WORKER_RECORDER: Optional[obs.Recorder] = None


def _init_worker(
    corpus,
    sleep_s: float,
    fault_predicate: Optional[FaultPredicate],
    telemetry: bool = False,
    config: Optional[dict] = None,
) -> None:
    """Pool initializer: adopt the parent's corpus and configuration.

    Under ``fork`` the arguments are the parent's own objects, inherited
    copy-on-write; under ``spawn`` they arrive pickled.
    """
    global _WORKER_STATE, _WORKER_RECORDER
    if telemetry:
        _WORKER_RECORDER = obs.Recorder().install()
    elif obs.get_recorder() is not None:
        # A forked worker inherits the parent's active recorder (another
        # job's, under the service); nothing would ever drain this copy.
        obs.get_recorder().uninstall()
    _WORKER_STATE = _build_state(corpus, sleep_s, fault_predicate, config)


def _run_unit_in_worker(unit: WorkUnit) -> list:
    assert _WORKER_STATE is not None, "worker used before initialization"
    return _run_unit(_WORKER_STATE, unit)


def _stamp_done(future) -> None:
    """Done-callback: record completion time on the telemetry clock.

    Runs in the executor's collection thread the moment the result lands,
    so queue-wait accounting is not skewed by how long the parent takes
    to get around to consuming earlier futures.
    """
    future.done_t = obs.now()


def _run_unit_in_worker_telemetry(unit: WorkUnit) -> tuple:
    """Telemetry variant: returns ``(result, TelemetrySnapshot)``.

    The snapshot is the worker recorder's delta since its last drain, so
    spans and cache counters of a failed earlier attempt ride along with
    the next successful unit on the same worker — nothing is lost, only
    attributed slightly late.
    """
    assert _WORKER_STATE is not None, "worker used before initialization"
    assert _WORKER_RECORDER is not None
    result = _run_unit_timed(_WORKER_STATE, unit)
    return result, _WORKER_RECORDER.drain()


class ExecutionEngine:
    """Schedules study work units under an :class:`ExecutionPlan`.

    Args:
        corpus: the app corpus, passed to every worker at pool start.
        plan: sharding + scheduling + fault-tolerance configuration;
            defaults to serial.
        sleep_s: dynamic-run capture window, forwarded to worker pipelines.
        pipelines: optional ``(static, dynamic, circumvention)`` triple to
            reuse as the parent-process pipelines for serial execution
            (so a :class:`~repro.core.analysis.study.Study` and its engine
            share devices and identifiers).
        fault_predicate: injectable per-app failure predicate, shipped to
            worker pipelines (testing hook; see
            :mod:`repro.core.exec.faults`).  Caller-provided ``pipelines``
            are assumed to carry their own predicate already.
        recorder: optional telemetry recorder (see :mod:`repro.core.obs`).
            When set, every unit runs under a span, workers stream
            per-unit telemetry snapshots back with their results, and the
            engine counts retries, quarantines, failures, store skips
            and pool-boundary traffic (``exec.ipc.*``).  Must be set
            before the worker pool is first used (pool initialisation
            bakes the telemetry flag in).  Results are bit-for-bit
            identical with and without a recorder.
        store: optional :class:`~repro.core.exec.resultstore.ResultStore`.
            When set, execution consults it before dispatching
            each unit (a full per-app hit skips the unit entirely) and
            publishes completed units back.  Results are bit-for-bit
            identical with and without a store, warm or cold.

    Attributes:
        freeze_results: when true, :meth:`execute` calls
            :func:`gc.freeze` each time a unit's results land.  Off by
            default; an owner that turns it on must call
            :func:`gc.unfreeze` when its run ends.  Results are
            identical either way.
    """

    def __init__(
        self,
        corpus,
        plan: Optional[ExecutionPlan] = None,
        sleep_s: float = 30.0,
        pipelines: Optional[tuple] = None,
        fault_predicate: Optional[FaultPredicate] = None,
        recorder: Optional[obs.Recorder] = None,
        store: Optional[ResultStore] = None,
    ):
        self.corpus = corpus
        self.plan = plan or ExecutionPlan()
        self.sleep_s = sleep_s
        self.fault_predicate = fault_predicate
        self.recorder = recorder
        self.store = store
        self._config = _pipeline_config(pipelines)
        self._state = _build_state(
            corpus, sleep_s, fault_predicate, self._config
        )
        if pipelines is not None:
            static, dynamic, circumvent = pipelines
            self._state["static"] = static
            self._state["dynamic"] = dynamic
            self._state["circumvent"] = circumvent
        self._pool: Optional[ProcessPoolExecutor] = None
        self.freeze_results = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (no-op for serial plans).

        On the error path, :meth:`_dispatch` has already cancelled the
        outstanding futures, so shutdown does not drain work whose
        results will never be consumed.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.plan.worker_count,
                initializer=_init_worker,
                initargs=(
                    self.corpus,
                    self.sleep_s,
                    self.fault_predicate,
                    self.recorder is not None,
                    self._config,
                ),
            )
        return self._pool

    # -- telemetry plumbing ------------------------------------------------

    def _count(self, name: str, n: float = 1) -> None:
        if self.recorder is not None:
            self.recorder.count(name, n)

    def _landed(self) -> None:
        """A unit's results landed: keep later collections off them."""
        if self.freeze_results:
            gc.freeze()

    def _publish(self, unit: WorkUnit, result: list) -> None:
        """Publish one completed unit to the result store, if attached."""
        if self.store is not None:
            self.store.publish_unit(unit, result)

    def _entry(self):
        """The worker entry point matching the telemetry mode."""
        if self.recorder is not None:
            return _run_unit_in_worker_telemetry
        return _run_unit_in_worker

    def _submit(self, pool: ProcessPoolExecutor, unit: WorkUnit):
        """Submit one unit; stamp submit/done times when instrumented."""
        future = pool.submit(self._entry(), unit)
        if self.recorder is not None:
            future.submit_t = obs.now()
            future.add_done_callback(_stamp_done)
            self.recorder.count("exec.ipc.bytes_out", len(pickle.dumps(unit)))
        return future

    def _collect(self, future) -> list:
        """Resolve a future to its unit result, folding telemetry in.

        With a recorder, the worker returns ``(result, snapshot)``: the
        snapshot's counters merge order-independently, its spans are
        rebased from the worker's ``perf_counter`` origin onto the parent
        timeline (anchored so the unit's compute region ends at its
        completion time), and queue-wait (submit-to-done wall time minus
        in-worker compute) plus boundary bytes are recorded per unit.
        """
        if self.recorder is None:
            return future.result()
        result, snapshot = future.result()
        compute_s = snapshot.compute_seconds()
        done_t = getattr(future, "done_t", obs.now())
        wall_s = done_t - getattr(future, "submit_t", done_t)
        self.recorder.merge_snapshot(snapshot, rebase_to=done_t - compute_s)
        self.recorder.observe("exec.unit_wall_s", wall_s)
        self.recorder.observe("exec.unit_compute_s", compute_s)
        self.recorder.observe(
            "exec.unit_queue_wait_s", max(0.0, wall_s - compute_s)
        )
        self.recorder.count("exec.ipc.bytes_in", len(pickle.dumps(result)))
        return result

    def _run_local(self, unit: WorkUnit, cache=None) -> list:
        """Run one unit in-process (the serial scheduler), instrumented."""
        if self.recorder is None:
            return _run_unit(self._state, unit, cache=cache)
        watch = obs.Stopwatch()
        result = _run_unit_timed(self._state, unit, cache=cache)
        self.recorder.observe("exec.unit_compute_s", watch.elapsed())
        return result

    # -- scheduling --------------------------------------------------------

    def _dispatch(
        self,
        pool: ProcessPoolExecutor,
        pending: Iterable[Tuple[int, WorkUnit]],
        collect: Callable[[int, WorkUnit, object], None],
    ) -> None:
        """Submit every ``(position, unit)`` pair, then collect each one.

        ``collect`` is called in *completion* order; callers index results
        by submission position, so merge order remains submission order
        regardless.  If collecting raises, the futures not yet started
        are cancelled before the error propagates.
        """
        from concurrent.futures import as_completed

        submitted = {self._submit(pool, unit): (position, unit) for position, unit in pending}
        try:
            for future in as_completed(submitted):
                position, unit = submitted[future]
                collect(position, unit, future)
        except BaseException:
            for future in submitted:
                future.cancel()
            raise

    # -- sharding ----------------------------------------------------------

    def units_for(
        self,
        kind: str,
        key: Tuple[str, str],
        indices: Sequence[int],
        extra: object = None,
    ) -> List[WorkUnit]:
        """Shard ``indices`` of one dataset into work units.

        For ``circumvent`` units ``extra`` must be a sequence aligned with
        ``indices`` (the pinned destinations of each app); it is sliced
        along with them.  For ``dynamic`` units it is the scalar
        pre-launch wait, replicated into every unit.
        """
        indices = list(indices)
        chunk = self.plan.chunk_for(len(indices))
        units: List[WorkUnit] = []
        for start in range(0, len(indices), chunk):
            block = tuple(indices[start : start + chunk])
            if kind == "circumvent":
                unit_extra: object = tuple(extra[start : start + chunk])
            elif kind == "dynamic":
                unit_extra = float(extra or 0.0)
            else:
                unit_extra = None
            units.append((kind, key[0], key[1], block, unit_extra))
        return units

    # -- execution ---------------------------------------------------------

    def execute(self, units: Sequence[WorkUnit]) -> ExecutionOutcome:
        """Run units with retry, quarantine, and an error ledger.

        Returns per-unit results in submission order.  A serial plan runs
        units in-process; otherwise they are all submitted to the pool
        and merged by submission position, so completion order cannot
        leak into the output.  With a result store attached, units whose every
        app is already stored are composed from the store instead of
        dispatched, and completed units are published back as they
        finish.  Never raises for *retryable* per-unit failures — they
        land in the outcome's ledger.  Non-retryable failures
        (:data:`~repro.core.exec.faults.NON_RETRYABLE_ERRORS` —
        programming errors a retry cannot cure) propagate immediately,
        as do unexpected scheduler-level errors and interrupts, after
        the pool is released.
        """
        units = list(units)
        if self.store is not None:
            # Stage keys must resolve config knobs from the live pipeline
            # configuration, not the graph defaults — bind before any
            # lookup computes a fingerprint.
            self.store.bind_pipelines(
                static=_static_pipeline(self._state),
                dynamic=_dynamic_pipeline(self._state),
                circumvent=_circumvention_pipeline(self._state),
            )
        unit_results: List[Optional[list]] = [None] * len(units)
        failures: List[UnitFailure] = []
        pending: List[Tuple[int, WorkUnit]] = []
        for position, unit in enumerate(units):
            stored = (
                self.store.lookup_unit(unit)
                if self.store is not None
                else None
            )
            if stored is not None:
                unit_results[position] = stored
                self._landed()
                self._count("store.units.skipped")
            else:
                pending.append((position, unit))

        # A batch the store served whole needs no pool: building one
        # would import ``multiprocessing`` for nothing.
        use_pool = bool(pending) and not self.plan.serial
        partial: List[Tuple[int, WorkUnit]] = []
        if use_pool and self.store is not None:
            # Units with warm stage artifacts recompute partially in the
            # parent (workers have no store handle); fully cold units
            # still ship to the pool.
            partial = [
                (position, unit)
                for position, unit in pending
                if self.store.probe_unit_stages(unit)
            ]
            if partial:
                warm = {position for position, _ in partial}
                pending = [
                    (position, unit)
                    for position, unit in pending
                    if position not in warm
                ]
                self._count("store.units.partial", len(partial))
                if not pending:
                    use_pool = False
        try:
            for position, unit in partial:
                unit_results[position] = self._run_with_recovery(
                    unit, failures, use_pool=False
                )
                self._landed()
            if not use_pool:
                for position, unit in pending:
                    unit_results[position] = self._run_with_recovery(
                        unit, failures, use_pool=False
                    )
                    self._landed()
            else:
                pool = self._ensure_pool()

                def on_done(position: int, unit: WorkUnit, future) -> None:
                    try:
                        result = self._collect(future)
                    except Exception as exc:
                        if not is_retryable(exc):
                            # A programming error is deterministic: the
                            # recovery ladder would replay it per retry
                            # and per quarantined app, then launder it
                            # into the ledger.  Fail the run instead.
                            self._count("exec.faults.nonretryable")
                            raise
                        unit_results[position] = self._run_with_recovery(
                            unit, failures, first_error=exc, use_pool=True
                        )
                    else:
                        self._publish(unit, result)
                        unit_results[position] = result
                        self._count("exec.units.completed")
                    self._landed()

                self._dispatch(pool, pending, on_done)
        except BaseException:
            self.close()
            raise

        return ExecutionOutcome(
            [result if result is not None else [] for result in unit_results],
            failures,
        )

    def map_dataset(
        self,
        kind: str,
        key: Tuple[str, str],
        indices: Sequence[int],
        extra: object = None,
    ) -> ExecutionOutcome:
        """Shard and execute one dataset's units."""
        return self.execute(self.units_for(kind, key, indices, extra))

    # -- recovery internals ------------------------------------------------

    def _attempt(self, unit: WorkUnit, use_pool: bool) -> list:
        """One attempt at one unit, on the scheduler the batch chose.

        A successful attempt has published its results to the store, if
        one is attached.  A unit routed to the parent (a partial unit)
        stays there for the whole recovery ladder.
        """
        if not use_pool:
            # Publishes the unit once it completes (see _run_unit).
            return self._run_local(unit, cache=self.store)
        result = self._collect(self._submit(self._ensure_pool(), unit))
        self._publish(unit, result)
        return result

    def _retry(
        self, unit: WorkUnit, first_error: Exception, use_pool: bool
    ) -> Tuple[Optional[list], int, Optional[Exception]]:
        """Retry a failed unit within the plan's budget.

        Returns ``(result, attempts, last_error)`` where ``attempts``
        counts the initial attempt; ``result`` is None when every retry
        failed or the deadline expired.
        """
        plan = self.plan
        attempts = 1
        error: Optional[Exception] = first_error
        deadline = (
            time.monotonic() + plan.retry_deadline_s
            if plan.retry_deadline_s > 0
            else None
        )
        while attempts - 1 < plan.max_retries:
            if deadline is not None and time.monotonic() >= deadline:
                break
            backoff = plan.backoff_for(attempts - 1)
            if backoff > 0:
                time.sleep(backoff)
            attempts += 1
            self._count("exec.retry.attempts")
            try:
                return self._attempt(unit, use_pool), attempts, None
            except Exception as exc:
                if not is_retryable(exc):
                    # A retry "cured" by nondeterminism upstream of a
                    # programming error would mask the bug; propagate.
                    self._count("exec.faults.nonretryable")
                    raise
                error = exc
                self._count_error(exc)
        return None, attempts, error

    def _count_error(self, exc: Exception) -> None:
        """Ledger the error kind: injected faults vs genuine crashes."""
        if isinstance(exc, InjectedFault):
            self._count("exec.faults.injected")
        else:
            self._count("exec.faults.unexpected")

    def _run_with_recovery(
        self,
        unit: WorkUnit,
        failures: List[UnitFailure],
        first_error: Optional[Exception] = None,
        in_quarantine: bool = False,
        use_pool: bool = False,
    ) -> list:
        """Run one unit to a result or a ledger entry.

        The escalation ladder: attempt, retry up to ``plan.max_retries``
        times, then (for multi-app units) quarantine — re-run each app as
        its own solo unit through this same ladder, so only the genuinely
        bad apps are lost.  Survivors are published; casualties become
        :class:`UnitFailure` records.  Only *retryable* errors ride the
        ladder: a non-retryable (programming) error raises out of here
        immediately.
        """
        if first_error is None:
            try:
                result = self._attempt(unit, use_pool)
            except Exception as exc:
                if not is_retryable(exc):
                    # Never enters the retry/quarantine ladder: a
                    # detector's AttributeError is a failed run (under
                    # the service, a failed job), not app flakiness.
                    self._count("exec.faults.nonretryable")
                    raise
                first_error = exc
                self._count_error(exc)
            else:
                self._count("exec.units.completed")
                return result
        else:
            self._count_error(first_error)

        result, attempts, error = self._retry(unit, first_error, use_pool)
        if result is not None:
            self._count("exec.units.completed")
            self._count("exec.units.recovered_by_retry")
            return result

        kind, platform, dataset, indices, _ = unit
        if len(indices) > 1 and self.plan.quarantine:
            self._count("exec.units.quarantined")
            merged: list = []
            for solo in split_unit(unit):
                merged.extend(
                    self._run_with_recovery(
                        solo,
                        failures,
                        in_quarantine=True,
                        use_pool=use_pool,
                    )
                )
            return merged

        apps = self.corpus.dataset(platform, dataset)
        for index in indices:
            self._count("exec.apps.abandoned")
            failures.append(
                UnitFailure(
                    app_id=apps[index].app.app_id,
                    phase=kind,
                    platform=platform,
                    dataset=dataset,
                    index=index,
                    attempts=attempts,
                    error=repr(error),
                    quarantined=in_quarantine,
                )
            )
        return []
