"""The parallel study execution engine.

Shards per-app work units — static scans, two-setting dynamic runs,
circumvention sweeps — across a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping study results bit-for-bit identical to a serial run.

Determinism contract
--------------------

Every work unit is a pure function of ``(corpus, sleep_s, unit)``:

* each worker obtains a corpus identical to the parent's through a
  :class:`WorkerBootstrap` — inherited copy-on-write under ``fork``,
  rebuilt locally from a :class:`~repro.corpus.spec.CorpusSpec`
  otherwise — and every non-inherited corpus is fingerprint-verified
  against the parent's before any unit runs;
* per-app randomness derives from the study seed and the app id alone
  (harness run streams, install-time anchors, proxy forgeries), never
  from how many apps ran before on the same worker;
* unit results are merged back in submission order, so scheduling and
  completion order cannot leak into the output.

The serial path (``plan.serial``) executes the very same unit functions
in the parent process, against lazily built (or caller provided) local
pipelines — one code path, two schedulers.

Pool-boundary economics
-----------------------

Three mechanisms keep the boundary cheaper than the work it distributes
(DESIGN.md §11):

* **Spec bootstrap** — pool ``initargs`` carry a few-dozen-byte corpus
  spec instead of the multi-megabyte corpus pickle; workers rebuild (or
  inherit) the world locally.
* **Compact payloads** — unit results travel as slim-tuple encodings
  (:mod:`repro.core.exec.payload`) and are rehydrated parent-side,
  memoized against the parent corpus.
* **Cost-aware scheduling** — units are sized per kind from
  :mod:`repro.core.exec.costmodel`, dispatched through a bounded
  in-flight window (fast units backfill stragglers without unbounded
  queueing), and an ``adaptive`` plan falls back to the serial path
  when the modeled dispatch overhead exceeds the modeled parallel win.

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
published back into one slot file per app.  Because store keys
fingerprint exactly the inputs a result is a function of — corpus
configuration, capture window, stage, app id, per-app stage config, and
a code-version salt — a warm run recomputes only fingerprint misses and
still merges to bit-for-bit the same study as a cold run, at any worker
count.  The store is also how a killed run resumes: a unit run in the
parent publishes each app as it completes, a pool unit as it returns
(temp file + ``os.replace``), so a re-run against the same store
recomputes only what the killed run had not finished.

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
pulls in ``multiprocessing``, which a serial run never needs.  The cost
model is imported where a pool plan consults it, for the same reason.
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
from repro.core.exec.resultstore import ResultStore, corpus_fingerprint
from repro.corpus.spec import CorpusSpec

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


#: The pipeline constructor knobs worker processes rebuild with when the
#: parent ships no overrides — one entry per stage-graph config knob that
#: is not already threaded separately (``sleep_s``, fault predicate).
DEFAULT_PIPELINE_CONFIG = {
    "static": {"jailbroken_device_available": True, "include_native": True},
    "dynamic": {"transient_failure_prob": 0.015, "detector": "full"},
    "circumvent": {"hook_set": None},
}


def _pipeline_config(pipelines: Optional[tuple]) -> dict:
    """The per-kind constructor kwargs mirroring the parent pipelines.

    Shipped to pool workers so their rebuilt pipelines carry the same
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


def _config_is_default(config: dict) -> bool:
    """Whether a pipeline config matches the worker-rebuild defaults."""
    return all(
        config.get(kind, defaults) == defaults
        for kind, defaults in DEFAULT_PIPELINE_CONFIG.items()
    )


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
    graphs serve warm stages from it, and each app is published as it
    completes: its computed stages and its result in one slot write.
    """
    if cache is None:
        return _compute_unit(state, unit)
    results: list = []
    with cache.holding():
        for solo in split_unit(unit):
            result = _compute_unit(state, solo, cache)
            cache.publish_unit(solo, result)
            results.extend(result)
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


# -- worker bootstrap --------------------------------------------------------

#: The corpus of the engine that most recently opened a pool, published
#: for copy-on-write inheritance: under the ``fork`` start method a
#: worker process sees this module global already set and (after a
#: fingerprint check) adopts it without any serialization or rebuild.
_PARENT_CORPUS = None


@dataclass
class WorkerBootstrap:
    """Everything a worker needs to obtain its corpus.

    Three sources, in order of preference at :meth:`resolve` time:

    * ``inherited`` — the forked copy of :data:`_PARENT_CORPUS`, when its
      fingerprint matches (zero-copy; Linux/macOS-fork pools);
    * ``unpickled`` — the corpus shipped by value, when present (the
      ``bootstrap="pickle"`` escape hatch for hand-mutated corpora);
    * ``rebuilt`` — regenerated from the spec and verified against the
      parent's fingerprint (spawn platforms; the production parity gate:
      a divergent rebuild raises instead of computing wrong results).
    """

    fingerprint: str
    spec: Optional[CorpusSpec] = None
    corpus: Optional[object] = None

    @classmethod
    def for_corpus(cls, corpus, mode: str = "auto") -> "WorkerBootstrap":
        """The bootstrap an engine ships for ``corpus`` under ``mode``."""
        fingerprint = corpus_fingerprint(corpus)
        if mode != "pickle":
            spec = CorpusSpec.from_corpus(corpus)
            if spec is not None and spec.fingerprint() == fingerprint:
                return cls(fingerprint=fingerprint, spec=spec)
            if mode == "spec":
                raise ValueError(
                    "corpus is not spec-representable (mutated datasets "
                    "or non-generator shape); use bootstrap='pickle'"
                )
        return cls(fingerprint=fingerprint, corpus=corpus)

    def payload_bytes(self) -> int:
        """Bytes this bootstrap pickles to — what one worker's initargs
        cost on start methods that serialize them (``spawn``)."""
        return len(pickle.dumps(self))

    def resolve(self) -> Tuple[object, str]:
        """The worker-local corpus and how it was obtained."""
        parent = _PARENT_CORPUS
        if parent is not None and corpus_fingerprint(parent) == self.fingerprint:
            return parent, "inherited"
        if self.corpus is not None:
            return self.corpus, "unpickled"
        assert self.spec is not None
        rebuilt = self.spec.build()
        if corpus_fingerprint(rebuilt) != self.fingerprint:
            raise RuntimeError(
                "worker corpus rebuild diverged from the parent corpus "
                f"(spec {self.spec!r}); the generator is not deterministic "
                "on this platform"
            )
        return rebuilt, "rebuilt"


# -- worker-process entry points ---------------------------------------------

_WORKER_STATE: Optional[dict] = None
_WORKER_RECORDER: Optional[obs.Recorder] = None


def _payload():
    """The payload codec, imported lazily: it pulls in the pipelines'
    result models, which transitively import this package."""
    from repro.core.exec import payload

    return payload


def _init_worker(
    bootstrap: WorkerBootstrap,
    sleep_s: float,
    fault_predicate: Optional[FaultPredicate],
    telemetry: bool = False,
    config: Optional[dict] = None,
) -> None:
    """Pool initializer: resolve the corpus once per worker process.

    With telemetry on, the init cost and bootstrap mode are recorded in
    the worker recorder and ride back with the first unit's snapshot
    (``exec.worker.init_s`` / ``exec.bootstrap.*``).
    """
    global _WORKER_STATE, _WORKER_RECORDER
    if telemetry:
        _WORKER_RECORDER = obs.Recorder().install()
    elif obs.get_recorder() is not None:
        # A forked worker inherits the parent's active recorder (another
        # job's, under the service); nothing would ever drain this copy.
        obs.get_recorder().uninstall()
    watch = obs.Stopwatch()
    corpus, how = bootstrap.resolve()
    _WORKER_STATE = _build_state(corpus, sleep_s, fault_predicate, config)
    obs.observe("exec.worker.init_s", watch.elapsed())
    obs.count(f"exec.bootstrap.{how}")


def _run_unit_in_worker(unit: WorkUnit) -> tuple:
    assert _WORKER_STATE is not None, "worker used before initialization"
    return _payload().encode_unit(unit[0], _run_unit(_WORKER_STATE, unit))


def _stamp_done(future) -> None:
    """Done-callback: record completion time on the telemetry clock.

    Runs in the executor's collection thread the moment the result lands,
    so queue-wait accounting is not skewed by how long the parent takes
    to get around to consuming earlier futures.
    """
    future.done_t = obs.now()


def _run_unit_in_worker_telemetry(unit: WorkUnit) -> tuple:
    """Telemetry variant: returns ``(encoded_result, TelemetrySnapshot)``.

    The snapshot is the worker recorder's delta since its last drain, so
    spans and cache counters of a failed earlier attempt ride along with
    the next successful unit on the same worker — nothing is lost, only
    attributed slightly late.
    """
    assert _WORKER_STATE is not None, "worker used before initialization"
    assert _WORKER_RECORDER is not None
    result = _run_unit_timed(_WORKER_STATE, unit)
    return _payload().encode_unit(unit[0], result), _WORKER_RECORDER.drain()


class WarmPool:
    """A worker pool whose lifetime outlives any single engine or run.

    One-shot invocations pay the pool tax — process spawn, corpus
    bootstrap, pipeline construction in every worker — once per run and
    then throw the warm state away.  A :class:`WarmPool` inverts that
    ownership: the pool (and the bootstrap it was initialized with) is
    created once, handed to any number of consecutive
    :class:`ExecutionEngine` instances via their ``pool=`` argument, and
    shut down by whoever created it.  ``ExecutionEngine.close`` never
    shuts a shared pool down.

    Reuse is gated by :meth:`compatible_with`: worker state is baked in
    at pool initialization (corpus, capture window, fault predicate,
    telemetry mode), so an engine whose configuration differs gets its
    own transient pool instead — correctness never depends on a
    compatibility hit.  Because unit results are pure functions of
    ``(corpus, sleep_s, unit)``, results computed on a reused pool are
    bit-for-bit identical to a fresh pool's (the engine's determinism
    contract; warm worker pipelines are the same reuse the engine
    already performs *within* one run, stretched across runs).

    Only fault-free configurations are shareable: a fault predicate is
    baked into worker pipelines at init, so pools for fault-injected
    runs stay private to their engine.
    """

    def __init__(
        self,
        corpus,
        workers: int,
        sleep_s: float = 30.0,
        telemetry: bool = False,
        bootstrap: str = "auto",
    ):
        global _PARENT_CORPUS
        self.corpus = corpus
        self.fingerprint = corpus_fingerprint(corpus)
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.sleep_s = float(sleep_s)
        self.telemetry = bool(telemetry)
        self.bootstrap = WorkerBootstrap.for_corpus(corpus, bootstrap)
        # Publish for copy-on-write inheritance exactly like an
        # engine-owned pool would; workers fork lazily on first submit.
        # An engine-owned pool for a different corpus may republish this
        # global later — workers forked after that fall back to the
        # fingerprint-verified spec rebuild, so reuse degrades to a
        # rebuild, never to wrong results.
        _PARENT_CORPUS = corpus
        from concurrent.futures import ProcessPoolExecutor

        self._executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.bootstrap, self.sleep_s, None, self.telemetry),
        )

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise RuntimeError("warm pool has been shut down")
        return self._executor

    @property
    def closed(self) -> bool:
        return self._executor is None

    def compatible_with(
        self,
        corpus,
        sleep_s: float,
        fault_predicate: Optional[FaultPredicate],
        telemetry: bool,
        config: Optional[dict] = None,
    ) -> bool:
        """Whether an engine with this configuration may run on the pool.

        Everything baked into worker state at init must match: the
        corpus (by fingerprint — same fingerprint, same object graph),
        the capture window, telemetry mode (it selects the worker entry
        point and result envelope), the absence of a fault predicate,
        and default pipeline config knobs (warm-pool workers are built
        with :data:`DEFAULT_PIPELINE_CONFIG`; an engine carrying a
        non-default detector, hook set or scan ablation gets its own
        pool).
        """
        if self._executor is None:
            return False
        return (
            fault_predicate is None
            and float(sleep_s) == self.sleep_s
            and bool(telemetry) == self.telemetry
            and _config_is_default(config or {})
            and (
                corpus is self.corpus
                or corpus_fingerprint(corpus) == self.fingerprint
            )
        )

    def shutdown(self) -> None:
        """Shut the pool down (idempotent); owner-only."""
        global _PARENT_CORPUS
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if _PARENT_CORPUS is self.corpus:
            _PARENT_CORPUS = None

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ExecutionEngine:
    """Schedules study work units under an :class:`ExecutionPlan`.

    Args:
        corpus: the app corpus.  Workers receive its
            :class:`WorkerBootstrap` (spec or pickle, per
            ``plan.bootstrap``), never the corpus itself unless the
            pickle escape hatch is in force.
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
        pool: optional externally owned :class:`WarmPool`.  When
            compatible (same corpus fingerprint, capture window,
            telemetry mode, no fault predicate) the engine runs its
            units on it instead of spinning up its own pool, and
            :meth:`close` leaves it running for the next consumer.  An
            incompatible pool is simply ignored (counted as
            ``exec.pool.incompatible``); results are identical either
            way.

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
        pool: Optional[WarmPool] = None,
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
        self._shared_pool = pool
        self._pool_is_shared = False
        self._rehydrator = None
        self.freeze_results = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the worker pool (no-op for serial plans).

        An engine-owned pool is shut down; a *shared* :class:`WarmPool`
        is merely detached: its owner decides when the warm state dies.
        On the error path, :meth:`_dispatch_windowed` has already
        cancelled the queued remainder, so shutdown does not drain work
        whose results will never be consumed.
        """
        global _PARENT_CORPUS
        if self._pool is not None:
            if not self._pool_is_shared:
                self._pool.shutdown()
            self._pool = None
            self._pool_is_shared = False
        # Keep the corpus published while a live shared pool still wants
        # it: its not-yet-forked workers inherit through this global.
        keep_published = (
            self._shared_pool is not None
            and not self._shared_pool.closed
            and self._shared_pool.corpus is self.corpus
        )
        if not keep_published and _PARENT_CORPUS is self.corpus:
            _PARENT_CORPUS = None

    def _shared_pool_usable(self) -> bool:
        """Whether the attached shared pool can serve this engine."""
        return self._shared_pool is not None and (
            self._shared_pool.compatible_with(
                self.corpus,
                self.sleep_s,
                self.fault_predicate,
                self.recorder is not None,
                config=self._config,
            )
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._shared_pool_usable():
                self._pool = self._shared_pool.executor
                self._pool_is_shared = True
                self._count("exec.pool.reused")
                return self._pool
            if self._shared_pool is not None:
                self._count("exec.pool.incompatible")
            global _PARENT_CORPUS
            bootstrap = WorkerBootstrap.for_corpus(
                self.corpus, self.plan.bootstrap
            )
            # Publish the corpus for copy-on-write inheritance before the
            # executor exists: workers are forked lazily on first submit,
            # always after this point.
            _PARENT_CORPUS = self.corpus
            workers = self.plan.worker_count
            if self.recorder is not None:
                self.recorder.count(
                    "exec.ipc.corpus_bytes",
                    bootstrap.payload_bytes() * workers,
                )
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(
                    bootstrap,
                    self.sleep_s,
                    self.fault_predicate,
                    self.recorder is not None,
                    self._config,
                ),
            )
            self._pool_is_shared = False
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

    def _rehydrate(self, encoded: tuple) -> list:
        if self._rehydrator is None:
            self._rehydrator = _payload().Rehydrator(self.corpus)
        return self._rehydrator.decode_unit(encoded)

    def _collect(self, future) -> list:
        """Resolve a future to its unit result, folding telemetry in.

        The worker returns the unit's compact payload encoding; it is
        rehydrated here against the parent corpus.  With a recorder, the
        worker payload is ``(encoded, snapshot)``: the snapshot's
        counters merge order-independently, its spans are rebased from
        the worker's ``perf_counter`` origin onto the parent timeline
        (anchored so the unit's compute region ends at its completion
        time), and queue-wait (submit-to-done wall time minus in-worker
        compute) plus boundary bytes are recorded per unit.
        """
        payload = future.result()
        if self.recorder is None:
            return self._rehydrate(payload)
        encoded, snapshot = payload
        compute_s = snapshot.compute_seconds()
        done_t = getattr(future, "done_t", obs.now())
        wall_s = done_t - getattr(future, "submit_t", done_t)
        self.recorder.merge_snapshot(snapshot, rebase_to=done_t - compute_s)
        self.recorder.observe("exec.unit_wall_s", wall_s)
        self.recorder.observe("exec.unit_compute_s", compute_s)
        self.recorder.observe(
            "exec.unit_queue_wait_s", max(0.0, wall_s - compute_s)
        )
        self.recorder.count("exec.ipc.bytes_in", len(pickle.dumps(encoded)))
        return self._rehydrate(encoded)

    def _run_local(self, unit: WorkUnit, cache=None) -> list:
        """Run one unit in-process (the serial scheduler), instrumented."""
        if self.recorder is None:
            return _run_unit(self._state, unit, cache=cache)
        watch = obs.Stopwatch()
        result = _run_unit_timed(self._state, unit, cache=cache)
        self.recorder.observe("exec.unit_compute_s", watch.elapsed())
        return result

    # -- scheduling --------------------------------------------------------

    def _use_pool(self, units: Sequence[WorkUnit]) -> bool:
        """Pool or serial path for one batch of units.

        Non-adaptive plans follow their worker count verbatim.  Adaptive
        plans consult the cost model per batch: a batch whose modeled
        dispatch overhead exceeds its modeled parallel win runs in the
        parent process instead (counted as a serial fallback).
        """
        if self.plan.serial:
            return False
        if not self.plan.adaptive:
            return True
        from repro.core.exec import costmodel

        if costmodel.should_parallelize(
            units,
            self.plan.worker_count,
            pool_started=self._pool is not None or self._shared_pool_usable(),
        ):
            self._count("exec.sched.parallel_batches")
            return True
        self._count("exec.sched.serial_fallbacks")
        return False

    def _dispatch_windowed(
        self,
        pool: ProcessPoolExecutor,
        pending: Iterable[Tuple[int, WorkUnit]],
        collect: Callable[[int, WorkUnit, object], None],
    ) -> None:
        """Run ``(position, unit)`` pairs through a bounded in-flight window.

        At most :func:`costmodel.inflight_window` futures are outstanding:
        enough to keep every worker fed and let fast units backfill behind
        stragglers, without queueing the whole batch into the pool (where
        an interrupt could only cancel, not unsubmit, it).  ``collect`` is
        called in *completion* order; callers index results by submission
        position, so merge order remains submission order regardless.
        """
        from concurrent.futures import FIRST_COMPLETED, wait

        from repro.core.exec import costmodel

        window = costmodel.inflight_window(self.plan.worker_count)
        outstanding: dict = {}
        queue = iter(pending)
        exhausted = False
        try:
            while True:
                while not exhausted and len(outstanding) < window:
                    try:
                        position, unit = next(queue)
                    except StopIteration:
                        exhausted = True
                        break
                    outstanding[self._submit(pool, unit)] = (position, unit)
                if not outstanding:
                    break
                done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    position, unit = outstanding.pop(future)
                    collect(position, unit, future)
        except BaseException:
            # Cancel what has not been picked up yet.  Matters most on a
            # shared pool, which the error path must not shut down: the
            # queued remainder would otherwise burn warm workers on
            # results nobody will consume.
            for future in outstanding:
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
        chunk = self.plan.chunk_for(len(indices), kind)
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

        Returns per-unit results in submission order.  The serial path
        (by plan, or by adaptive fallback) runs units in-process;
        otherwise they flow through the bounded dispatch window and are
        merged by submission position, so completion order cannot leak
        into the output.  With a result store attached, units whose every
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
        use_pool = bool(pending) and self._use_pool([unit for _, unit in pending])
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

                self._dispatch_windowed(pool, pending, on_done)
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
        one is attached.

        An adaptive serial fallback sticks for the whole recovery ladder:
        a batch the cost model kept in-process must not spin up a pool
        just to retry one unit.
        """
        if not use_pool:
            # Publishes each app as it completes (see _run_unit).
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
