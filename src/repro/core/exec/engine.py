"""The study execution engine.

Runs per-app work units — static scans, two-setting dynamic runs,
circumvention sweeps — in-process, one after another, and returns their
results in submission order.

Determinism contract
--------------------

Every work unit is a pure function of ``(corpus, sleep_s, unit)``:
per-app randomness derives from the study seed and the app id alone
(harness run streams, install-time anchors, proxy forgeries), never
from how many apps ran before.  A retried unit, a quarantined app's solo
re-run and a unit served from the result store therefore all reproduce
exactly what an untroubled cold run computes.

Fault tolerance
---------------

:meth:`ExecutionEngine.execute` is the one execution path, and it
tolerates failing units: a failed unit is retried up to
``plan.max_retries`` times (with bounded exponential backoff and an
optional per-unit deadline), then **quarantined** — its apps are re-run
solo, each with its own retry budget, so one poisoned app cannot take a
whole dataset's results down.  Apps that still fail become
:class:`~repro.core.exec.faults.UnitFailure` records in the returned
:class:`ExecutionOutcome` instead of exceptions.  The ladder is reserved
for *retryable* faults: deterministic programming errors
(:data:`~repro.core.exec.faults.NON_RETRYABLE_ERRORS`, e.g. an
``AttributeError`` inside a detector or a ``TypeError`` for an unknown
work-unit kind) propagate immediately instead of being retried or
quarantined into the ledger.  Because unit purity makes retries and solo
re-runs reproduce exactly what an untroubled run would have computed,
the surviving results remain bit-for-bit identical to a fault-free run —
the ledger is the only difference.

Incremental execution
---------------------

An optional :class:`~repro.core.exec.resultstore.ResultStore` makes
repeated runs incremental: before running a unit the engine asks the
store for it (every app's entry must hit), and completed work is
published back into one pack file per dataset.  Because store keys
fingerprint exactly the inputs a result is a function of — corpus
configuration, capture window, stage, app id, per-app stage config, and
a code-version salt — a warm run recomputes only fingerprint misses and
still merges to bit-for-bit the same study as a cold run.  The store is
also how a killed run resumes: every unit is published as it completes
(temp file + ``os.replace``), so a re-run against the same store
recomputes only the units the killed run had not finished.

Stage-granular recomputation (DESIGN.md §15): a unit that misses at the
app level may still have warm *stage* artifacts on disk (a config flip
invalidated only the downstream suffix of its stage graph).  Every unit
runs with the store attached as its stage cache, so those stages are
served from disk and only the invalidated suffix is recomputed.

Garbage collection
------------------

With ``freeze_results`` set, :meth:`ExecutionEngine.execute` calls
:func:`gc.freeze` each time a unit's results land (a store hit or a
compute), so later collections scan only the objects allocated since.
Finished results are acyclic, so freezing them leaves nothing
collectable behind; whoever sets the flag must call :func:`gc.unfreeze`
when the run ends (``Study.run`` does).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core import obs
from repro.core.exec.faults import (
    FaultPredicate,
    InjectedFault,
    UnitFailure,
    is_retryable,
)
from repro.core.exec.plan import ExecutionPlan
from repro.core.exec.resultstore import ResultStore

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


def _build_state(
    corpus,
    sleep_s: float,
    fault_predicate: Optional[FaultPredicate] = None,
) -> dict:
    """Execution state; pipelines are built on first use."""
    return {
        "corpus": corpus,
        "sleep_s": sleep_s,
        "faults": fault_predicate,
        "static": None,
        "dynamic": None,
        "circumvent": None,
    }


def _static_pipeline(state: dict):
    if state["static"] is None:
        from repro.core.static.pipeline import StaticPipeline

        state["static"] = StaticPipeline(
            state["corpus"].registry, fault_predicate=state["faults"]
        )
    return state["static"]


def _dynamic_pipeline(state: dict):
    if state["dynamic"] is None:
        from repro.core.dynamic.pipeline import DynamicPipeline

        state["dynamic"] = DynamicPipeline(
            state["corpus"],
            sleep_s=state["sleep_s"],
            fault_predicate=state["faults"],
        )
    return state["dynamic"]


def _circumvention_pipeline(state: dict):
    if state["circumvent"] is None:
        from repro.core.circumvent.pipeline import CircumventionPipeline

        state["circumvent"] = CircumventionPipeline(
            _dynamic_pipeline(state), fault_predicate=state["faults"]
        )
    return state["circumvent"]


def _run_unit(state: dict, unit: WorkUnit, cache=None) -> list:
    """Execute one unit against the given state.

    ``cache`` is an optional result store.  With one, the pipelines'
    stage graphs serve warm stages from it, and the stages they compute
    wait until the whole unit is published: its results and stages in
    one write of its dataset's pack.  A unit that fails part-way still
    writes the stages it finished.
    """
    if cache is None:
        return _compute_unit(state, unit)
    try:
        results = _compute_unit(state, unit, cache)
        cache.publish_unit(unit, results)
    finally:
        cache.flush()
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

    The span is a no-op when no recorder is active; with one, it becomes
    the unit's depth-0 region, under which the pipelines' per-app and
    per-phase spans nest.
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
    are split along with the indices.
    """
    kind, platform, dataset, indices, extra = unit
    if kind == "circumvent":
        return [
            (kind, platform, dataset, (index,), (pins,))
            for index, pins in zip(indices, extra)
        ]
    return [(kind, platform, dataset, (index,), extra) for index in indices]


class ExecutionEngine:
    """Runs study work units under an :class:`ExecutionPlan`.

    Args:
        corpus: the app corpus.
        plan: the fault-tolerance envelope; defaults to
            :class:`ExecutionPlan`'s.
        sleep_s: dynamic-run capture window, for pipelines the engine
            builds itself.
        pipelines: optional ``(static, dynamic, circumvention)`` triple to
            run units with (so a :class:`~repro.core.analysis.study.Study`
            and its engine share devices and identifiers).
        fault_predicate: injectable per-app failure predicate for the
            pipelines the engine builds itself (testing hook; see
            :mod:`repro.core.exec.faults`).  Caller-provided ``pipelines``
            are assumed to carry their own predicate already.
        recorder: optional telemetry recorder (see :mod:`repro.core.obs`).
            When set, every unit runs under a span, its compute time is
            observed as ``exec.unit_compute_s``, and the engine counts
            retries, quarantines, failures and store skips.  Results are
            bit-for-bit identical with and without a recorder.
        store: optional :class:`~repro.core.exec.resultstore.ResultStore`.
            When set, execution consults it before running each unit (a
            full per-app hit skips the unit entirely) and publishes
            completed units back.  Results are bit-for-bit identical with
            and without a store, warm or cold.

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
        self.recorder = recorder
        self.store = store
        self._state = _build_state(corpus, sleep_s, fault_predicate)
        if pipelines is not None:
            static, dynamic, circumvent = pipelines
            self._state["static"] = static
            self._state["dynamic"] = dynamic
            self._state["circumvent"] = circumvent
        self.freeze_results = False

    # -- telemetry plumbing ------------------------------------------------

    def _count(self, name: str, n: float = 1) -> None:
        if self.recorder is not None:
            self.recorder.count(name, n)

    def _landed(self) -> None:
        """A unit's results landed: keep later collections off them."""
        if self.freeze_results:
            gc.freeze()

    # -- work units --------------------------------------------------------

    def units_for(
        self,
        kind: str,
        key: Tuple[str, str],
        indices: Sequence[int],
        extra: object = None,
    ) -> List[WorkUnit]:
        """The work unit of ``indices`` of one dataset (none if empty).

        For ``circumvent`` units ``extra`` must be a sequence aligned with
        ``indices`` (the pinned destinations of each app).  For
        ``dynamic`` units it is the scalar pre-launch wait.
        """
        indices = tuple(indices)
        if not indices:
            return []
        if kind == "circumvent":
            unit_extra: object = tuple(extra)
        elif kind == "dynamic":
            unit_extra = float(extra or 0.0)
        else:
            unit_extra = None
        return [(kind, key[0], key[1], indices, unit_extra)]

    # -- execution ---------------------------------------------------------

    def execute(self, units: Sequence[WorkUnit]) -> ExecutionOutcome:
        """Run units with retry, quarantine, and an error ledger.

        Returns per-unit results in submission order.  With a result
        store attached, units whose every app is already stored are
        composed from the store instead of run, and computed units are
        published back as they finish.  Never raises for *retryable*
        per-unit failures — they land in the outcome's ledger.
        Non-retryable failures
        (:data:`~repro.core.exec.faults.NON_RETRYABLE_ERRORS` —
        programming errors a retry cannot cure) propagate immediately,
        as do interrupts.
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
        if pending:
            # A corpus read from the store's catalogue reads its file
            # trees and CT log only once a unit must be computed.
            self.corpus.attach()
        for position, unit in pending:
            unit_results[position] = self._run_with_recovery(unit, failures)
            self._landed()
        return ExecutionOutcome(unit_results, failures)

    def map_dataset(
        self,
        kind: str,
        key: Tuple[str, str],
        indices: Sequence[int],
        extra: object = None,
    ) -> ExecutionOutcome:
        """Build and execute one dataset's unit."""
        return self.execute(self.units_for(kind, key, indices, extra))

    # -- recovery internals ------------------------------------------------

    def _attempt(self, unit: WorkUnit) -> list:
        """One attempt at one unit, instrumented.

        A successful attempt has published its results to the store, if
        one is attached (see :func:`_run_unit`).
        """
        if self.recorder is None:
            return _run_unit(self._state, unit, cache=self.store)
        watch = obs.Stopwatch()
        result = _run_unit_timed(self._state, unit, cache=self.store)
        self.recorder.observe("exec.unit_compute_s", watch.elapsed())
        return result

    def _retry(
        self, unit: WorkUnit, first_error: Exception
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
                return self._attempt(unit), attempts, None
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
        in_quarantine: bool = False,
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
        try:
            result = self._attempt(unit)
        except Exception as exc:
            if not is_retryable(exc):
                # Never enters the retry/quarantine ladder: a detector's
                # AttributeError is a failed run, not app flakiness.
                self._count("exec.faults.nonretryable")
                raise
            first_error = exc
            self._count_error(exc)
        else:
            self._count("exec.units.completed")
            return result

        result, attempts, error = self._retry(unit, first_error)
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
                    self._run_with_recovery(solo, failures, in_quarantine=True)
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
