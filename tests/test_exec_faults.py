"""Tests for the engine's fault-tolerance layer.

Covers the escalation ladder (retry → quarantine → error ledger), the
fast failure of programming errors, and graceful degradation of a full
``Study.run()`` under injected faults — including the faulted-then-clean
convergence through a shared result store.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.core.analysis import Study
from repro.core.exec import (
    ExecutionEngine,
    ExecutionPlan,
    InjectedFault,
    SeededFaults,
    TransientFaults,
)
from repro.core.exec.engine import split_unit
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout


@dataclass(frozen=True)
class FailApps:
    """Predicate failing exactly the given (phase, app_id) pairs."""

    app_ids: Tuple[str, ...]
    phases: Tuple[str, ...] = ("static", "dynamic", "circumvent")

    def __call__(self, phase: str, app_id: str) -> bool:
        return phase in self.phases and app_id in self.app_ids


class CountingFaults:
    """Counts every consultation; fails the apps of an inner predicate."""

    def __init__(self, inner=None):
        self.inner = inner
        self.calls = {}

    def __call__(self, phase: str, app_id: str) -> bool:
        key = (phase, app_id)
        self.calls[key] = self.calls.get(key, 0) + 1
        return self.inner is not None and self.inner(phase, app_id)


@pytest.fixture(scope="module")
def tiny_corpus():
    return CorpusGenerator(CorpusConfig(seed=1337).scaled(0.015)).generate()


def _app_ids(corpus, key):
    return [p.app.app_id for p in corpus.dataset(*key)]


KEY = ("android", "common")


def _solo_units(engine, indices):
    """One static unit per app of ``KEY``: each app retried on its own."""
    (unit,) = engine.units_for("static", KEY, indices)
    return split_unit(unit)


class TestQuarantine:
    def test_quarantine_isolates_the_failing_app(self, tiny_corpus):
        ids = _app_ids(tiny_corpus, KEY)
        bad = ids[1]
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(max_retries=1),
            fault_predicate=FailApps((bad,), phases=("static",)),
        )
        units = engine.units_for("static", KEY, range(len(ids)))
        assert len(units) == 1  # one unit holds every app
        outcome = engine.execute(units)

        surviving = [r.app_id for r in outcome.items]
        assert bad not in surviving
        assert surviving == [i for i in ids if i != bad]
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.app_id == bad
        assert failure.phase == "static"
        assert failure.quarantined
        assert "InjectedFault" in failure.error

    def test_quarantine_disabled_drops_whole_unit(self, tiny_corpus):
        ids = _app_ids(tiny_corpus, KEY)
        bad = ids[1]
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(max_retries=0, quarantine=False),
            fault_predicate=FailApps((bad,), phases=("static",)),
        )
        outcome = engine.execute(
            engine.units_for("static", KEY, range(len(ids)))
        )
        assert outcome.items == []
        assert sorted(f.app_id for f in outcome.failures) == sorted(ids)
        assert not any(f.quarantined for f in outcome.failures)

    def test_quarantined_survivors_match_fault_free_run(self, tiny_corpus):
        ids = _app_ids(tiny_corpus, KEY)
        bad = ids[0]
        clean = ExecutionEngine(tiny_corpus, ExecutionPlan())
        reference = {
            r.app_id: r.pinned_destinations
            for r in clean.map_dataset("dynamic", KEY, range(len(ids)), 0.0).items
        }
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(),
            fault_predicate=FailApps((bad,), phases=("dynamic",)),
        )
        outcome = engine.map_dataset(
            "dynamic", KEY, range(len(ids)), 0.0
        )
        for result in outcome.items:
            assert result.pinned_destinations == reference[result.app_id]


class TestRetries:
    def test_retries_attempted_exactly_max_retries_times(self, tiny_corpus):
        ids = _app_ids(tiny_corpus, KEY)
        bad = ids[0]
        faults = CountingFaults(FailApps((bad,), phases=("static",)))
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(max_retries=2),
            fault_predicate=faults,
        )
        outcome = engine.execute(_solo_units(engine, range(len(ids))))
        # Initial attempt + exactly plan.max_retries retries.
        assert faults.calls[("static", bad)] == 3
        assert outcome.failures[0].attempts == 3
        # Healthy apps are consulted once — no gratuitous re-runs.
        assert faults.calls[("static", ids[1])] == 1

    def test_transient_fault_recovers_via_retry(self, tiny_corpus):
        ids = _app_ids(tiny_corpus, KEY)
        bad = ids[0]
        faults = TransientFaults(
            FailApps((bad,), phases=("static",)), attempts=1
        )
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(max_retries=1),
            fault_predicate=faults,
        )
        outcome = engine.execute(_solo_units(engine, range(len(ids))))
        assert outcome.failures == []
        assert [r.app_id for r in outcome.items] == ids

    def test_zero_retries_fails_after_one_attempt(self, tiny_corpus):
        ids = _app_ids(tiny_corpus, KEY)
        faults = CountingFaults(FailApps((ids[0],), phases=("static",)))
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(max_retries=0),
            fault_predicate=faults,
        )
        outcome = engine.execute(_solo_units(engine, range(2)))
        assert faults.calls[("static", ids[0])] == 1
        assert outcome.failures[0].attempts == 1

    def test_backoff_doubles_and_is_capped(self):
        plan = ExecutionPlan(retry_backoff_s=0.5)
        assert plan.backoff_for(0) == 0.5
        assert plan.backoff_for(1) == 1.0
        assert plan.backoff_for(30) == 30.0  # RETRY_BACKOFF_CAP_S
        assert ExecutionPlan().backoff_for(5) == 0.0

    def test_plan_rejects_negative_fault_knobs(self):
        with pytest.raises(ValueError):
            ExecutionPlan(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionPlan(retry_backoff_s=-0.1)
        with pytest.raises(ValueError):
            ExecutionPlan(retry_deadline_s=-1.0)


class TestStudyDegradation:
    def test_faulted_study_completes_and_resume_converges(
        self, tiny_corpus, tmp_path
    ):
        store = tmp_path / "store"
        baseline = Study(tiny_corpus).run()
        assert baseline.failures == []

        faulted = Study(
            tiny_corpus, fault_predicate=SeededFaults(0.1, seed=7)
        ).run(store=store)
        assert faulted.failures  # something failed...
        assert faulted.table3().render()  # ...yet the study delivered
        for platform in ("android", "ios"):
            assert set(faulted.dynamic_by_app(platform)) <= set(
                baseline.dynamic_by_app(platform)
            )

        # The faulted run published its survivors (the store key is
        # fault-agnostic); the clean re-run recomputes only the losses.
        resumed = Study(tiny_corpus).run(store=store)
        assert resumed.failures == []
        assert render_study_stdout(resumed) == render_study_stdout(baseline)
        for platform in ("android", "ios"):
            ref = baseline.dynamic_by_app(platform)
            got = resumed.dynamic_by_app(platform)
            assert set(got) == set(ref)
            for app_id, result in ref.items():
                assert (
                    got[app_id].pinned_destinations
                    == result.pinned_destinations
                )

    def test_dynamic_failure_excludes_app_downstream(self, tiny_corpus):
        ids = _app_ids(tiny_corpus, ("android", "popular"))
        bad = ids[0]
        results = Study(
            tiny_corpus,
            fault_predicate=FailApps((bad,), phases=("dynamic",)),
        ).run()
        assert [f.app_id for f in results.failures] == [bad]
        assert bad not in results.dynamic_by_app("android")
        assert all(c.app_id != bad for c in results.circumvention["android"])


class CountingBuggyPredicate:
    """Stand-in for a programming error inside per-app work: consulting
    it for the target app raises ``AttributeError``, the way a detector
    dereferencing a missing attribute would.  Counts how often the bug
    site is reached."""

    def __init__(self, app_id: str):
        self.app_id = app_id
        self.calls = 0

    def __call__(self, phase: str, app_id: str) -> bool:
        if phase == "static" and app_id == self.app_id:
            self.calls += 1
            raise AttributeError("simulated detector bug")
        return False


class TestNonRetryableErrors:
    """Programming errors must surface as a failed run, not be retried
    or quarantined into the error ledger as fake per-app flakiness."""

    def test_classification_policy(self):
        from repro.core.exec import NON_RETRYABLE_ERRORS, is_retryable

        for exc_type in NON_RETRYABLE_ERRORS:
            assert not is_retryable(exc_type("boom"))
        # Transient/data-dependent errors keep the retry ladder.
        assert is_retryable(InjectedFault("static", "app-1"))
        assert is_retryable(ValueError("boom"))
        assert is_retryable(KeyError("boom"))
        assert is_retryable(OSError("boom"))

    def test_programming_error_propagates_without_retry(self, tiny_corpus):
        from repro.core import obs

        ids = _app_ids(tiny_corpus, KEY)
        predicate = CountingBuggyPredicate(ids[1])
        recorder = obs.Recorder()
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(max_retries=3),
            fault_predicate=predicate,
            recorder=recorder,
        )
        units = engine.units_for("static", KEY, range(len(ids)))
        with pytest.raises(AttributeError):
            engine.execute(units)
        # One consultation: the retry/quarantine ladder never engaged.
        assert predicate.calls == 1
        assert recorder.counter_value("exec.faults.nonretryable") == 1
        assert recorder.counter_value("exec.retry.attempts") == 0
        assert recorder.counter_value("exec.units.quarantined") == 0

    def test_injected_fault_still_earns_the_ladder(self, tiny_corpus):
        # The narrowing must not over-reach: an InjectedFault on the same
        # app still degrades into the ledger instead of raising.
        ids = _app_ids(tiny_corpus, KEY)
        engine = ExecutionEngine(
            tiny_corpus,
            ExecutionPlan(max_retries=1),
            fault_predicate=FailApps((ids[1],), phases=("static",)),
        )
        outcome = engine.execute(
            engine.units_for("static", KEY, range(len(ids)))
        )
        assert [f.app_id for f in outcome.failures] == [ids[1]]
