"""Incremental study execution through the result store.

The warm-start contract: a repeated ``Study.run(store=...)`` recomputes
(far) fewer than 5 % of its work units — zero, when nothing changed —
and still merges to bit-for-bit the same results as a cold run; any
configuration change invalidates cleanly; a corrupt
pack is recomputed with a ``RuntimeWarning``, never served.
"""

from __future__ import annotations

import pytest

from repro.core import obs
from repro.core.analysis import Study
from repro.core.exec import ExecutionPlan, ResultStore, SeededFaults
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout

SEED = 1337
SCALE = 0.015


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=SEED).scaled(SCALE)).generate()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("resultstore") / "store"


@pytest.fixture(scope="module")
def cold(corpus, store_dir):
    """One cold run that populates the shared store."""
    store = ResultStore(store_dir, corpus)
    results = Study(corpus).run(store=store)
    return results, store.stats


def assert_same_results(a, b):
    """The study-output views the paper reports, compared bit-for-bit."""
    assert a.table3().render() == b.table3().render()
    assert a.table8().render() == b.table8().render()
    assert a.figure2().render() == b.figure2().render()
    for platform in ("android", "ios"):
        a_dyn, b_dyn = a.dynamic_by_app(platform), b.dynamic_by_app(platform)
        assert set(a_dyn) == set(b_dyn)
        for app_id, result in a_dyn.items():
            assert result.pinned_destinations == b_dyn[app_id].pinned_destinations
            assert result.verdicts == b_dyn[app_id].verdicts
        assert a.circumvention_rate(platform) == b.circumvention_rate(platform)
    assert a.failures == b.failures


class TestWarmRuns:
    def test_cold_run_populates(self, cold, store_dir):
        _, stats = cold
        assert stats.unit_hits == 0
        assert stats.published > 0
        assert any((store_dir / "packs").glob("*.pkl"))

    def test_warm_run_identical_and_fully_cached(self, corpus, store_dir, cold):
        cold_results, _ = cold
        store = ResultStore(store_dir, corpus)
        warm_results = Study(corpus).run(store=store)
        assert_same_results(cold_results, warm_results)
        # The incremental contract: <5 % of units re-executed.  With
        # nothing changed, every unit composes from the store.
        assert store.stats.unit_misses == 0
        assert store.stats.unit_hits > 0
        assert store.stats.published == 0

    def test_store_hit_counters_exported(self, corpus, store_dir, cold):
        recorder = obs.Recorder()
        results = Study(corpus).run(store=store_dir, recorder=recorder)
        assert results is not None
        counters = recorder.metrics()["counters"]
        assert counters.get("store.units.hit", 0) > 0
        assert counters.get("store.units.miss", 0) == 0

    def test_no_store_read_recomputes_everything(self, corpus, store_dir, cold):
        cold_results, _ = cold
        store = ResultStore(store_dir, corpus, read=False)
        results = Study(corpus).run(store=store)
        assert_same_results(cold_results, results)
        assert store.stats.unit_hits == 0


class TestInvalidation:
    def test_scale_perturbation_invalidates(self, store_dir, cold):
        """A ``--scale`` bump misses everything but stays self-consistent."""
        other = CorpusGenerator(
            CorpusConfig(seed=SEED).scaled(0.02)
        ).generate()
        store = ResultStore(store_dir, other)
        perturbed_cold = Study(other).run(store=store)
        assert store.stats.unit_hits == 0, "stale cross-config hit"
        warm_store = ResultStore(store_dir, other)
        perturbed_warm = Study(other).run(store=warm_store)
        assert_same_results(perturbed_cold, perturbed_warm)
        assert warm_store.stats.unit_misses == 0

    def test_seed_perturbation_invalidates(self, store_dir, cold):
        other = CorpusGenerator(
            CorpusConfig(seed=SEED + 1).scaled(SCALE)
        ).generate()
        store = ResultStore(store_dir, other)
        Study(other).run(store=store)
        assert store.stats.unit_hits == 0


class TestCorruptionFallback:
    def test_corrupt_entry_recomputed_not_served(
        self, corpus, store_dir, cold
    ):
        cold_results, _ = cold
        store = ResultStore(store_dir, corpus)
        victim = store.pack_path("static", "android", "popular")
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            results = Study(corpus).run(store=store)
        assert_same_results(cold_results, results)
        assert store.stats.invalidated == 1
        # The damaged unit was recomputed and republished: whole again.
        healed = ResultStore(store_dir, corpus)
        rerun = Study(corpus).run(store=healed)
        assert_same_results(cold_results, rerun)
        assert healed.stats.unit_misses == 0


class AbortAfter:
    """Fault predicate simulating a kill: once it has been consulted
    ``limit`` times it raises a non-retryable error, aborting the run."""

    def __init__(self, limit: float = float("inf")):
        self.limit = limit
        self.calls = 0

    def __call__(self, phase: str, app_id: str) -> bool:
        self.calls += 1
        if self.calls > self.limit:
            raise TypeError("simulated kill")
        return False


class TestResumeByStore:
    def test_killed_run_resumes_from_the_store(self, corpus, cold, tmp_path):
        cold_results, _ = cold
        counter = AbortAfter()
        Study(corpus, fault_predicate=counter).run()
        store_dir = tmp_path / "killed"
        with pytest.raises(TypeError, match="simulated kill"):
            Study(corpus, fault_predicate=AbortAfter(counter.calls // 2)).run(
                store=store_dir
            )

        store = ResultStore(store_dir, corpus)
        resumed = Study(corpus).run(store=store)
        assert render_study_stdout(resumed) == render_study_stdout(
            cold_results
        )
        assert_same_results(cold_results, resumed)
        # Units the killed run completed are served; the rest recompute.
        assert store.stats.unit_hits > 0
        assert store.stats.unit_misses > 0


class TestFaultedRuns:
    def test_failed_apps_never_publish(self, corpus, tmp_path):
        """An abandoned app must not enter the store as a result."""
        faults = SeededFaults(0.1, seed=7)
        store = ResultStore(tmp_path / "faulted", corpus)
        plan = ExecutionPlan(max_retries=0)
        results = Study(corpus, plan=plan, fault_predicate=faults).run(
            store=store
        )
        assert results.failures, "fixture should drop at least one app"
        failed_dynamic = {
            f.app_id for f in results.failures if f.phase == "dynamic"
        }
        reader = ResultStore(store.root, corpus)
        for failure in results.failures:
            if failure.phase != "dynamic":
                continue
            assert (
                reader.lookup_app(
                    "dynamic",
                    failure.platform,
                    failure.dataset,
                    failure.app_id,
                    0.0,
                )
                is None
            )
        # Surviving apps did publish.
        assert store.stats.published > 0
        assert failed_dynamic or results.failures
