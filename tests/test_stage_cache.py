"""Stage-granular result-store tests (DESIGN.md §15).

The contract under test: flipping one configuration knob invalidates
exactly the declaring stage and its downstream — upstream stages are
served from the store bit-for-bit — and a partially recomputed result
equals what a cold run under the flipped configuration produces.
"""

from __future__ import annotations

import pytest

from repro.core import obs
from repro.core.analysis import Study
from repro.core.circumvent.pipeline import CircumventionPipeline
from repro.core.dynamic.pipeline import DynamicPipeline
from repro.core.exec.resultstore import ResultStore
from repro.core.static.pipeline import StaticPipeline
from repro.reporting.render import render_study_stdout


@pytest.fixture()
def store(small_corpus, tmp_path):
    return ResultStore(tmp_path / "store", small_corpus)


def _app(small_corpus, platform="android", dataset="popular", index=0):
    return small_corpus.dataset(platform, dataset)[index]


def _flows(capture):
    return list(capture.flows)


class TestStaticStageCache:
    def test_cold_run_publishes_then_warm_run_hits(self, small_corpus, store):
        pipeline = StaticPipeline(small_corpus.registry.ctlog)
        packaged = _app(small_corpus)
        cold = pipeline.analyze_app(packaged, cache=store, dataset="popular")
        assert store.stats.stage_misses == 3
        assert store.stats.stage_published == 3
        warm = pipeline.analyze_app(packaged, cache=store, dataset="popular")
        assert store.stats.stage_hits == 3
        assert warm == cold

    def test_include_native_flip_recomputes_only_downstream(
        self, small_corpus, store
    ):
        baseline = StaticPipeline(small_corpus.registry.ctlog)
        packaged = _app(small_corpus)
        baseline.analyze_app(packaged, cache=store, dataset="popular")

        flipped = StaticPipeline(
            small_corpus.registry.ctlog, include_native=False
        )
        recorder = obs.Recorder().install()
        try:
            partial = flipped.analyze_app(
                packaged, cache=store, dataset="popular"
            )
        finally:
            recorder.uninstall()
        # decompile was served from the store; scan and ct_lookup were
        # invalidated by the knob flip and recomputed.
        assert recorder.counter_value("pipeline.static.decompile.computed") == 0
        assert recorder.counter_value("pipeline.static.scan.computed") == 1
        assert recorder.counter_value("pipeline.static.ct_lookup.computed") == 1
        assert recorder.counter_value("store.stage.static.decompile.hit") == 1
        assert recorder.counter_value("store.stage.static.scan.miss") == 1

        cold = StaticPipeline(
            small_corpus.registry.ctlog, include_native=False
        ).analyze_app(packaged)
        assert partial == cold


class TestDynamicStageCache:
    def test_detector_flip_reuses_captures(self, small_corpus, store):
        packaged = _app(small_corpus)
        baseline = DynamicPipeline(small_corpus)
        cold = baseline.run_app(packaged, cache=store, dataset="popular")
        hits_before = store.stats.stage_hits

        flipped = DynamicPipeline(small_corpus, detector="naive")
        partial = flipped.run_app(packaged, cache=store, dataset="popular")
        # run_direct, run_mitm and exclusions hit; detect went cold.
        assert store.stats.stage_hits == hits_before + 3

        # Upstream artifacts are bit-for-bit the cold run's.
        assert _flows(partial.direct_capture) == _flows(cold.direct_capture)
        assert _flows(partial.mitm_capture) == _flows(cold.mitm_capture)
        assert partial.excluded_destinations == cold.excluded_destinations

        # The partially recomputed result equals a cache-less run under
        # the flipped configuration.
        reference = DynamicPipeline(small_corpus, detector="naive").run_app(
            packaged
        )
        assert partial.verdicts == reference.verdicts
        assert partial.pinned_destinations == reference.pinned_destinations

    def test_wait_param_invalidates_everything(self, small_corpus, store):
        packaged = _app(small_corpus, platform="ios", dataset="common")
        pipeline = DynamicPipeline(small_corpus)
        pipeline.run_app(packaged, cache=store, dataset="common")
        misses_before = store.stats.stage_misses
        hits_before = store.stats.stage_hits
        pipeline.run_app(
            packaged, pre_launch_wait_s=120.0, cache=store, dataset="common"
        )
        # The re-run wait is a per-app parameter of every run stage, so
        # nothing of the first pass is reusable.
        assert store.stats.stage_hits == hits_before
        assert store.stats.stage_misses == misses_before + 4


class TestCircumventStageCache:
    @pytest.fixture()
    def pinning(self, small_corpus):
        pipeline = DynamicPipeline(small_corpus)
        for packaged in small_corpus.dataset("android", "popular"):
            result = pipeline.run_app(packaged)
            if result.pins():
                return pipeline, packaged, result
        raise AssertionError("no pinning app in android/popular")

    def test_hook_set_flip_invalidates_hooked_run(
        self, small_corpus, store, pinning
    ):
        dynamic, packaged, result = pinning
        baseline = CircumventionPipeline(dynamic)
        baseline.circumvent_app_pins(
            packaged, result.pinned_destinations, cache=store, dataset="popular"
        )
        misses_before = store.stats.stage_misses

        # Same hook set again: the capture is served from the store.
        again = CircumventionPipeline(dynamic)
        rerun = again.circumvent_app_pins(
            packaged, result.pinned_destinations, cache=store, dataset="popular"
        )
        assert store.stats.stage_hits == 1
        assert store.stats.stage_misses == misses_before
        assert rerun.bypassed_destinations
        assert (
            rerun.bypassed_destinations | rerun.resistant_destinations
            == result.pinned_destinations
        )

        # Restricting the hook set re-keys the instrumented run.
        restricted = CircumventionPipeline(dynamic, hook_set=("okhttp",))
        restricted.circumvent_app_pins(
            packaged, result.pinned_destinations, cache=store, dataset="popular"
        )
        assert store.stats.stage_misses == misses_before + 1

    def test_pinned_set_change_reuses_capture(
        self, small_corpus, store, pinning
    ):
        dynamic, packaged, result = pinning
        pipeline = CircumventionPipeline(dynamic)
        full = pipeline.circumvent_app_pins(
            packaged, result.pinned_destinations, cache=store, dataset="popular"
        )
        subset = {sorted(result.pinned_destinations)[0]}
        hits_before = store.stats.stage_hits
        narrowed = pipeline.circumvent_app_pins(
            packaged, subset, cache=store, dataset="popular"
        )
        # The hooked capture keys on the hook set and run knobs alone, so
        # a changed pinned set (a detector flip upstream) still reuses it
        # and only the cheap verdict assembly reruns.
        assert store.stats.stage_hits == hits_before + 1
        assert _flows(narrowed.hooked_capture) == _flows(full.hooked_capture)
        assert (
            narrowed.bypassed_destinations | narrowed.resistant_destinations
            == subset
        )


class TestStoreStats:
    def test_describe_reports_stage_tallies(self, small_corpus, store):
        assert "stage" not in store.stats.describe()
        pipeline = StaticPipeline(small_corpus.registry.ctlog)
        pipeline.analyze_app(_app(small_corpus), cache=store, dataset="popular")
        description = store.stats.describe()
        assert "3 stage hit(s) / 3 miss(es)" not in description
        assert "stage entr(ies) published" in description
        assert store.stats.stage_hit_rate == 0.0
        pipeline.analyze_app(_app(small_corpus), cache=store, dataset="popular")
        assert store.stats.stage_hit_rate == pytest.approx(0.5)


class TestEngineIntegration:
    """Stage invalidation through the engine: a detector flip over a
    stored study recomputes only the detect suffix of its partial units
    and produces the same results as a cold run under the flipped
    configuration."""

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        from repro.corpus import CorpusConfig, CorpusGenerator

        return CorpusGenerator(CorpusConfig(seed=1337).scaled(0.015)).generate()

    @pytest.fixture(scope="class")
    def default_results(self, tiny_corpus):
        return Study(tiny_corpus).run()

    def test_detector_flip_study_is_partial_and_equal(
        self, tiny_corpus, tmp_path
    ):
        root = tmp_path / "store"

        Study(tiny_corpus).run(store=root)

        recorder = obs.Recorder()
        flipped = Study(tiny_corpus, detector="no-tls13").run(
            store=root, recorder=recorder
        )
        counters = recorder.counters()
        # Every dynamic unit is partial: it misses as a unit, its
        # captures are warm and its detect stage is cold.
        assert counters.get("store.units.miss", 0) > 0
        assert counters.get("store.stage.dynamic.detect.hit", 0) == 0
        assert counters.get("store.stage.dynamic.detect.miss", 0) > 0
        assert counters.get("store.stage.dynamic.run_direct.hit", 0) > 0
        assert counters.get("store.stage.dynamic.run_direct.miss", 0) == 0
        assert counters.get("store.stage.dynamic.run_mitm.miss", 0) == 0
        # Static units are untouched by the flip and hit at unit level.
        assert counters.get("store.units.hit", 0) > 0

        reference = Study(tiny_corpus, detector="no-tls13").run()
        assert render_study_stdout(flipped) == render_study_stdout(reference)
        for key in reference.dynamic_results:
            assert [r.verdicts for r in flipped.dynamic_results[key]] == [
                r.verdicts for r in reference.dynamic_results[key]
            ]
        for key in reference.circumvention:
            assert [
                (c.app_id, c.bypassed_destinations, c.resistant_destinations)
                for c in flipped.circumvention[key]
            ] == [
                (c.app_id, c.bypassed_destinations, c.resistant_destinations)
                for c in reference.circumvention[key]
            ]

    def test_naive_detector_overflags(self, tiny_corpus, default_results):
        """The naive detector flags every MITM failure, so on each
        Android dataset its dynamic prevalence is at least the
        differential detector's, and above it on some."""
        full = default_results._prevalence_cells()
        naive = Study(tiny_corpus, detector="naive").run()._prevalence_cells()
        gaps = [
            naive["android", d]["dynamic"].rate - full["android", d]["dynamic"].rate
            for d in ("common", "popular", "random")
        ]
        assert min(gaps) >= 0 and max(gaps) > 0, gaps

    def test_no_tls13_is_a_subset_story(self, tiny_corpus, default_results):
        """Disabling the TLS 1.3 heuristics changes verdicts, not the
        destinations judged: an app measured by the same runs has the
        same verdict destinations under both detectors.  Which Common-iOS
        apps are re-run follows the detector's findings, so an app
        re-run under only one of them is not compared."""
        ablated = Study(tiny_corpus, detector="no-tls13").run()
        compared = flipped = 0
        for key, results in default_results.dynamic_results.items():
            for original, other in zip(results, ablated.dynamic_results[key]):
                assert original.app_id == other.app_id
                if original.reran_with_wait != other.reran_with_wait:
                    assert key == ("ios", "common")
                    continue
                assert set(original.verdicts) == set(other.verdicts), other.app_id
                compared += 1
                flipped += any(
                    verdict.pinned != other.verdicts[name].pinned
                    for name, verdict in original.verdicts.items()
                )
        assert compared > 0 and flipped > 0
