"""Tests for repro.core.exec: plans, sharding, and study-level parity.

The engine's contract is bit-for-bit determinism: a study sharded over
any number of workers must produce results identical to a serial run.
The parity test asserts that on the paper's headline artefacts (Table 3
and Figure 2) plus the raw per-app pinned sets.
"""

import pytest

from repro.core.analysis import Study
from repro.core.dynamic.pipeline import DynamicPipeline
from repro.core.exec import ExecutionEngine, ExecutionPlan
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout
from repro.util.rng import DeterministicRng, derive_seed


@pytest.fixture(scope="module")
def tiny_corpus():
    """A corpus small enough to run the full study three times."""
    return CorpusGenerator(CorpusConfig(seed=1337).scaled(0.015)).generate()


class TestExecutionPlan:
    def test_defaults_are_serial(self):
        plan = ExecutionPlan()
        assert plan.workers == 1
        assert plan.serial

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers=0)

    def test_rejects_bool_workers(self):
        # ``True == 1``: without the check a JSON ``"workers": true``
        # would pass as a serial plan.
        with pytest.raises(ValueError, match="workers"):
            ExecutionPlan(workers=True)

    def test_rejects_negative_chunk(self):
        with pytest.raises(ValueError):
            ExecutionPlan(chunk_size=-1)

    def test_explicit_chunk_wins(self):
        assert ExecutionPlan(workers=4, chunk_size=3).chunk_for(100) == 3

    def test_auto_chunk_spreads_over_workers(self):
        chunk = ExecutionPlan(workers=4).chunk_for(100)
        # One chunk per worker.
        assert chunk == 100 // 4
        assert ExecutionPlan(workers=4).chunk_for(1) == 1

    def test_serial_auto_chunk_is_whole_dataset(self):
        assert ExecutionPlan().chunk_for(57) == 57

    def test_for_workers(self):
        assert ExecutionPlan.for_workers(3).workers == 3


class TestSharding:
    def test_units_cover_all_indices_in_order(self, tiny_corpus):
        engine = ExecutionEngine(tiny_corpus, ExecutionPlan(workers=2, chunk_size=3))
        units = engine.units_for("static", ("android", "common"), range(10))
        flattened = [i for unit in units for i in unit[3]]
        assert flattened == list(range(10))

    def test_circumvent_extra_sliced_with_indices(self, tiny_corpus):
        engine = ExecutionEngine(tiny_corpus, ExecutionPlan(workers=2, chunk_size=2))
        pins = [("a",), ("b",), ("c",), ("d",), ("e",)]
        units = engine.units_for(
            "circumvent", ("android", "common"), range(5), pins
        )
        for unit in units:
            assert len(unit[3]) == len(unit[4])
        assert [p for unit in units for p in unit[4]] == pins

    def test_unknown_kind_rejected(self, tiny_corpus):
        from repro.core.exec.engine import _build_state, _run_unit

        state = _build_state(tiny_corpus, 30.0)
        with pytest.raises(TypeError):
            _run_unit(state, ("mystery", "android", "common", (0,), None))


class TestStudyParity:
    @pytest.fixture(scope="class")
    def runs(self, tiny_corpus):
        out = {}
        for workers in (1, 2, 4):
            out[workers] = Study(
                tiny_corpus, plan=ExecutionPlan(workers=workers)
            ).run()
        return out

    def test_table3_identical_across_worker_counts(self, runs):
        reference = runs[1].table3().render()
        assert runs[2].table3().render() == reference
        assert runs[4].table3().render() == reference

    def test_figure2_identical_across_worker_counts(self, runs):
        reference = runs[1].figure2().render()
        assert runs[2].figure2().render() == reference
        assert runs[4].figure2().render() == reference

    def test_per_app_pinned_sets_identical(self, runs):
        for platform in ("android", "ios"):
            serial = runs[1].dynamic_by_app(platform)
            for workers in (2, 4):
                parallel = runs[workers].dynamic_by_app(platform)
                assert set(serial) == set(parallel)
                for app_id, result in serial.items():
                    assert (
                        parallel[app_id].pinned_destinations
                        == result.pinned_destinations
                    )

    def test_hand_mutated_corpus_identical_serial_and_pooled(self):
        """Workers run against the parent's corpus object, not one
        regenerated from its config: with the first app removed, every
        later index names a different app than a fresh corpus would."""
        corpus = CorpusGenerator(CorpusConfig(seed=7).scaled(0.01)).generate()
        corpus.datasets[("android", "popular")].pop(0)
        serial = render_study_stdout(
            Study(corpus, plan=ExecutionPlan(workers=1)).run()
        )
        pooled = render_study_stdout(
            Study(corpus, plan=ExecutionPlan(workers=2)).run()
        )
        assert pooled == serial

    def test_circumvention_identical(self, runs):
        for platform in ("android", "ios"):
            reference = [
                (r.app_id, sorted(r.bypassed_destinations))
                for r in runs[1].circumvention[platform]
            ]
            for workers in (2, 4):
                assert [
                    (r.app_id, sorted(r.bypassed_destinations))
                    for r in runs[workers].circumvention[platform]
                ] == reference


class TestPerAppRngDerivation:
    def test_adjacent_app_ids_get_unrelated_streams(self):
        # Sequentially numbered app ids must not produce correlated
        # randomness (the sharder may place them on the same worker).
        base = DeterministicRng(2022).child("harness", "android")
        streams = []
        for app_id in ("app-0001", "app-0002", "app-0003"):
            child = base.child("run", app_id, False, 30.0)
            streams.append([child.random() for _ in range(16)])
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                overlap = set(streams[i]) & set(streams[j])
                assert not overlap

    def test_derive_seed_sensitive_to_every_label(self):
        seed = derive_seed(99, "install-window", "app-0042")
        assert seed != derive_seed(99, "install-window", "app-0043")
        assert seed != derive_seed(98, "install-window", "app-0042")
        assert seed != derive_seed(99, "other-label", "app-0042")

    def test_standalone_rerun_reproduces_in_study_result(self, tiny_corpus):
        # Running one app alone on a fresh pipeline must reproduce the
        # result it got inside a full dataset sweep.
        pipeline = DynamicPipeline(tiny_corpus)
        in_study = pipeline.run_dataset("android", "popular")
        target = tiny_corpus.dataset("android", "popular")[-1]
        fresh = DynamicPipeline(tiny_corpus).run_app(target)
        matching = [r for r in in_study if r.app_id == target.app.app_id]
        assert len(matching) == 1
        assert fresh.pinned_destinations == matching[0].pinned_destinations
        assert [
            (f.sni, f.started_at, f.handshake_completed)
            for f in fresh.direct_capture
        ] == [
            (f.sni, f.started_at, f.handshake_completed)
            for f in matching[0].direct_capture
        ]
