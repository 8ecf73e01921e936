"""Tests for repro.core.exec: work units and per-app determinism.

The engine's contract is bit-for-bit determinism: an app's result is a
function of the study seed and its own id, never of the apps that ran
before it, so retries, solo re-runs and store hits reproduce it.
"""

import pytest

from repro.core.dynamic.pipeline import DynamicPipeline
from repro.core.exec import ExecutionEngine, ExecutionPlan
from repro.core.exec.engine import split_unit
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.util.rng import DeterministicRng, derive_seed


@pytest.fixture(scope="module")
def tiny_corpus():
    """A corpus small enough to run whole datasets quickly."""
    return CorpusGenerator(CorpusConfig(seed=1337).scaled(0.015)).generate()


class TestSharding:
    def test_units_cover_all_indices_in_order(self, tiny_corpus):
        # One unit per dataset and kind: the whole index list, in order.
        engine = ExecutionEngine(tiny_corpus, ExecutionPlan())
        units = engine.units_for("static", ("android", "common"), range(10))
        assert units == [("static", "android", "common", tuple(range(10)), None)]
        assert engine.units_for("static", ("android", "common"), []) == []

    def test_circumvent_extra_sliced_with_indices(self, tiny_corpus):
        engine = ExecutionEngine(tiny_corpus, ExecutionPlan())
        pins = [("a",), ("b",), ("c",), ("d",), ("e",)]
        units = engine.units_for(
            "circumvent", ("android", "common"), range(5), pins
        )
        for unit in units:
            assert len(unit[3]) == len(unit[4])
        assert [p for unit in units for p in unit[4]] == pins
        solos = split_unit(units[0])
        assert [solo[3] for solo in solos] == [(i,) for i in range(5)]
        assert [solo[4] for solo in solos] == [(p,) for p in pins]

    def test_unknown_kind_rejected(self, tiny_corpus):
        from repro.core.exec.engine import _build_state, _run_unit

        state = _build_state(tiny_corpus, 30.0)
        with pytest.raises(TypeError):
            _run_unit(state, ("mystery", "android", "common", (0,), None))


class TestPerAppRngDerivation:
    def test_adjacent_app_ids_get_unrelated_streams(self):
        # Sequentially numbered app ids must not produce correlated
        # randomness (they run one after another in the same unit).
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
