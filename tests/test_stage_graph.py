"""Tests for the ``repro.core.pipeline`` stage-graph abstraction.

Covers the DESIGN.md §15 contract: declaration validation, the
derivation-style chain keys (a knob flip re-keys exactly the declaring
stage and its downstream), graph-derived telemetry and fault points,
and re-derivation of a finished result with only the dirty stages
recomputed.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import obs
from repro.core.circumvent.pipeline import CIRCUMVENT_GRAPH, CircumventionPipeline
from repro.core.dynamic.pipeline import DYNAMIC_GRAPH, DynamicPipeline
from repro.core.exec import InjectedFault, SeededFaults
from repro.core.pipeline import Stage, StageGraph
from repro.core.static.pipeline import STATIC_GRAPH, StaticPipeline
from tests.store_helpers import knobs

FP = "corpus-fp"
APP = ("android", "popular", "app-1")


def _noop(ctx, a):
    return None


def _stage(name, **kw):
    return Stage(name=name, fn=_noop, **kw)


class TestValidation:
    def test_needs_stages(self):
        with pytest.raises(ValueError, match="needs stages"):
            StageGraph("t-empty", ())

    def test_duplicate_stage_name(self):
        with pytest.raises(ValueError, match="duplicate or reserved"):
            StageGraph(
                "t-dup",
                (_stage("a"), _stage("a")),
            )

    def test_seed_names_are_reserved(self):
        with pytest.raises(ValueError, match="duplicate or reserved"):
            StageGraph("t-res", (_stage("packaged"),))

    def test_inputs_must_be_earlier_stages(self):
        with pytest.raises(ValueError, match="not an earlier stage"):
            StageGraph(
                "t-order",
                (
                    _stage("a", inputs=("b",)),
                    _stage("b"),
                ),
            )

    def test_seeds_must_not_be_declared_as_inputs(self):
        with pytest.raises(ValueError, match="not an earlier stage"):
            StageGraph(
                "t-seedin",
                (_stage("a", inputs=("packaged",)),),
            )

    def test_knobs_resolve_on_use(self):
        """Knobs are read off the pipeline object and the parameters when
        a key is derived; a knob neither holds raises then."""
        graph = StageGraph(
            "t-knob", (_stage("a", config=("mystery", "@wait")),)
        )
        assert graph.final == "a"
        keys = graph.stage_keys(FP, *APP, {"wait": 0.0}, SimpleNamespace(mystery=1))
        assert set(keys) == {"a"}
        with pytest.raises(AttributeError, match="mystery"):
            graph.stage_keys(FP, *APP, {"wait": 0.0}, knobs())

    def test_final_stage_must_not_persist(self):
        with pytest.raises(ValueError, match="must not persist"):
            StageGraph(
                "t-final", (_stage("a", persist=True),)
            )


class TestStageKeys:
    """The invalidation contract, stated purely over fingerprints."""

    def test_keys_are_distinct_per_stage(self):
        keys = STATIC_GRAPH.stage_keys(FP, *APP, {}, knobs())
        assert set(keys) == {"decompile", "scan", "ct_lookup", "report"}
        assert len(set(keys.values())) == 4

    def test_include_native_flip_rekeys_scan_and_downstream(self):
        base = STATIC_GRAPH.stage_keys(FP, *APP, {}, knobs())
        flipped = STATIC_GRAPH.stage_keys(FP, *APP, {}, knobs(include_native=False))
        assert flipped["decompile"] == base["decompile"]
        assert flipped["scan"] != base["scan"]
        assert flipped["ct_lookup"] != base["ct_lookup"]
        assert flipped["report"] != base["report"]

    def test_detector_flip_rekeys_only_detect_and_result(self):
        params = DYNAMIC_GRAPH.params_from_extra(0.0)
        base = DYNAMIC_GRAPH.stage_keys(FP, *APP, params, knobs())
        flipped = DYNAMIC_GRAPH.stage_keys(FP, *APP, params, knobs(detector="no-tls13"))
        for unchanged in ("run_direct", "run_mitm", "exclusions"):
            assert flipped[unchanged] == base[unchanged]
        assert flipped["detect"] != base["detect"]
        assert flipped["result"] != base["result"]

    def test_wait_param_rekeys_every_stage(self):
        base = DYNAMIC_GRAPH.stage_keys(
            FP, *APP, DYNAMIC_GRAPH.params_from_extra(0.0), knobs()
        )
        rerun = DYNAMIC_GRAPH.stage_keys(
            FP, *APP, DYNAMIC_GRAPH.params_from_extra(120.0), knobs()
        )
        assert all(rerun[name] != base[name] for name in base)

    def test_hook_set_flip_rekeys_hooked_run(self):
        params = CIRCUMVENT_GRAPH.params_from_extra({"pinned.example"})
        base = CIRCUMVENT_GRAPH.stage_keys(FP, *APP, params, knobs())
        flipped = CIRCUMVENT_GRAPH.stage_keys(
            FP, *APP, params, knobs(hook_set=frozenset({"okhttp"}))
        )
        assert flipped["hook_inject"] != base["hook_inject"]
        assert flipped["hooked_run"] != base["hooked_run"]

    def test_pinned_set_does_not_rekey_hooked_run(self):
        # The expensive instrumented run is pinned-set-independent, so a
        # detector flip that changes an app's pinned destinations still
        # reuses its cached capture.
        one = CIRCUMVENT_GRAPH.stage_keys(
            FP, *APP, CIRCUMVENT_GRAPH.params_from_extra({"a.example"}), knobs()
        )
        other = CIRCUMVENT_GRAPH.stage_keys(
            FP, *APP, CIRCUMVENT_GRAPH.params_from_extra({"b.example"}), knobs()
        )
        assert one["hook_inject"] == other["hook_inject"]
        assert one["hooked_run"] == other["hooked_run"]
        assert one["verdict"] != other["verdict"]

    def test_set_knobs_are_order_canonical(self):
        keys = lambda hooks: CIRCUMVENT_GRAPH.stage_keys(
            FP, *APP, CIRCUMVENT_GRAPH.params_from_extra(()), knobs(hook_set=hooks)
        )
        assert keys(frozenset(("b", "a"))) == keys(frozenset(("a", "b")))

    def test_pipeline_objects_are_knobs(self, small_corpus):
        """A graph reads a pipeline's own attributes: default pipelines
        key as the default knobs do, and a flipped one as flipped knobs."""
        dynamic = DynamicPipeline(small_corpus)
        pipelines = (
            (STATIC_GRAPH, StaticPipeline(small_corpus.registry), None),
            (DYNAMIC_GRAPH, dynamic, 0.0),
            (CIRCUMVENT_GRAPH, CircumventionPipeline(dynamic), ("a.example",)),
        )
        for graph, pipeline, extra in pipelines:
            params = graph.params_from_extra(extra)
            assert graph.stage_keys(FP, *APP, params, pipeline) == graph.stage_keys(
                FP, *APP, params, knobs()
            ), graph.kind
        flipped = StaticPipeline(small_corpus.registry, include_native=False)
        assert STATIC_GRAPH.stage_keys(FP, *APP, {}, flipped) == STATIC_GRAPH.stage_keys(
            FP, *APP, {}, knobs(include_native=False)
        )


class TestGraphExecution:
    def test_per_stage_fault_point(self, small_corpus):
        """Stage-level injection points exist for every stage and carry
        the derived ``kind.stage`` phase name."""
        pipeline = StaticPipeline(
            small_corpus.registry,
            fault_predicate=SeededFaults(rate=1.0, phases=("static.scan",)),
        )
        with pytest.raises(InjectedFault) as excinfo:
            pipeline.analyze_app(small_corpus.dataset("android", "popular")[0])
        assert excinfo.value.phase == "static.scan"

    def test_app_level_fault_point_fires_first(self, small_corpus):
        pipeline = StaticPipeline(
            small_corpus.registry,
            fault_predicate=SeededFaults(rate=1.0),
        )
        with pytest.raises(InjectedFault) as excinfo:
            pipeline.analyze_app(small_corpus.dataset("android", "popular")[0])
        assert excinfo.value.phase == "static"

    def test_graph_derived_telemetry(self, small_corpus):
        recorder = obs.Recorder().install()
        try:
            pipeline = StaticPipeline(small_corpus.registry)
            pipeline.analyze_app(small_corpus.dataset("android", "popular")[0])
        finally:
            recorder.uninstall()
        names = {span.name for span in recorder.spans()}
        assert {"static.app", "static.decompile", "static.scan"} <= names
        # Assembly stages declare span=False and stay invisible, exactly
        # like the monolithic pipeline they replaced.
        assert "static.report" not in names
        for stage in ("decompile", "scan", "ct_lookup", "report"):
            assert (
                recorder.counter_value(f"pipeline.static.{stage}.computed")
                == 1
            )
