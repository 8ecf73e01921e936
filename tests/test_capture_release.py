"""A finished result keeps facts and verdicts, not captures (DESIGN.md §7).

A capture is a stage artifact only.  ``DynamicPipeline.captures`` and
``CircumventionPipeline.hooked_capture`` make one again by re-running the
graph's own stage functions: what they return equals what the graph
computed and stored, and re-detecting from it gives the verdicts a study
of that detector reports.  A study, with a store or without, frees every
flow record as soon as its facts and verdicts exist.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.analysis import Study
from repro.core.circumvent.pipeline import CircumventionPipeline
from repro.core.dynamic.detector import detect_verdicts
from repro.core.dynamic.pipeline import DynamicPipeline
from repro.core.exec import ResultStore
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.netsim.flow import FlowRecord
from repro.tls.connection import ConnectionTrace

SEED = 2022
SCALE = 0.02


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=SEED).scaled(SCALE)).generate()


@pytest.fixture(scope="module")
def filled(corpus, tmp_path_factory):
    """A store filled by one default study, and that study's results."""
    root = tmp_path_factory.mktemp("release") / "store"
    return root, Study(corpus).run(store=root)


def _live(kind: type) -> int:
    return sum(type(o) is kind for o in gc.get_objects())


def _runs(results, corpus):
    """``(platform, dataset, packaged, result)`` for every dynamic result."""
    for (platform, dataset), per_dataset in sorted(results.dynamic_results.items()):
        packaged = {p.app.app_id: p for p in corpus.dataset(platform, dataset)}
        for result in per_dataset:
            yield platform, dataset, packaged[result.app_id], result


def _wait(result) -> float:
    return 120.0 if result.reran_with_wait else 0.0


def test_storeless_study_holds_no_flow(corpus):
    gc.collect()
    before = (_live(FlowRecord), _live(ConnectionTrace))
    results = Study(corpus).run()
    gc.collect()
    assert results.dynamic_results
    assert (_live(FlowRecord), _live(ConnectionTrace)) == before


def test_store_filling_study_holds_no_flow(corpus, tmp_path):
    gc.collect()
    before = (_live(FlowRecord), _live(ConnectionTrace))
    results = Study(corpus).run(store=tmp_path / "store")
    gc.collect()
    assert results.dynamic_results
    assert (_live(FlowRecord), _live(ConnectionTrace)) == before


def test_captures_equal_the_stored_stage_artifacts(corpus, filled):
    root, results = filled
    store = ResultStore(root, corpus, write=False)
    dynamic = DynamicPipeline(corpus)
    circumvent = CircumventionPipeline(dynamic)

    def stored(pipeline, stage, platform, dataset, app_id, params):
        graph = pipeline.graph
        keys = store.stage_keys(graph, platform, dataset, app_id, params, pipeline)
        return store.lookup_stage(keys[stage], graph.kind, stage, platform, dataset)

    waits, hooked = set(), 0
    for platform, dataset, packaged, result in _runs(results, corpus):
        app_id, wait = result.app_id, _wait(result)
        params = {"wait": wait, "interact": False}
        direct, mitm = dynamic.captures(packaged, wait=wait)
        assert direct.flows == stored(
            dynamic, "run_direct", platform, dataset, app_id, params
        ).flows
        assert mitm.flows == stored(
            dynamic, "run_mitm", platform, dataset, app_id, params
        ).flows
        waits.add(wait)
        if result.pins():
            params = {"pinned": tuple(sorted(result.pinned_destinations))}
            capture = circumvent.hooked_capture(packaged)
            assert capture.flows == stored(
                circumvent, "hooked_run", platform, dataset, app_id, params
            ).flows
            hooked += 1
    assert waits == {0.0, 120.0}  # the Common-iOS re-run included
    assert hooked
    assert store.stats.stage_misses == 0


def test_redetection_equals_the_detector_study(corpus, filled):
    """Re-detecting from the captures under an ablation detector gives
    that detector's study verdicts, app by app (where both studies ran
    the app with the same pre-launch wait)."""
    results = filled[1]
    dynamic = DynamicPipeline(corpus)
    captures = {
        (platform, dataset, result.app_id): (
            dynamic.captures(packaged, wait=_wait(result)),
            result,
        )
        for platform, dataset, packaged, result in _runs(results, corpus)
    }
    for detector in ("naive", "no-tls13"):
        ablation = Study(corpus, detector=detector).run()
        compared = changed = 0
        for platform, dataset, _packaged, theirs in _runs(ablation, corpus):
            (direct, mitm), mine = captures[(platform, dataset, theirs.app_id)]
            if mine.reran_with_wait != theirs.reran_with_wait:
                continue
            verdicts = detect_verdicts(direct, mitm, mine.excluded_destinations, detector)
            assert verdicts == theirs.verdicts, (detector, platform, dataset, theirs.app_id)
            compared += 1
            changed += verdicts != mine.verdicts
        assert compared > 0.9 * len(captures), detector
        # The ablation is not the default detector's verdicts read back.
        assert changed, detector
