"""A result built without a store keeps facts, not captures (DESIGN.md §7).

Its captures are deferred handles that re-run the harness call the stage
made, with that stage's run config, on first read; a result served from
the store decodes them from its pack instead.  Either way a capture reads
back the same flows, and a store-less study frees every flow record as
soon as its facts and verdicts exist.
"""

from __future__ import annotations

import copy
import gc
import pickle

import pytest

from repro.core.analysis import Study
from repro.core.dynamic.detector import detect_verdicts
from repro.core.dynamic.pipeline import DynamicPipeline
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.netsim.flow import FlowRecord
from repro.tls.connection import ConnectionTrace

SEED = 2022
SCALE = 0.02


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=SEED).scaled(SCALE)).generate()


@pytest.fixture(scope="module")
def storeless(corpus):
    return Study(corpus).run()


@pytest.fixture(scope="module")
def served(corpus, tmp_path_factory):
    """A study served from a store that a first study filled."""
    root = tmp_path_factory.mktemp("release") / "store"
    Study(corpus).run(store=root)
    return Study(corpus).run(store=root)


def _live(kind: type) -> int:
    return sum(type(o) is kind for o in gc.get_objects())


def _captures(results):
    """``(label, capture)`` for every capture of every result."""
    for key, dataset_results in sorted(results.dynamic_results.items()):
        for result in dataset_results:
            label = (key, result.app_id, result.reran_with_wait)
            yield label + ("direct",), result.direct_capture
            yield label + ("mitm",), result.mitm_capture
    for platform, circumvented in sorted(results.circumvention.items()):
        for result in circumvented:
            yield (platform, result.app_id, "hooked"), result.hooked_capture


def test_storeless_study_holds_no_flow(corpus):
    gc.collect()
    before = (_live(FlowRecord), _live(ConnectionTrace))
    results = Study(corpus).run()
    gc.collect()
    assert (_live(FlowRecord), _live(ConnectionTrace)) == before
    # Every capture is a handle that has not run yet, holding the run
    # config its stage used.
    loads = {label: vars(c)["_load"] for label, c in _captures(results)}
    assert all(set(vars(c)) == {"_load"} for _, c in _captures(results))
    configs = {label: load.args[1] for label, load in loads.items()}
    assert all(c.mitm == (label[-1] != "direct") for label, c in configs.items())
    assert any(c.pre_launch_wait_s == 120.0 for c in configs.values())
    hooked = [c for label, c in configs.items() if label[-1] == "hooked"]
    assert hooked and all(c.policy_override is not None for c in hooked)


def test_deferred_captures_equal_the_served_ones(storeless, served):
    mine = dict(_captures(storeless))
    theirs = dict(_captures(served))
    assert mine.keys() == theirs.keys()
    assert {label[-1] for label in mine} == {"direct", "mitm", "hooked"}
    assert any(label[2] is True for label in mine)  # the 120 s re-run
    for label, capture in mine.items():
        assert capture.flows == theirs[label].flows, label


def test_copies_materialise_equal_flows(corpus, served):
    packaged = corpus.dataset("android", "popular")[0]
    pipeline = DynamicPipeline(corpus)
    reference = served.dynamic_results[("android", "popular")][0]
    assert reference.app_id == packaged.app.app_id
    for twin_of in (copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        twin = twin_of(pipeline.run_app(packaged))
        assert twin.direct_capture.flows == reference.direct_capture.flows
        assert twin.mitm_capture.flows == reference.mitm_capture.flows
        assert twin.verdicts == reference.verdicts


def _redetected(result, detector):
    return detect_verdicts(
        result.direct_capture,
        result.mitm_capture,
        result.excluded_destinations,
        detector,
    )


def test_redetection_agrees_over_storeless_and_served(corpus, served):
    storeless = Study(corpus).run()  # its captures not read yet
    for detector in ("naive", "no-tls13"):
        changed = 0
        for key, mine in storeless.dynamic_results.items():
            theirs = served.dynamic_results[key]
            assert [r.app_id for r in mine] == [r.app_id for r in theirs]
            for result, other in zip(mine, theirs):
                verdicts = _redetected(result, detector)
                assert verdicts == _redetected(other, detector), (
                    detector,
                    key,
                    result.app_id,
                )
                changed += verdicts != result.verdicts
        # The ablation is not the stored detector's verdicts read back.
        assert changed, detector
