"""A warm study reads per-flow facts, not captures (DESIGN.md §10).

Tables 8 and 9 and the capture-consistency invariant read each result's
facts rows, which the pipelines build when they compute a result.  A
result served from the store carries its rows and no capture; the
captures are stage entries of their own in the pack, decoded only by a
stage lookup.  A warm study therefore builds no flow record, rebuilds no
TLS record, scans no payload for PII and derives no stage key, while a
detector flip over the same store still does the work it needs, decoding
each stage entry it serves once.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.core import obs
from repro.core.analysis import Study
from repro.core.analysis.pii_analysis import platform_pii_comparison
from repro.core.analysis.security import analyze_ciphers
from repro.core.exec import ResultStore
from repro.core.pii.detector import PIIDetector
from repro.core.pipeline.graph import StageGraph
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.netsim.flow import FlowRecord
from repro.reporting.render import render_study_stdout
from repro.tls import records

SEED = 2022
SCALE = 0.02
GOLDEN = Path(__file__).parent / "data" / "study_scale002_golden.txt"


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=SEED).scaled(SCALE)).generate()


@pytest.fixture(scope="module")
def filled(corpus, tmp_path_factory):
    """A store filled by one default study, and that study's results."""
    root = tmp_path_factory.mktemp("facts") / "store"
    return root, Study(corpus).run(store=root)


@pytest.fixture()
def calls(monkeypatch):
    """Counts flow-record construction (unpickling included), TLS record
    decoding, PII scans and stage-key derivations."""
    counted = Counter()

    def count(owner, name, key):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            counted[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(FlowRecord, "__init__", "FlowRecord")
    count(records, "_shared_record", "_shared_record")
    count(PIIDetector, "scan_flow", "scan_flow")
    count(StageGraph, "stage_keys", "stage_keys")
    return counted


def warm(corpus, root, **kwargs):
    """A study served from ``root`` without writing, and its counters."""
    recorder = obs.Recorder()
    store = ResultStore(root, corpus, write=False)
    results = Study(corpus, **kwargs).run(store=store, recorder=recorder)
    return results, recorder.metrics()["counters"]


class TestWarmRunReadsFacts:
    def test_warm_run_decodes_no_flow_and_derives_no_key(self, corpus, filled, calls):
        results, counters = warm(corpus, filled[0])
        assert render_study_stdout(results) == GOLDEN.read_text()
        assert counters["store.units.hit"] > 0
        assert "store.units.miss" not in counters
        assert dict(calls) == {}
        assert counters.get("store.stages.hit", 0) == 0

    def test_detector_flip_still_derives_keys_and_decodes_captures(
        self, corpus, filled, calls, monkeypatch
    ):
        looked_up = Counter()
        lookup_stage = ResultStore.lookup_stage

        def counting(store, fingerprint, *args, **kwargs):
            looked_up[fingerprint] += 1
            return lookup_stage(store, fingerprint, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "lookup_stage", counting)
        _, counters = warm(corpus, filled[0], detector="no-tls13")
        assert calls["stage_keys"] > 0
        assert calls["FlowRecord"] > 0
        assert counters["store.stages.hit"] > 0
        # Each stage entry is looked up once, and only a hit decodes it.
        assert max(looked_up.values()) == 1

    def test_tables_8_and_9_equal_the_computing_run(self, corpus, filled):
        cold = filled[1]
        served, _ = warm(corpus, filled[0])
        for key, results in cold.dynamic_results.items():
            assert analyze_ciphers(served.dynamic_results[key]) == analyze_ciphers(results)
        for platform in ("android", "ios"):
            dynamic = [
                result
                for (plat, _), per_dataset in sorted(served.dynamic_results.items())
                if plat == platform
                for result in per_dataset
            ]
            comparison = platform_pii_comparison(
                platform, dynamic, served.circumvention[platform]
            )
            assert comparison == cold.pii[platform] == served.pii[platform]
        assert served.table8().render() == cold.table8().render()
        assert served.table9().render() == cold.table9().render()
