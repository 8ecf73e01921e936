"""A warm study reads per-flow facts, not captures (DESIGN.md §10).

Tables 8 and 9 and the capture-consistency invariant read each result's
facts rows, which the pipelines build when they compute a result.  A
result served from the store carries its rows; its captures stay in the
stage pickle of its pack segment and decode only when something reads
them.  A warm study therefore builds no flow record, rebuilds no TLS
record, scans no payload for PII and derives no stage key, while a
detector flip over the same store still does the work it needs.
"""

from __future__ import annotations

import shutil
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


class FakeResult:
    """A stand-in result of another config, with no captures."""

    def __init__(self, app_id):
        self.app_id = app_id
        self.pinned_destinations = set()

    def pins(self):
        return False


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
        assert counters.get("store.stages.decoded", 0) == 0

    def test_detector_flip_still_derives_keys_and_decodes_captures(
        self, corpus, filled, calls
    ):
        _, counters = warm(corpus, filled[0], detector="no-tls13")
        assert calls["stage_keys"] > 0
        assert calls["FlowRecord"] > 0
        assert counters["store.stages.decoded"] > 0

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


class TestDeferredCaptures:
    def test_served_captures_decode_on_first_read(self, corpus, filled):
        cold = filled[1]
        served, _ = warm(corpus, filled[0])
        pairs = [
            (mine, theirs)
            for key, results in cold.dynamic_results.items()
            for theirs, mine in zip(results, served.dynamic_results[key])
        ]
        assert all("flows" not in vars(mine.mitm_capture) for mine, _ in pairs)
        recorder = obs.Recorder().install()
        try:
            for mine, theirs in pairs:
                assert mine.direct_capture.flows == theirs.direct_capture.flows
                assert mine.mitm_capture.flows == theirs.mitm_capture.flows
                assert mine.direct_facts == theirs.direct_facts
                assert mine.mitm_facts == theirs.mitm_facts
        finally:
            recorder.uninstall()
        # Both captures of a result come from one decode of its segment.
        assert recorder.metrics()["counters"]["store.stages.decoded"] == len(pairs)

    def test_results_pickle_holds_no_capture(self, corpus, filled):
        """A served result's captures are references into the stage
        pickle: decoding the results decodes no flow."""
        store = ResultStore(filled[0], corpus, write=False)
        key = ("ios", "popular")
        indices = tuple(range(len(corpus.dataset(*key))))
        served = store.lookup_unit(("dynamic", *key, indices, 0.0))
        assert served
        for result in served:
            for capture in (result.direct_capture, result.mitm_capture):
                assert set(vars(capture)) == {"_load"}

    def served_unit(self, corpus, root):
        key = ("ios", "popular")
        indices = tuple(range(len(corpus.dataset(*key))))
        return ResultStore(root, corpus, write=False).lookup_unit(
            ("dynamic", *key, indices, 0.0)
        )

    def test_capture_decodes_after_a_later_write_replaced_the_pack(
        self, corpus, filled, tmp_path
    ):
        root = tmp_path / "store"
        shutil.copytree(filled[0], root)
        served = self.served_unit(corpus, root)
        # Another config's results merge into the same pack file.
        writer = ResultStore(root, corpus)
        indices = tuple(range(len(served)))
        others = [FakeResult(result.app_id) for result in served]
        writer.publish_unit(("dynamic", "ios", "popular", indices, 7.0), others)
        assert writer.stats.published == len(served)
        assert all("flows" not in vars(result.mitm_capture) for result in served)
        cold = filled[1].dynamic_results[("ios", "popular")]
        for mine, theirs in zip(served, cold):
            assert mine.mitm_capture.flows == theirs.mitm_capture.flows

    def test_damaged_pack_is_discarded_when_a_capture_is_read(
        self, corpus, filled, tmp_path
    ):
        root = tmp_path / "store"
        shutil.copytree(filled[0], root)
        served = self.served_unit(corpus, root)
        pack = ResultStore(root, corpus).pack_path("dynamic", "ios", "popular")
        blob = bytearray(pack.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        pack.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            with pytest.raises(LookupError):
                served[0].direct_capture.flows
        assert not pack.exists()
