"""Tests for repro.corpus.spec: a regenerated corpus is the same world.

Every warm run rests on one claim: generating a corpus twice from the
same config yields indistinguishable worlds, so results stored by one
process are valid in another.  These tests pin that down at three
levels — fingerprints (the result store's corpus key), content (a deep
digest over every generated app), and behaviour (byte-identical per-app
results for all three unit kinds, and result-store hits across the
regeneration boundary).
"""

import pickle

import pytest

from repro.core.exec.engine import _build_state, _run_unit
from repro.core.exec.resultstore import corpus_fingerprint
from repro.corpus import CorpusConfig, CorpusGenerator, content_fingerprint
from tests.store_helpers import bound_store


@pytest.fixture(scope="module")
def config():
    return CorpusConfig(seed=1337).scaled(0.015)


@pytest.fixture(scope="module")
def corpus(config):
    return CorpusGenerator(config).generate()


@pytest.fixture(scope="module")
def rebuilt(config):
    return CorpusGenerator(config).generate()


class TestRebuildParity:
    def test_rebuild_fingerprints_match(self, corpus, rebuilt):
        assert corpus_fingerprint(rebuilt) == corpus_fingerprint(corpus)

    def test_rebuild_content_matches(self, corpus, rebuilt):
        # Deep digest over every app, pinning spec, endpoint and CT entry
        # — far stronger than the shape fingerprint.
        assert content_fingerprint(rebuilt) == content_fingerprint(corpus)

    def test_content_fingerprint_separates_seeds(self):
        a = CorpusGenerator(CorpusConfig(seed=1).scaled(0.01)).generate()
        b = CorpusGenerator(CorpusConfig(seed=2).scaled(0.01)).generate()
        assert content_fingerprint(a) != content_fingerprint(b)

    @pytest.mark.parametrize(
        "key", [("android", "common"), ("ios", "popular")]
    )
    def test_per_app_results_identical_all_kinds(self, corpus, rebuilt, key):
        """Units run against a rebuilt corpus are byte-identical."""
        parent = _build_state(corpus, 30.0)
        worker = _build_state(rebuilt, 30.0)
        indices = tuple(range(min(3, len(corpus.dataset(*key)))))

        static_unit = ("static", key[0], key[1], indices, None)
        dynamic_unit = ("dynamic", key[0], key[1], indices, 0.0)
        parent_static = _run_unit(parent, static_unit)
        worker_static = _run_unit(worker, static_unit)
        parent_dynamic = _run_unit(parent, dynamic_unit)
        worker_dynamic = _run_unit(worker, dynamic_unit)

        pins = tuple(
            tuple(sorted(result.pinned_destinations))
            for result in parent_dynamic
        )
        circ_unit = ("circumvent", key[0], key[1], indices, pins)
        parent_circ = _run_unit(parent, circ_unit)
        worker_circ = _run_unit(worker, circ_unit)

        # TrafficCapture has no __eq__ (dataclass results holding one
        # compare by capture identity), so byte-identical pickles are
        # both the strongest and the only workable comparison.
        for mine, theirs in (
            (parent_static, worker_static),
            (parent_dynamic, worker_dynamic),
            (parent_circ, worker_circ),
        ):
            assert pickle.dumps(mine) == pickle.dumps(theirs)

    def test_store_entries_hit_across_the_rebuild_boundary(
        self, corpus, rebuilt, tmp_path
    ):
        """Results published against the parent corpus are found by a
        store handle keyed on the rebuilt corpus — the property that
        makes warm runs independent of which process built the corpus."""
        unit = ("static", "android", "common", (0, 1), None)
        results = _run_unit(_build_state(corpus, 30.0), unit)
        bound_store(tmp_path, corpus).publish_unit(unit, results)
        warm = bound_store(tmp_path, rebuilt).lookup_unit(unit)
        assert warm == results
