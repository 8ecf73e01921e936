"""The content-addressed result store: fingerprints, packs, corruption.

The store's contract (DESIGN.md §10): a result is served only under the
exact fingerprint of everything it is a function of; a damaged pack is
invalidated with a ``RuntimeWarning`` and recomputed, never trusted.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core import obs
from repro.core.exec import is_retryable, resultstore
from repro.core.exec.resultstore import (
    ResultStore,
    corpus_fingerprint,
    normalize_extra,
    summarize_result,
)
from repro.core.circumvent.pipeline import CircumventionPipeline
from repro.core.dynamic.pipeline import DynamicPipeline
from repro.core.pipeline.graph import CODE_SALT
from repro.core.static.pipeline import StaticPipeline
from repro.corpus import CorpusConfig, CorpusGenerator
from tests.store_helpers import bound_store, knobs, publish


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=1337).scaled(0.015)).generate()


class FakeResult:
    """Minimal picklable stand-in for a dynamic result."""

    def __init__(self, app_id, pinned=()):
        self.app_id = app_id
        self.pinned_destinations = set(pinned)

    def pins(self):
        return bool(self.pinned_destinations)

    def __eq__(self, other):
        return (
            type(other) is FakeResult
            and other.app_id == self.app_id
            and other.pinned_destinations == self.pinned_destinations
        )


#: Each result kind's stage graph, as its pipeline class holds it.
GRAPHS = {
    "static": StaticPipeline.graph,
    "dynamic": DynamicPipeline.graph,
    "circumvent": CircumventionPipeline.graph,
}


def app_key(corpus_fp, sleep_s, stage, platform, dataset, app_id, extra):
    """An app result's address: its stage graph's final chain key."""
    graph = GRAPHS[stage]
    params = graph.params_from_extra(extra)
    keys = graph.stage_keys(corpus_fp, platform, dataset, app_id, params, knobs(sleep_s=sleep_s))
    return keys[graph.final]


def config_digest(stage, extra, sleep_s=30.0):
    graph = GRAPHS[stage]
    return graph.config_digest(graph.params_from_extra(extra), knobs(sleep_s=sleep_s))


def app_ids(corpus, platform="ios", dataset="common"):
    return [packaged.app.app_id for packaged in corpus.dataset(platform, dataset)]


class TestFingerprints:
    def test_stable_across_calls(self):
        a = app_key("c", 30.0, "dynamic", "android", "popular", "x", 0.0)
        b = app_key("c", 30.0, "dynamic", "android", "popular", "x", 0.0)
        assert a == b
        assert config_digest("dynamic", 0.0) == config_digest("dynamic", 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"corpus_fp": "other"},
            {"sleep_s": 60.0},
            {"stage": "static"},
            {"platform": "ios"},
            {"dataset": "random"},
            {"app_id": "y"},
            {"extra": 120.0},
        ],
    )
    def test_every_component_matters(self, kwargs):
        base = dict(
            corpus_fp="c",
            sleep_s=30.0,
            stage="dynamic",
            platform="android",
            dataset="popular",
            app_id="x",
            extra=0.0,
        )
        assert app_key(**base) != app_key(**{**base, **kwargs})

    def test_circumvent_extra_is_order_insensitive(self):
        base = dict(
            corpus_fp="c",
            sleep_s=30.0,
            stage="circumvent",
            platform="ios",
            dataset="common",
            app_id="x",
        )
        assert app_key(**base, extra=("b", "a")) == app_key(**base, extra=("a", "b"))
        assert config_digest("circumvent", ("b", "a")) == config_digest("circumvent", ("a", "b"))

    def test_normalize_extra(self):
        assert normalize_extra("static", None) is None
        assert normalize_extra("dynamic", None) == 0.0
        assert normalize_extra("dynamic", 120) == 120.0
        assert normalize_extra("circumvent", {"b", "a"}) == ("a", "b")

    def test_corpus_fingerprint_tracks_seed_and_shape(self, corpus):
        fp = corpus_fingerprint(corpus)
        assert fp == corpus_fingerprint(corpus)
        other = CorpusGenerator(
            CorpusConfig(seed=1337).scaled(0.02)
        ).generate()
        assert fp != corpus_fingerprint(other)

    def test_salt_enters_fingerprint(self, monkeypatch):
        args = ("c", 30.0, "dynamic", "android", "popular", "x", 0.0)
        key, digest = app_key(*args), config_digest("dynamic", 0.0)
        pack = resultstore.pack_name("c", "dynamic", "android", "popular")
        # The graph hashes the salt into keys, the store into file names.
        for module in ("repro.core.pipeline.graph", "repro.core.exec.resultstore"):
            monkeypatch.setattr(f"{module}.CODE_SALT", CODE_SALT + "-bumped")
        assert app_key(*args) != key
        assert config_digest("dynamic", 0.0) != digest
        assert resultstore.pack_name("c", "dynamic", "android", "popular") != pack


class TestSummaries:
    def test_dynamic_like_summary(self):
        summary = summarize_result(FakeResult("a", {"z.com", "a.com"}))
        assert summary["pinned"] is True
        assert summary["pinned_destinations"] == ["a.com", "z.com"]

    def test_opaque_object_summary_is_empty(self):
        assert summarize_result(object()) == {}


class TestRoundTrip:
    def test_publish_then_lookup(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        app_id = app_ids(corpus, "android", "popular")[0]
        result = FakeResult(app_id, {"api.example.com"})
        publish(store, "dynamic", "android", "popular", app_id, 0.0, result)
        loaded = store.lookup_app("dynamic", "android", "popular", app_id, 0.0)
        assert loaded == result
        assert store.stats.published == 1

    def test_miss_on_other_config(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        app_id = app_ids(corpus, "android", "popular")[0]
        publish(store, "dynamic", "android", "popular", app_id, 0.0, FakeResult(app_id))
        assert store.lookup_app("dynamic", "android", "popular", app_id, 120.0) is None

    def test_publish_is_idempotent(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        app_id = app_ids(corpus)[1]
        for _ in range(3):
            publish(store, "static", "ios", "common", app_id, None, FakeResult(app_id))
        assert store.stats.published == 1

    def test_write_flag_disables_publish(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus, write=False)
        app_id = app_ids(corpus)[3]
        publish(store, "static", "ios", "common", app_id, None, FakeResult(app_id))
        assert store.stats.published == 0
        assert not (tmp_path / "s").exists()

    def test_manifest_written_once(self, corpus, tmp_path, monkeypatch):
        checks = []
        ensure = resultstore._ensure_manifest

        def counting(root):
            checks.append(root)
            ensure(root)

        monkeypatch.setattr(resultstore, "_ensure_manifest", counting)
        store = bound_store(tmp_path / "s", corpus)
        for app_id in app_ids(corpus)[4:6]:
            publish(store, "static", "ios", "common", app_id, None, FakeResult(app_id))
        assert (tmp_path / "s" / "store.json").exists()
        # One check per handle, not one per write.
        assert len(checks) == 1

    def test_sleep_change_invalidates(self, corpus, tmp_path):
        app_id = app_ids(corpus)[5]
        a = bound_store(tmp_path / "s", corpus, sleep_s=30.0)
        publish(a, "dynamic", "ios", "common", app_id, 0.0, FakeResult(app_id))
        b = bound_store(tmp_path / "s", corpus, sleep_s=60.0)
        assert b.lookup_app("dynamic", "ios", "common", app_id, 0.0) is None


class TestBinding:
    """Addresses read their config knobs from the bound pipelines only."""

    def test_unbound_kind_raises_non_retryable(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        with pytest.raises(TypeError, match="no static pipeline") as info:
            store.lookup_unit(("static", "android", "popular", (0,), None))
        assert not is_retryable(info.value)

    def test_graph_run_binds_its_pipeline(self, corpus, tmp_path):
        """A pipeline run against an unbound handle binds its own knobs:
        the result it files is addressed under them, which a handle
        bound to the default pipelines does not find."""
        store = ResultStore(tmp_path / "s", corpus)
        pipeline = StaticPipeline(corpus.registry, include_native=False)
        packaged = corpus.dataset("android", "popular")[0]
        result = pipeline.analyze_app(packaged, cache=store, dataset="popular")
        unit = ("static", "android", "popular", (0,), None)
        store.publish_unit(unit, [result])
        assert store.lookup_unit(unit) is not None
        assert bound_store(tmp_path / "s", corpus).lookup_unit(unit) is None


class TestUnits:
    def _unit(self, corpus, n=3):
        apps = corpus.dataset("android", "popular")
        assert len(apps) >= n
        return ("static", "android", "popular", tuple(range(n)), None)

    def test_publish_unit_then_lookup_unit(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        unit = self._unit(corpus)
        apps = corpus.dataset("android", "popular")
        results = [FakeResult(apps[i].app.app_id) for i in unit[3]]
        store.publish_unit(unit, results)
        assert store.lookup_unit(unit) == results
        assert store.stats.unit_hits == 1

    def test_partial_unit_is_a_miss(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        unit = self._unit(corpus)
        apps = corpus.dataset("android", "popular")
        results = [FakeResult(apps[i].app.app_id) for i in unit[3]]
        # Store every app but one: the composed unit must miss whole.
        for index in (0, 2):
            publish(
                store, "static", "android", "popular", apps[index].app.app_id,
                None, results[index],
            )
        assert store.lookup_unit(unit) is None
        assert store.stats.unit_misses == 1

    def test_incomplete_unit_is_not_published(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        unit = self._unit(corpus)
        store.publish_unit(unit, [FakeResult("only-one")])
        assert store.stats.published == 0

    def test_chunking_does_not_matter(self, corpus, tmp_path):
        """Entries are per app: a differently chunked unit still hits."""
        store = bound_store(tmp_path / "s", corpus)
        apps = corpus.dataset("android", "popular")
        results = [FakeResult(apps[i].app.app_id) for i in range(3)]
        store.publish_unit(
            ("static", "android", "popular", (0, 1, 2), None), results
        )
        solo = store.lookup_unit(("static", "android", "popular", (1,), None))
        assert solo == [results[1]]


class TestCorruption:
    """Truncated/tampered packs fall back to recompute with a warning."""

    def _pack_path(self, store, corpus):
        app_id = corpus.dataset("ios", "common")[0].app.app_id
        publish(
            store, "static", "ios", "common", app_id, None, FakeResult(app_id)
        )
        return app_id, store.pack_path("static", "ios", "common")

    def _assert_invalidated(self, store, corpus, app_id, path):
        # A fresh handle: the publishing one holds the pack decoded.
        reader = bound_store(store.root, corpus)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert (
                reader.lookup_app("static", "ios", "common", app_id, None)
                is None
            )
        assert reader.stats.invalidated == 1
        assert not path.exists(), "a bad pack must be deleted"

    def test_truncated_entry(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        app_id, path = self._pack_path(store, corpus)
        path.write_bytes(path.read_bytes()[:20])
        self._assert_invalidated(store, corpus, app_id, path)

    def test_tampered_payload(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        app_id, path = self._pack_path(store, corpus)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        self._assert_invalidated(store, corpus, app_id, path)

    def test_wrong_magic(self, corpus, tmp_path):
        store = bound_store(tmp_path / "s", corpus)
        app_id, path = self._pack_path(store, corpus)
        path.write_bytes(pickle.dumps(("not-an-entry", 1, "x", {}, "d", b"")))
        self._assert_invalidated(store, corpus, app_id, path)

    def test_entry_under_wrong_fingerprint(self, corpus, tmp_path):
        """A valid envelope filed under another dataset's pack must not
        be served."""
        store = bound_store(tmp_path / "s", corpus)
        app_id, path = self._pack_path(store, corpus)
        wrong = store.pack_path("static", "ios", "popular")
        wrong.write_bytes(path.read_bytes())
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert (
                store.lookup_app("static", "ios", "popular", app_id, None)
                is None
            )

    def test_recompute_republishes_after_invalidation(self, corpus, tmp_path):
        app_id, path = self._pack_path(
            bound_store(tmp_path / "s", corpus), corpus
        )
        path.write_bytes(b"garbage")
        store = bound_store(tmp_path / "s", corpus)
        with pytest.warns(RuntimeWarning):
            store.lookup_app("static", "ios", "common", app_id, None)
        # The caller recomputes and publishes; the entry is whole again.
        publish(
            store, "static", "ios", "common", app_id, None, FakeResult(app_id)
        )
        assert (
            store.lookup_app("static", "ios", "common", app_id, None)
            is not None
        )


class TestConcurrentWriters:
    def test_second_writer_of_same_key_finishes_first(
        self, corpus, tmp_path, monkeypatch
    ):
        """Two writers of one key in one process (two store handles over
        one directory) must not share a temp file: with a per-process temp
        name, the second writer's ``os.replace`` consumed the first
        writer's temp file and the first ``os.replace`` raised
        ``FileNotFoundError``."""
        app_id = corpus.dataset("ios", "common")[0].app.app_id
        first = bound_store(tmp_path / "s", corpus)
        second = bound_store(tmp_path / "s", corpus)
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            if not interleaved:
                interleaved.append(src)
                publish(
                    second, "static", "ios", "common", app_id, None, FakeResult(app_id)
                )
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        publish(
            first, "static", "ios", "common", app_id, None, FakeResult(app_id)
        )
        assert interleaved
        reader = bound_store(tmp_path / "s", corpus)
        assert reader.lookup_app(
            "static", "ios", "common", app_id, None
        ) == FakeResult(app_id)
        assert not list((tmp_path / "s").rglob("*.tmp"))


class TestTelemetry:
    def test_counters_reach_active_recorder(self, corpus, tmp_path):
        recorder = obs.Recorder().install()
        try:
            store = bound_store(tmp_path / "s", corpus)
            app_id = corpus.dataset("android", "common")[0].app.app_id
            publish(
                store, "static", "android", "common", app_id, None, FakeResult(app_id)
            )
            store.lookup_unit(("static", "android", "common", (0,), None))
            store.lookup_unit(("static", "android", "common", (1,), None))
            assert recorder.counter_value("store.apps.published") == 1
            assert recorder.counter_value("store.units.hit") == 1
            assert recorder.counter_value("store.units.miss") == 1
        finally:
            recorder.uninstall()


class TestProgrammingErrorsPropagate:
    """Only corruption-shaped errors invalidate an entry.  A payload that
    unpickles into a renamed/moved class is a programming error (a missed
    CODE_SALT bump) and must propagate, not warn-and-recompute."""

    def test_renamed_result_class_raises_on_lookup(
        self, corpus, tmp_path, monkeypatch
    ):
        import sys

        store = bound_store(tmp_path / "s", corpus)
        app_id = corpus.dataset("ios", "common")[0].app.app_id
        publish(
            store, "static", "ios", "common", app_id, None, FakeResult(app_id)
        )
        module = sys.modules[FakeResult.__module__]
        monkeypatch.delattr(module, "FakeResult")
        reader = bound_store(tmp_path / "s", corpus)
        with pytest.raises(AttributeError):
            reader.lookup_app("static", "ios", "common", app_id, None)
        # Not misfiled as corruption: nothing invalidated, pack intact.
        assert reader.stats.invalidated == 0
        assert store.pack_path("static", "ios", "common").exists()
