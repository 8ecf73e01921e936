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
from repro.core.exec import resultstore
from repro.core.exec.resultstore import (
    CODE_SALT,
    ResultStore,
    app_fingerprint,
    corpus_fingerprint,
    normalize_extra,
    summarize_result,
)
from repro.corpus import CorpusConfig, CorpusGenerator


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


class TestFingerprints:
    def test_stable_across_calls(self):
        a = app_fingerprint("c", 30.0, "dynamic", "android", "popular", "x", 0.0)
        b = app_fingerprint("c", 30.0, "dynamic", "android", "popular", "x", 0.0)
        assert a == b

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
        assert app_fingerprint(**base) != app_fingerprint(**{**base, **kwargs})

    def test_circumvent_extra_is_order_insensitive(self):
        base = dict(
            corpus_fp="c",
            sleep_s=30.0,
            stage="circumvent",
            platform="ios",
            dataset="common",
            app_id="x",
        )
        assert app_fingerprint(**base, extra=("b", "a")) == app_fingerprint(
            **base, extra=("a", "b")
        )

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

    def test_salt_enters_fingerprint(self):
        assert CODE_SALT  # bumping it must invalidate — see fingerprint body


class TestSummaries:
    def test_dynamic_like_summary(self):
        summary = summarize_result(FakeResult("a", {"z.com", "a.com"}))
        assert summary["pinned"] is True
        assert summary["pinned_destinations"] == ["a.com", "z.com"]

    def test_opaque_object_summary_is_empty(self):
        assert summarize_result(object()) == {}


class TestRoundTrip:
    def test_publish_then_lookup(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        result = FakeResult("app-1", {"api.example.com"})
        store.publish_app("dynamic", "android", "popular", "app-1", 0.0, result)
        loaded = store.lookup_app("dynamic", "android", "popular", "app-1", 0.0)
        assert loaded == result
        assert store.stats.app_hits == 1
        assert store.stats.published == 1

    def test_miss_on_other_config(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        store.publish_app(
            "dynamic", "android", "popular", "app-1", 0.0, FakeResult("app-1")
        )
        assert (
            store.lookup_app("dynamic", "android", "popular", "app-1", 120.0)
            is None
        )
        assert store.stats.app_misses == 1

    def test_publish_is_idempotent(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        for _ in range(3):
            store.publish_app(
                "static", "ios", "common", "app-2", None, FakeResult("app-2")
            )
        assert store.stats.published == 1

    def test_read_flag_disables_lookup(self, corpus, tmp_path):
        writer = ResultStore(tmp_path / "s", corpus)
        writer.publish_app(
            "static", "ios", "common", "app-3", None, FakeResult("app-3")
        )
        no_read = ResultStore(tmp_path / "s", corpus, read=False)
        assert (
            no_read.lookup_app("static", "ios", "common", "app-3", None)
            is None
        )
        # A disabled read is not a miss: nothing was consulted.
        assert no_read.stats.app_misses == 0

    def test_write_flag_disables_publish(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus, write=False)
        store.publish_app(
            "static", "ios", "common", "app-4", None, FakeResult("app-4")
        )
        assert store.stats.published == 0
        assert not (tmp_path / "s").exists()

    def test_manifest_written_once(self, corpus, tmp_path, monkeypatch):
        checks = []
        ensure = resultstore._ensure_manifest

        def counting(root):
            checks.append(root)
            ensure(root)

        monkeypatch.setattr(resultstore, "_ensure_manifest", counting)
        store = ResultStore(tmp_path / "s", corpus)
        for app_id in ("app-5", "app-6"):
            store.publish_app(
                "static", "ios", "common", app_id, None, FakeResult(app_id)
            )
        assert (tmp_path / "s" / "store.json").exists()
        # One check per handle, not one per write.
        assert len(checks) == 1

    def test_sleep_change_invalidates(self, corpus, tmp_path):
        a = ResultStore(tmp_path / "s", corpus, sleep_s=30.0)
        a.publish_app(
            "dynamic", "ios", "common", "app-6", 0.0, FakeResult("app-6")
        )
        b = ResultStore(tmp_path / "s", corpus, sleep_s=60.0)
        assert b.lookup_app("dynamic", "ios", "common", "app-6", 0.0) is None


class TestUnits:
    def _unit(self, corpus, n=3):
        apps = corpus.dataset("android", "popular")
        assert len(apps) >= n
        return ("static", "android", "popular", tuple(range(n)), None)

    def test_publish_unit_then_lookup_unit(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        unit = self._unit(corpus)
        apps = corpus.dataset("android", "popular")
        results = [FakeResult(apps[i].app.app_id) for i in unit[3]]
        store.publish_unit(unit, results)
        assert store.lookup_unit(unit) == results
        assert store.stats.unit_hits == 1

    def test_partial_unit_is_a_miss(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        unit = self._unit(corpus)
        apps = corpus.dataset("android", "popular")
        results = [FakeResult(apps[i].app.app_id) for i in unit[3]]
        # Store every app but one: the composed unit must miss whole.
        for index in (0, 2):
            store.publish_app(
                "static", "android", "popular", apps[index].app.app_id,
                None, results[index],
            )
        assert store.lookup_unit(unit) is None
        assert store.stats.unit_misses == 1

    def test_incomplete_unit_is_not_published(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        unit = self._unit(corpus)
        store.publish_unit(unit, [FakeResult("only-one")])
        assert store.stats.published == 0

    def test_chunking_does_not_matter(self, corpus, tmp_path):
        """Entries are per app: a differently chunked unit still hits."""
        store = ResultStore(tmp_path / "s", corpus)
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
        store.publish_app(
            "static", "ios", "common", app_id, None, FakeResult(app_id)
        )
        return app_id, store.pack_path("static", "ios", "common")

    def _assert_invalidated(self, store, corpus, app_id, path):
        # A fresh handle: the publishing one holds the pack decoded.
        reader = ResultStore(store.root, corpus)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert (
                reader.lookup_app("static", "ios", "common", app_id, None)
                is None
            )
        assert reader.stats.invalidated == 1
        assert not path.exists(), "a bad pack must be deleted"

    def test_truncated_entry(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        app_id, path = self._pack_path(store, corpus)
        path.write_bytes(path.read_bytes()[:20])
        self._assert_invalidated(store, corpus, app_id, path)

    def test_tampered_payload(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        app_id, path = self._pack_path(store, corpus)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        self._assert_invalidated(store, corpus, app_id, path)

    def test_wrong_magic(self, corpus, tmp_path):
        store = ResultStore(tmp_path / "s", corpus)
        app_id, path = self._pack_path(store, corpus)
        path.write_bytes(pickle.dumps(("not-an-entry", 1, "x", {}, "d", b"")))
        self._assert_invalidated(store, corpus, app_id, path)

    def test_entry_under_wrong_fingerprint(self, corpus, tmp_path):
        """A valid envelope filed under another dataset's pack must not
        be served."""
        store = ResultStore(tmp_path / "s", corpus)
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
            ResultStore(tmp_path / "s", corpus), corpus
        )
        path.write_bytes(b"garbage")
        store = ResultStore(tmp_path / "s", corpus)
        with pytest.warns(RuntimeWarning):
            store.lookup_app("static", "ios", "common", app_id, None)
        # The caller recomputes and publishes; the entry is whole again.
        store.publish_app(
            "static", "ios", "common", app_id, None, FakeResult(app_id)
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
        first = ResultStore(tmp_path / "s", corpus)
        second = ResultStore(tmp_path / "s", corpus)
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            if not interleaved:
                interleaved.append(src)
                second.publish_app(
                    "static", "ios", "common", app_id, None, FakeResult(app_id)
                )
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        first.publish_app(
            "static", "ios", "common", app_id, None, FakeResult(app_id)
        )
        assert interleaved
        reader = ResultStore(tmp_path / "s", corpus)
        assert reader.lookup_app(
            "static", "ios", "common", app_id, None
        ) == FakeResult(app_id)
        assert not list((tmp_path / "s").rglob("*.tmp"))


class TestTelemetry:
    def test_counters_reach_active_recorder(self, corpus, tmp_path):
        recorder = obs.Recorder().install()
        try:
            store = ResultStore(tmp_path / "s", corpus)
            app_id = corpus.dataset("android", "common")[0].app.app_id
            store.publish_app(
                "static", "android", "common", app_id, None, FakeResult(app_id)
            )
            store.lookup_app("static", "android", "common", app_id, None)
            store.lookup_app("static", "android", "common", "missing", None)
            assert recorder.counter_value("store.apps.published") == 1
            assert recorder.counter_value("store.apps.hit") == 1
            assert recorder.counter_value("store.apps.miss") == 1
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

        store = ResultStore(tmp_path / "s", corpus)
        app_id = corpus.dataset("ios", "common")[0].app.app_id
        store.publish_app(
            "static", "ios", "common", app_id, None, FakeResult(app_id)
        )
        module = sys.modules[FakeResult.__module__]
        monkeypatch.delattr(module, "FakeResult")
        reader = ResultStore(tmp_path / "s", corpus)
        with pytest.raises(AttributeError):
            reader.lookup_app("static", "ios", "common", app_id, None)
        # Not misfiled as corruption: nothing invalidated, pack intact.
        assert reader.stats.invalidated == 0
        assert store.pack_path("static", "ios", "common").exists()
