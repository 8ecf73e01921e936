"""One result-store pack per dataset: writes merge, corruption is per pack.

A pack holds every stored artifact of one dataset's apps for one kind,
for every config (DESIGN.md §10).  The contract under test: a write
never drops another config's keys — the Common-iOS re-run, a
``--detector`` flip, ``--no-store-read`` and a second handle all add to
the pack — a lost update between concurrent writers reads as a miss and
recomputes to the cold output, and a corrupt pack costs exactly that
dataset's entries of its kind, all of them.
"""

from __future__ import annotations

import errno
import os
import pickle
import sys
import tempfile
import threading

import pytest

from repro.core.analysis import Study
from repro.core.exec import ResultStore, StoreWriteError
from repro.core.exec.faults import InjectedFault
from repro.core.static.pipeline import StaticPipeline
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout

SEED = 2022
SCALE = 0.02
FLIP = "no-tls13"


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=SEED).scaled(SCALE)).generate()


@pytest.fixture(scope="module")
def cold(corpus):
    """Store-less study stdout, default configuration."""
    return render_study_stdout(Study(corpus).run())


@pytest.fixture(scope="module")
def flipped_cold(corpus):
    """Store-less study stdout under the flipped detector."""
    return render_study_stdout(Study(corpus, detector=FLIP).run())


@pytest.fixture()
def filled(corpus, tmp_path):
    """A store filled by one default study."""
    root = tmp_path / "store"
    Study(corpus).run(store=root)
    return root


def run(corpus, store, **config):
    return render_study_stdout(Study(corpus, **config).run(store=store))


def rerun_apps(corpus, root):
    """Common-iOS app ids whose pack holds a 120 s re-run result."""
    reader = ResultStore(root, corpus)
    return [
        packaged.app.app_id
        for packaged in corpus.dataset("ios", "common")
        if reader.lookup_app(
            "dynamic", "ios", "common", packaged.app.app_id, 120.0
        )
        is not None
    ]


def pack_files(root):
    return sorted((root / "packs").glob("*.pkl"))


class CountingUnpickler(pickle.Unpickler):
    """An unpickler that counts the payload parts it loads."""

    loads: list = []

    def load(self):
        CountingUnpickler.loads.append(1)
        return super().load()


class FakeResult:
    def __init__(self, app_id, pinned=()):
        self.app_id = app_id
        self.pinned_destinations = set(pinned)

    def pins(self):
        return bool(self.pinned_destinations)


class TestSlotMerge:
    def test_common_ios_slot_holds_both_waits(self, corpus, filled):
        rerun = rerun_apps(corpus, filled)
        assert rerun, "fixture should re-run at least one Common-iOS app"
        reader = ResultStore(filled, corpus)
        for app_id in rerun:
            for wait in (0.0, 120.0):
                assert (
                    reader.lookup_app("dynamic", "ios", "common", app_id, wait)
                    is not None
                )
        # One pack per (kind, platform, dataset): static and dynamic for
        # every dataset, circumvention for those with pinning apps.  The
        # re-run shares its dataset's pack.
        datasets = len(corpus.datasets)
        assert 2 * datasets <= len(pack_files(filled)) <= 3 * datasets
        assert all(path.suffix == ".pkl" for path in (filled / "packs").iterdir())

    def test_detector_flip_adds_keys_without_dropping_defaults(
        self, corpus, filled, cold, flipped_cold
    ):
        files = pack_files(filled)
        assert run(corpus, filled, detector=FLIP) == flipped_cold
        assert set(files) <= set(pack_files(filled))
        for detector, expected in (("full", cold), (FLIP, flipped_cold)):
            store = ResultStore(filled, corpus, write=False)
            assert run(corpus, store, detector=detector) == expected
            assert store.stats.unit_misses == 0
            assert store.stats.unit_hits > 0

    def test_no_store_read_keeps_existing_keys(
        self, corpus, filled, cold, flipped_cold
    ):
        repopulate = ResultStore(filled, corpus, read=False)
        assert run(corpus, repopulate, detector=FLIP) == flipped_cold
        warm = ResultStore(filled, corpus, write=False)
        assert run(corpus, warm) == cold
        assert warm.stats.unit_misses == 0

    def test_second_handle_merges_into_existing_slot(self, corpus, tmp_path):
        app_id = corpus.dataset("ios", "common")[0].app.app_id
        first = ResultStore(tmp_path / "s", corpus)
        second = ResultStore(tmp_path / "s", corpus)
        # The second handle reads the pack before the first writes it:
        # its write must still keep the first handle's key.
        assert second.lookup_app("dynamic", "ios", "common", app_id, 0.0) is None
        first.publish_app(
            "dynamic", "ios", "common", app_id, 0.0, FakeResult(app_id)
        )
        second.publish_app(
            "dynamic", "ios", "common", app_id, 120.0, FakeResult(app_id, {"a"})
        )
        reader = ResultStore(tmp_path / "s", corpus)
        for wait in (0.0, 120.0):
            assert (
                reader.lookup_app("dynamic", "ios", "common", app_id, wait)
                is not None
            )
        assert len(pack_files(tmp_path / "s")) == 1

    def test_stale_handle_merges_a_rewritten_slot(self, corpus, tmp_path):
        """A handle that read a pack before another handle rewrote it
        merges with the rewritten file, not with its own stale copy."""
        app_id = corpus.dataset("ios", "common")[0].app.app_id
        seed = ResultStore(tmp_path / "s", corpus)
        seed.publish_app(
            "dynamic", "ios", "common", app_id, 0.0, FakeResult(app_id)
        )
        stale = ResultStore(tmp_path / "s", corpus)
        assert stale.lookup_app("dynamic", "ios", "common", app_id, 0.0)
        ResultStore(tmp_path / "s", corpus).publish_app(
            "dynamic", "ios", "common", app_id, 60.0, FakeResult(app_id)
        )
        stale.publish_app(
            "dynamic", "ios", "common", app_id, 120.0, FakeResult(app_id)
        )
        reader = ResultStore(tmp_path / "s", corpus)
        for wait in (0.0, 60.0, 120.0):
            assert reader.lookup_app("dynamic", "ios", "common", app_id, wait)

    def test_key_misses_never_unpickle_the_payload(
        self, corpus, filled, monkeypatch
    ):
        """A key test reads the pack's metadata; only a hit decodes the
        artifacts, and an app hit only the app results."""
        app_id = rerun_apps(corpus, filled)[0]
        loads = []
        real_load = pickle.load

        def counting_load(file, *args, **kwargs):
            loads.append(file)
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr(pickle, "load", counting_load)
        monkeypatch.setattr(pickle, "Unpickler", CountingUnpickler)
        monkeypatch.setattr(CountingUnpickler, "loads", [])
        store = ResultStore(filled, corpus)
        assert store.lookup_app("dynamic", "ios", "common", app_id, 7.0) is None
        assert len(loads) == 1  # the envelope's header
        assert CountingUnpickler.loads == []
        assert store.lookup_app("dynamic", "ios", "common", app_id, 120.0)
        assert store.lookup_app("dynamic", "ios", "common", app_id, 0.0)
        assert len(loads) == 1
        assert len(CountingUnpickler.loads) == 1  # the app's results, once

class TestLostUpdates:
    def test_interleaved_writers_lose_a_key_as_a_miss(
        self, corpus, tmp_path, monkeypatch
    ):
        """A writer that finishes inside another's write can lose its key:
        the key then misses, and the survivor's key is served."""
        app_id = corpus.dataset("ios", "common")[0].app.app_id
        first = ResultStore(tmp_path / "s", corpus)
        second = ResultStore(tmp_path / "s", corpus)
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            if not interleaved:
                interleaved.append(dst)
                second.publish_app(
                    "dynamic", "ios", "common", app_id, 120.0, FakeResult(app_id)
                )
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        first.publish_app(
            "dynamic", "ios", "common", app_id, 0.0, FakeResult(app_id)
        )
        assert interleaved
        reader = ResultStore(tmp_path / "s", corpus)
        assert reader.lookup_app("dynamic", "ios", "common", app_id, 120.0) is None
        served = reader.lookup_app("dynamic", "ios", "common", app_id, 0.0)
        assert served.app_id == app_id and not served.pins()

    def test_lost_update_recomputes_to_the_cold_output(
        self, corpus, filled, flipped_cold
    ):
        """Roll one pack back past a flip's write, as if a concurrent
        writer's replace had won: the flipped run misses there and
        recomputes to the cold flipped output."""
        victim = ResultStore(filled, corpus).pack_path("dynamic", "ios", "common")
        before = victim.read_bytes()
        assert run(corpus, filled, detector=FLIP) == flipped_cold
        assert victim.read_bytes() != before
        victim.write_bytes(before)

        store = ResultStore(filled, corpus)
        assert run(corpus, store, detector=FLIP) == flipped_cold
        assert store.stats.unit_misses > 0
        assert store.stats.invalidated == 0
        healed = ResultStore(filled, corpus, write=False)
        assert run(corpus, healed, detector=FLIP) == flipped_cold
        assert healed.stats.unit_misses == 0


class TestConcurrentHandles:
    def test_threads_writing_shared_slots_never_raise_or_serve_wrong(
        self, corpus, tmp_path
    ):
        """Four handles on four threads write the same apps, all in one
        pack: one key all of them share, and one of each thread's own.
        No write may fail, and every key is either served with its own
        value or (a lost update) a miss."""
        apps = [p.app.app_id for p in corpus.dataset("ios", "popular")][:10]
        waits = [1.0, 2.0, 3.0, 4.0]
        padding = b"x" * 200_000
        errors = []

        def writer(wait):
            try:
                store = ResultStore(tmp_path / "s", corpus)
                for app_id in apps:
                    for config, pinned in ((0.0, ()), (wait, {f"w{wait}"})):
                        result = FakeResult(app_id, pinned)
                        result.padding = padding
                        store.publish_app(
                            "dynamic", "ios", "popular", app_id, config, result
                        )
            except Exception as exc:  # asserted empty below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in waits]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        reader = ResultStore(tmp_path / "s", corpus)
        for app_id in apps:
            served = 0
            for wait in [0.0, *waits]:
                result = reader.lookup_app(
                    "dynamic", "ios", "popular", app_id, wait
                )
                if result is not None:
                    expected = {f"w{wait}"} if wait else set()
                    assert result.pinned_destinations == expected
                    served += 1
            assert served >= 2  # the last writer's two keys survive
        assert not list((tmp_path / "s").rglob("*.tmp"))


class TestSlotCorruption:
    def test_corrupt_slot_invalidates_every_config_it_holds(
        self, corpus, filled, cold
    ):
        rerun = rerun_apps(corpus, filled)
        app_id = rerun[0]
        victim = ResultStore(filled, corpus).pack_path("dynamic", "ios", "common")
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])

        probe = ResultStore(filled, corpus, write=False)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert (
                probe.lookup_app("dynamic", "ios", "common", app_id, 0.0)
                is None
            )
        assert (
            probe.lookup_app("dynamic", "ios", "common", app_id, 120.0) is None
        )
        assert probe.stats.invalidated == 1
        assert not victim.exists()

        store = ResultStore(filled, corpus)
        assert run(corpus, store) == cold
        # Both configs of every app in the pack were recomputed and
        # written back to one pack.
        assert rerun_apps(corpus, filled) == rerun
        apps = len(corpus.dataset("ios", "common"))
        assert store.stats.published == apps + len(rerun)
        healed = ResultStore(filled, corpus, write=False)
        assert run(corpus, healed) == cold
        assert healed.stats.unit_misses == 0


def no_disk_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestStoreWriteFailures:
    """A store write that fails must fail the run: recomputing cannot
    cure it, and abandoning apps whose results were computed would turn
    a cache failure into lost results."""

    def test_failed_write_fails_the_run_unretried(
        self, corpus, tmp_path, monkeypatch
    ):
        calls = []

        def mkstemp(*args, **kwargs):
            calls.append(args)
            no_disk_space()

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        study = Study(corpus)
        with pytest.raises(StoreWriteError, match="No space") as info:
            study.run(store=tmp_path / "store")
        assert isinstance(info.value.__cause__, OSError)
        assert len(calls) == 1

    def test_stages_of_a_failed_app_stay_stored(self, corpus, tmp_path):
        """Outside the engine, the stages an app finished before a later
        stage raised are written when the graph fails."""
        packaged = corpus.dataset("android", "popular")[0]
        ctlog = corpus.registry.ctlog
        failing = StaticPipeline(
            ctlog, fault_predicate=lambda phase, _: phase == "static.ct_lookup"
        )
        with pytest.raises(InjectedFault):
            failing.analyze_app(
                packaged,
                cache=ResultStore(tmp_path / "s", corpus),
                dataset="popular",
            )
        store = ResultStore(tmp_path / "s", corpus)
        StaticPipeline(ctlog).analyze_app(
            packaged, cache=store, dataset="popular"
        )
        assert store.stats.stage_hits == 2  # decompile, scan
        assert store.stats.stage_misses == 1
