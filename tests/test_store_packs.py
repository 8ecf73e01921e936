"""Result-store packs: one file per dataset and kind (DESIGN.md §10).

A fill leaves one pack per (kind, platform, dataset) and nothing else
besides the stored corpus and ``store.json``.  A corrupt pack costs that
dataset's entries of its kind and nothing more.  Two handles writing
different configs into one pack never serve a wrong value.  A warm run
decodes only the app results it serves, never the stage artifacts
beside them, and a fill computes each app's stage keys once per config.
"""

from __future__ import annotations

import io
import json
import os
import pickle
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import obs
from repro.core.analysis import Study
from repro.core.exec import ResultStore, resultstore
from repro.core.pipeline.graph import CODE_SALT, StageGraph
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout
from tests.store_helpers import bound_store

SEED = 2022
SCALE = 0.02
FLIP = "no-tls13"
GOLDEN = Path(__file__).parent / "data" / "study_scale002_golden.txt"
KINDS = ("static", "dynamic", "circumvent")


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=SEED).scaled(SCALE)).generate()


@pytest.fixture(scope="module")
def golden():
    return GOLDEN.read_text()


@pytest.fixture()
def filled(corpus, tmp_path):
    """A store filled by one default study."""
    root = tmp_path / "store"
    Study(corpus).run(store=root)
    return root


def pack_identity(path):
    """``(kind, platform, dataset)`` from a pack's envelope metadata."""
    meta = pickle.loads(pickle.loads(path.read_bytes())[3])
    return meta["kind"], meta["platform"], meta["dataset"]


class RecordingUnpickler(pickle.Unpickler):
    """An unpickler that records the name of every class it loads."""

    names: list = []

    def find_class(self, module, name):
        RecordingUnpickler.names.append(name)
        return super().find_class(module, name)


class FakeResult:
    def __init__(self, app_id, pinned=()):
        self.app_id = app_id
        self.pinned_destinations = set(pinned)

    def pins(self):
        return bool(self.pinned_destinations)


def assert_one_pack_per_dataset_and_kind(root, corpus):
    """``root`` holds its manifest, one corpus file and one pack per
    (kind, platform, dataset), and nothing else."""
    files = sorted(
        path.relative_to(root).parts
        for path in root.rglob("*")
        if path.is_file()
    )
    assert ("store.json",) in files
    packs = [parts for parts in files if parts[0] == "packs"]
    kept = [parts for parts in files if parts[0] == "corpus"]
    assert len(kept) == 1
    assert len(files) == len(packs) + len(kept) + 1
    assert all(len(parts) == 2 and parts[1].endswith(".pkl") for parts in packs)
    identities = [pack_identity(root.joinpath(*parts)) for parts in packs]
    assert len(set(identities)) == len(identities)
    datasets = set(corpus.datasets)
    assert {(kind, *key) for kind in ("static", "dynamic") for key in datasets} <= set(
        identities
    )
    assert {(kind, (platform, dataset)) for kind, platform, dataset in identities} <= {
        (kind, key) for kind in KINDS for key in datasets
    }


class TestLayout:
    def test_cli_fill_leaves_one_pack_per_dataset_and_kind(
        self, corpus, golden, tmp_path, capsys
    ):
        root = tmp_path / "store"
        args = ["--seed", str(SEED), "--scale", str(SCALE), "study"]
        assert main([*args, "--store", str(root)]) == 0
        assert capsys.readouterr().out == golden
        assert_one_pack_per_dataset_and_kind(root, corpus)

    def test_fill_deletes_the_files_of_another_version(
        self, corpus, golden, tmp_path, capsys
    ):
        """A store last written by another format version keeps files no
        read of this code finds (their names hash the version): the
        fill deletes them and rewrites the manifest."""
        root = tmp_path / "store"
        for stray in ("packs", "corpus"):
            (root / stray).mkdir(parents=True)
            (root / stray / f"{'0' * 64}.pkl").write_bytes(b"written by version 5")
        old = {"magic": "repro-result-store", "version": 5, "salt": CODE_SALT}
        (root / "store.json").write_text(json.dumps(old))
        args = ["--seed", str(SEED), "--scale", str(SCALE), "study"]
        assert main([*args, "--store", str(root)]) == 0
        assert capsys.readouterr().out == golden
        assert_one_pack_per_dataset_and_kind(root, corpus)
        manifest = json.loads((root / "store.json").read_text())
        assert manifest["version"] == resultstore._VERSION


class TestPackCorruption:
    def test_corrupt_pack_invalidates_only_its_dataset(
        self, corpus, filled, golden
    ):
        victim = ResultStore(filled, corpus).pack_path("static", "android", "popular")
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        store = ResultStore(filled, corpus)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert render_study_stdout(Study(corpus).run(store=store)) == golden
        assert store.stats.invalidated == 1
        # One unit (the dataset's static scans) missed; every other
        # dataset and kind was served.
        assert store.stats.unit_misses == 1
        assert store.stats.unit_hits > 1
        assert store.stats.published == len(corpus.dataset("android", "popular"))

        healed = ResultStore(filled, corpus, write=False)
        assert render_study_stdout(Study(corpus).run(store=healed)) == golden
        assert healed.stats.unit_misses == 0


class TestTwoHandles:
    def test_different_configs_into_one_pack_never_serve_wrong(
        self, corpus, tmp_path, monkeypatch
    ):
        """Two handles publish units of different waits into one pack,
        one of them inside the other's ``os.replace`` (a lost update).
        Every key is served with its own value or misses."""
        root = tmp_path / "s"
        apps = corpus.dataset("ios", "popular")[:4]
        indices = tuple(range(len(apps)))

        def publish(store, wait):
            results = [FakeResult(p.app.app_id, {f"w{wait}"}) for p in apps]
            store.publish_unit(("dynamic", "ios", "popular", indices, wait), results)

        first = bound_store(root, corpus)
        second = bound_store(root, corpus)
        publish(first, 1.0)
        assert second.lookup_unit(("dynamic", "ios", "popular", indices, 2.0)) is None
        publish(second, 2.0)
        publish(first, 3.0)  # first's copy is stale: it merges with the file

        real_replace = os.replace
        raced = []

        def replace(src, dst):
            if not raced:
                raced.append(dst)
                publish(first, 5.0)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        publish(second, 4.0)  # first's 5.0 write lands inside, then is lost
        monkeypatch.setattr(os, "replace", real_replace)
        assert raced

        def served(waits):
            reader = bound_store(root, corpus, write=False)
            found = set()
            for wait in waits:
                for packaged in apps:
                    app_id = packaged.app.app_id
                    result = reader.lookup_app("dynamic", "ios", "popular", app_id, wait)
                    if result is not None:
                        assert result.app_id == app_id
                        assert result.pinned_destinations == {f"w{wait}"}
                        found.add(wait)
            return found

        assert served((1.0, 2.0, 3.0, 4.0, 5.0)) == {1.0, 2.0, 3.0, 4.0}


class TestDecodeOnlyWhatIsServed:
    def test_warm_run_unpickles_no_stage_artifacts(
        self, corpus, filled, golden, monkeypatch
    ):
        monkeypatch.setattr(pickle, "Unpickler", RecordingUnpickler)
        monkeypatch.setattr(RecordingUnpickler, "names", [])
        store = ResultStore(filled, corpus, write=False)
        assert render_study_stdout(Study(corpus).run(store=store)) == golden
        assert store.stats.unit_misses == 0
        assert "StaticAppReport" in RecordingUnpickler.names
        assert not {"DecompiledApp", "FileTree", "FileNode"} & set(
            RecordingUnpickler.names
        )

        # The stage artifacts are in the packs all the same.
        RecordingUnpickler.names = []
        blob = store.pack_path("static", "android", "popular").read_bytes()
        header = pickle.loads(blob)
        meta, payload = pickle.loads(header[3]), blob[len(blob) - header[-1] :]
        for entry in meta["entries"].values():
            start, end = entry["span"]
            RecordingUnpickler(io.BytesIO(payload[start:end])).load()
        assert "DecompiledApp" in RecordingUnpickler.names

    def test_detector_flip_serves_captures_from_the_store(self, corpus, filled):
        flipped_cold = render_study_stdout(Study(corpus, detector=FLIP).run())
        store = ResultStore(filled, corpus)
        recorder = obs.Recorder()
        results = Study(corpus, detector=FLIP).run(store=store, recorder=recorder)
        assert render_study_stdout(results) == flipped_cold
        counters = recorder.metrics()["counters"]
        for stage in ("run_direct", "run_mitm"):
            assert counters.get(f"store.stage.dynamic.{stage}.hit", 0) > 0
            assert counters.get(f"store.stage.dynamic.{stage}.miss", 0) == 0
        assert counters.get("store.stage.dynamic.detect.miss", 0) > 0


class TestFillCosts:
    def test_fill_computes_stage_keys_once_per_app_and_config(
        self, corpus, tmp_path, monkeypatch
    ):
        calls = Counter()
        stage_keys = StageGraph.stage_keys

        def counting(graph, corpus_fp, platform, dataset, app_id, params, knobs):
            config = tuple(sorted(params.items()))
            calls[(graph.kind, platform, dataset, app_id, config)] += 1
            return stage_keys(graph, corpus_fp, platform, dataset, app_id, params, knobs)

        monkeypatch.setattr(StageGraph, "stage_keys", counting)
        store = ResultStore(tmp_path / "s", corpus)
        Study(corpus).run(store=store)
        assert max(calls.values()) == 1
        assert len(calls) == store.stats.published

    def test_fill_checks_the_manifest_once(self, corpus, tmp_path, monkeypatch):
        checks = []
        ensure = resultstore._ensure_manifest

        def counting(root):
            checks.append(root)
            ensure(root)

        monkeypatch.setattr(resultstore, "_ensure_manifest", counting)
        store = ResultStore(tmp_path / "s", corpus)
        Study(corpus).run(store=store)
        assert (tmp_path / "s" / "store.json").exists()
        assert checks == [tmp_path / "s"]
