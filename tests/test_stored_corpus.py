"""The corpus kept in the result store, and decoding into shared values.

``repro study --store DIR`` keeps the generated corpus in ``DIR/corpus/``
and reads it back on later runs instead of regenerating it (DESIGN.md
§10).  The contract under test: a loaded corpus, once attached, is the
generated world; a warm run never builds one, reads no file tree and no
CT log, and prints the cold output; a run that computes a unit attaches
the file trees and the CT log first; a damaged corpus file is warned
about, regenerated and rewritten, whether its catalogue is damaged (found
at load) or its detached part (found at attach); ``--no-store-write``
keeps nothing; and every corpus config has a file of its own.

Decoding a stored capture rebuilds the sharing a computing run has: each
TLS record is the interned instance a computing run holds for its value,
and each ciphersuite is its registry constant.  Values pickled before
these reducers existed still decode.
"""

from __future__ import annotations

import copyreg
import errno
import io
import pickle
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.analysis import Study
from repro.core.dynamic.pipeline import DYNAMIC_GRAPH, DynamicPipeline
from repro.core.exec import CorpusStore, ResultStore, StoreWriteError
from repro.core.exec import resultstore
from repro.core.exec.faults import is_retryable
from repro.core.exec.resultstore import corpus_fingerprint
from repro.core.static.pipeline import StaticPipeline
from repro.corpus import AppCorpus, CorpusConfig, CorpusGenerator
from repro.corpus.spec import content_fingerprint
from repro.netsim.flow import FlowRecord, Payload
from repro.reporting.render import render_study_stdout
from repro.tls.ciphers import ALL_SUITES, CipherSuite
from repro.tls.connection import ConnectionTrace
from repro.tls.records import TLSRecord, interned
from repro.util.simtime import Timestamp
from tests.test_store_packs import RecordingUnpickler

SEED = 2022
SCALE = 0.02
CONFIG = CorpusConfig(seed=SEED).scaled(SCALE)
GOLDEN = Path(__file__).parent / "data" / "study_scale002_golden.txt"
FLIP = "no-tls13"
#: The classes of a corpus's detached part, which a warm run never decodes.
DETACHED_CLASSES = {"FileTree", "FileNode", "CTLog"}


def study(root, *flags):
    return main(["--scale", str(SCALE), "study", "--store", str(root), *flags])


def trees(corpus):
    """Every app's files, per dataset."""
    return {
        key: [list(tree.walk()) for tree in apps]
        for key, apps in corpus.detached_parts()[1].items()
    }


@pytest.fixture(scope="module")
def generated():
    return CorpusGenerator(CONFIG).generate()


@pytest.fixture(scope="module")
def fingerprints(generated):
    return content_fingerprint(generated), corpus_fingerprint(generated)


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store filled by one cold CLI study."""
    root = tmp_path_factory.mktemp("filled") / "store"
    assert study(root) == 0
    return root


def refuse_to_build(generator):
    raise AssertionError("a corpus was generated")


@pytest.fixture()
def no_build(monkeypatch):
    """Fails the test if a corpus is built instead of loaded."""
    monkeypatch.setattr(CorpusGenerator, "_build", refuse_to_build)


def kept(root, config=CONFIG):
    return CorpusStore(root).path(config)


def sections(path):
    """The ``(start, end)`` file offsets of a corpus file's catalogue and
    of its detached part."""
    with open(path, "rb") as fh:
        header = pickle.load(fh)
        offset = fh.tell()
    start, end = pickle.loads(header[3])["detached"]
    return (offset, offset + start), (offset + start, offset + end)


@pytest.fixture()
def attaches(monkeypatch):
    """The corpora :meth:`AppCorpus.attach` read a detached part into."""
    attached = []
    attach = AppCorpus.attach

    def recording(corpus):
        if corpus.load_detached is not None:
            attached.append(corpus)
        attach(corpus)

    monkeypatch.setattr(AppCorpus, "attach", recording)
    return attached


@pytest.fixture(scope="module")
def flipped_cold(generated):
    """The store-less output of a detector flip."""
    return render_study_stdout(Study(generated, detector=FLIP).run())


def drop_static_pack(root, generated):
    """Delete the static pack of a dataset with pins, so a run over
    ``root`` computes a unit that reads the file trees and the CT log."""
    ResultStore(root, generated).pack_path("static", "android", "common").unlink()


def read_only_study(root, capsys):
    capsys.readouterr()
    assert study(root, "--no-store-write") == 0
    return capsys.readouterr()


class TestStoredCorpus:
    def test_loaded_corpus_is_the_generated_world(
        self, tmp_path, fingerprints
    ):
        store = CorpusStore(tmp_path)
        CorpusGenerator(CONFIG).generate(store)
        assert not store.loaded and kept(tmp_path).exists()
        loaded = CorpusGenerator(CONFIG).generate(store)
        assert store.loaded
        loaded.attach()
        assert (
            content_fingerprint(loaded),
            corpus_fingerprint(loaded),
        ) == fingerprints
        assert trees(loaded) == trees(CorpusGenerator(CONFIG).generate())

    def test_catalogue_leaves_the_corpus_whole(self, generated):
        before = trees(generated)
        catalogue = generated.catalogue()
        assert catalogue.registry.ctlog is None
        assert all(
            tree is None for apps in catalogue.detached_parts()[1].values() for tree in apps
        )
        assert generated.registry.ctlog is not None
        assert trees(generated) == before

    def test_warm_cli_run_loads_the_corpus(self, filled, capsys, no_build):
        assert kept(filled).exists()
        out = read_only_study(filled, capsys)
        assert out.out == GOLDEN.read_text()
        assert "corpus loaded from store" in out.err

    def test_warm_cli_run_reads_no_tree_and_no_ct_log(
        self, filled, capsys, monkeypatch, attaches
    ):
        monkeypatch.setattr(pickle, "Unpickler", RecordingUnpickler)
        monkeypatch.setattr(RecordingUnpickler, "names", [])
        out = read_only_study(filled, capsys)
        assert out.out == GOLDEN.read_text()
        assert "corpus loaded from store" in out.err
        assert "AppCorpus" in RecordingUnpickler.names
        assert not DETACHED_CLASSES & set(RecordingUnpickler.names)
        assert attaches == []

    def test_detector_flip_attaches(self, filled, tmp_path, capsys, attaches, flipped_cold):
        root = tmp_path / "store"
        shutil.copytree(filled, root)
        capsys.readouterr()
        assert study(root, "--detector", FLIP) == 0
        captured = capsys.readouterr()
        assert captured.out == flipped_cold
        assert "corpus loaded from store" in captured.err
        assert len(attaches) == 1

    def test_missing_static_pack_attaches(
        self, filled, tmp_path, capsys, attaches, generated
    ):
        root = tmp_path / "store"
        shutil.copytree(filled, root)
        drop_static_pack(root, generated)
        capsys.readouterr()
        assert study(root) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN.read_text()
        assert "corpus loaded from store" in captured.err
        assert len(attaches) == 1

    def test_unattached_corpus_fails_static_analysis_for_good(self, filled):
        corpus = CorpusStore(filled).load(CONFIG)
        pipeline = StaticPipeline(corpus.registry)
        for platform in ("android", "ios"):
            with pytest.raises(Exception) as failure:
                pipeline.analyze_app(corpus.dataset(platform, "popular")[0])
            assert not is_retryable(failure.value)

    def test_cold_cli_run_says_it_generated(self, tmp_path, capsys):
        root = tmp_path / "store"
        captured = read_only_study(root, capsys)
        assert captured.out == GOLDEN.read_text()
        assert "; corpus generated\n" in captured.err
        assert not (root / "corpus").exists()

    def test_each_config_has_its_own_file(self, tmp_path):
        other = CorpusConfig(seed=SEED).scaled(0.03)
        reseeded = CorpusConfig(seed=SEED + 1).scaled(SCALE)
        paths = {kept(tmp_path, c) for c in (CONFIG, other, reseeded)}
        assert len(paths) == 3
        for config in (CONFIG, other):
            CorpusGenerator(config).generate(CorpusStore(tmp_path))
        assert sorted((tmp_path / "corpus").iterdir()) == sorted(
            [kept(tmp_path), kept(tmp_path, other)]
        )


def flip_byte(path):
    """Flip the middle byte of a corpus file's catalogue."""
    (start, end), _ = sections(path)
    data = bytearray(path.read_bytes())
    data[(start + end) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def flip_detached_byte(path):
    """Flip the case of one letter of a file path in a corpus file's
    detached part: the part still unpickles, to a wrong file tree."""
    _, (start, end) = sections(path)
    data = bytearray(path.read_bytes())
    data[data.index(b"smali/", start, end)] ^= 0x20
    path.write_bytes(bytes(data))


def truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestCorruption:
    @pytest.mark.parametrize(
        "damage", [flip_byte, truncate], ids=["byte-flip", "truncated"]
    )
    def test_damaged_file_is_regenerated_and_rewritten(
        self, filled, tmp_path, capsys, fingerprints, damage
    ):
        root = tmp_path / "store"
        shutil.copytree(filled, root)
        damage(kept(root))
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="stored corpus .* is corrupt"):
            assert study(root) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN.read_text()
        assert "corpus generated and stored" in captured.err
        store = CorpusStore(root)
        rewritten = CorpusGenerator(CONFIG).generate(store)
        assert store.loaded
        rewritten.attach()
        assert (
            content_fingerprint(rewritten),
            corpus_fingerprint(rewritten),
        ) == fingerprints

    def test_damaged_detached_part_is_found_at_attach(
        self, filled, tmp_path, capsys, fingerprints, generated
    ):
        root = tmp_path / "store"
        shutil.copytree(filled, root)
        flip_detached_byte(kept(root))
        warm = read_only_study(root, capsys)
        assert warm.out == GOLDEN.read_text()
        assert "corpus loaded from store" in warm.err
        assert kept(root).exists()

        drop_static_pack(root, generated)
        with pytest.warns(RuntimeWarning, match="stored corpus .* is corrupt"):
            assert study(root) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN.read_text()
        assert "corpus generated and stored" in captured.err
        store = CorpusStore(root)
        rewritten = CorpusGenerator(CONFIG).generate(store)
        assert store.loaded
        rewritten.attach()
        assert (
            content_fingerprint(rewritten),
            corpus_fingerprint(rewritten),
        ) == fingerprints

    def test_wrong_name_file_is_regenerated(self, tmp_path, fingerprints):
        other = CorpusConfig(seed=SEED).scaled(0.03)
        store = CorpusStore(tmp_path)
        CorpusGenerator(other).generate(store)
        kept(tmp_path).write_bytes(kept(tmp_path, other).read_bytes())
        with pytest.warns(RuntimeWarning, match="does not match its path"):
            corpus = CorpusGenerator(CONFIG).generate(store)
        assert not store.loaded
        assert (
            content_fingerprint(corpus),
            corpus_fingerprint(corpus),
        ) == fingerprints
        CorpusGenerator(CONFIG).generate(store)
        assert store.loaded

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        CorpusGenerator(CONFIG).generate(CorpusStore(tmp_path))

        def renamed_class(data):
            raise AttributeError("module has no attribute 'AppCorpus'")

        monkeypatch.setattr(resultstore, "_load_paused", renamed_class)
        with pytest.raises(AttributeError):
            CorpusGenerator(CONFIG).generate(CorpusStore(tmp_path))
        assert kept(tmp_path).exists()

    def test_failed_write_raises(self, tmp_path, monkeypatch):
        def no_disk_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", no_disk_space)
        with pytest.raises(StoreWriteError, match="No space"):
            CorpusGenerator(CONFIG).generate(CorpusStore(tmp_path))
        assert not list(tmp_path.rglob("*.pkl"))


def state_dict_reduce(obj):
    """The default pickling of a plain instance: class plus state dict."""
    return copyreg.__newobj__, (type(obj),), dict(vars(obj))


def values_of(captures, kind):
    """Every instance of ``kind`` reachable from the flows of ``captures``."""
    found = []
    for capture in captures:
        for flow in capture.flows:
            candidates = list(flow.trace.records) + list(flow.offered_suites)
            candidates.append(flow.cipher)
            found.extend(c for c in candidates if type(c) is kind)
    return found


def stored_captures(corpus, root):
    """The direct and MITM capture of every app, decoded from the packs of
    a filled store."""
    store = ResultStore(root, corpus, write=False)
    pipeline = DynamicPipeline(corpus)
    params = {"wait": 0.0, "interact": False}
    for (platform, dataset), apps in sorted(corpus.datasets.items()):
        for packaged in apps:
            app_id = packaged.app.app_id
            keys = store.stage_keys(DYNAMIC_GRAPH, platform, dataset, app_id, params, pipeline)
            for stage in ("run_direct", "run_mitm"):
                yield store.lookup_stage(keys[stage], "dynamic", stage, platform, dataset)


class TestSharedValues:
    @pytest.fixture(scope="class")
    def runs(self, generated, tmp_path_factory):
        """The captures a computing run makes, and the same captures
        decoded from the store a study filled."""
        root = tmp_path_factory.mktemp("shared")
        Study(generated).run(store=root)
        pipeline = DynamicPipeline(generated)
        computed = [
            capture
            for _key, apps in sorted(generated.datasets.items())
            for packaged in apps
            for capture in pipeline.captures(packaged)
        ]
        stored = list(stored_captures(generated, root))
        assert len(stored) == len(computed)
        return computed, stored

    def test_records_are_the_computing_runs_instances(self, runs):
        cold, warm = runs
        held = {}
        for record in values_of(cold, TLSRecord):
            assert held.setdefault(record, record) is record
        records = values_of(warm, TLSRecord)
        assert records
        for record in records:
            assert record is interned(
                record.content_type, record.direction, record.inner_type
            )(record.length)
            assert held.get(record, record) is record

    def test_values_pickled_in_the_old_format_still_decode(self, runs):
        """Stores written before these classes had reducers hold their
        state dicts; those still decode, to equal values."""
        _, warm = runs
        flows = [flow for capture in warm for flow in capture.flows]
        legacy = io.BytesIO()
        pickler = pickle.Pickler(legacy)
        pickler.dispatch_table = dict(copyreg.dispatch_table)
        legacy_kinds = (
            TLSRecord,
            CipherSuite,
            Timestamp,
            Payload,
            FlowRecord,
            ConnectionTrace,
        )
        for kind in legacy_kinds:
            pickler.dispatch_table[kind] = state_dict_reduce
        pickler.dump(flows)
        assert flows and pickle.loads(legacy.getvalue()) == flows

    def test_suites_are_registry_constants(self, runs):
        _, warm = runs
        registry = {id(suite) for suite in ALL_SUITES}
        suites = values_of(warm, CipherSuite)
        assert suites
        assert all(id(suite) in registry for suite in suites)
