"""The corpus kept in the result store, and decoding into shared values.

``repro study --store DIR`` keeps the generated corpus in ``DIR/corpus/``
and reads it back on later runs instead of regenerating it (DESIGN.md
§10).  The contract under test: a loaded corpus is the generated world;
a warm run never builds one and prints the cold output; a damaged corpus
file is warned about, regenerated and rewritten; ``--no-store-write``
keeps nothing; and every corpus config has a file of its own.

Decoding a stored result rebuilds the sharing a computing run has: each
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
from repro.core.exec import CorpusStore, StoreWriteError
from repro.core.exec import resultstore
from repro.core.exec.resultstore import corpus_fingerprint
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.corpus.spec import content_fingerprint
from repro.netsim.flow import FlowRecord, Payload
from repro.tls.ciphers import ALL_SUITES, CipherSuite
from repro.tls.connection import ConnectionTrace
from repro.tls.records import TLSRecord, interned
from repro.util.simtime import Timestamp

SEED = 2022
SCALE = 0.02
CONFIG = CorpusConfig(seed=SEED).scaled(SCALE)
GOLDEN = Path(__file__).parent / "data" / "study_scale002_golden.txt"


def study(root, *flags):
    return main(["--scale", str(SCALE), "study", "--store", str(root), *flags])


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
        assert (
            content_fingerprint(loaded),
            corpus_fingerprint(loaded),
        ) == fingerprints

    def test_warm_cli_run_loads_the_corpus(self, filled, capsys, no_build):
        assert kept(filled).exists()
        out = read_only_study(filled, capsys)
        assert out.out == GOLDEN.read_text()
        assert "corpus loaded from store" in out.err

    def test_cold_cli_run_says_it_generated(self, tmp_path, capsys):
        root = tmp_path / "store"
        captured = read_only_study(root, capsys)
        assert captured.out == GOLDEN.read_text()
        assert "; corpus generated\n" in captured.err
        assert not (root / "corpus").exists()

    def test_no_store_read_regenerates(self, tmp_path):
        CorpusGenerator(CONFIG).generate(CorpusStore(tmp_path))
        store = CorpusStore(tmp_path, read=False)
        CorpusGenerator(CONFIG).generate(store)
        assert not store.loaded

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
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
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

        monkeypatch.setattr(resultstore, "_loads_paused", renamed_class)
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


def values_of(results, kind):
    """Every instance of ``kind`` reachable from the dynamic results."""
    found = []
    for apps in results.dynamic_results.values():
        for result in apps:
            for capture in (result.direct_capture, result.mitm_capture):
                for flow in capture.flows:
                    candidates = list(flow.trace.records) + list(
                        flow.offered_suites
                    )
                    candidates.append(flow.cipher)
                    found.extend(c for c in candidates if type(c) is kind)
    return found


class TestSharedValues:
    @pytest.fixture(scope="class")
    def runs(self, generated, tmp_path_factory):
        root = tmp_path_factory.mktemp("shared")
        cold = Study(generated).run(store=root)
        warm = Study(generated).run(store=root, store_write=False)
        return cold, warm

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
        flows = [
            flow
            for apps in warm.dynamic_results.values()
            for result in apps
            for flow in result.mitm_capture.flows
        ]
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
