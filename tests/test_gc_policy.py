"""The study's garbage-collector contract (DESIGN.md §7).

A run freezes each unit's results out of the cyclic collector as they
land, and decodes store packs with collection paused and freezes each
part as soon as it is decoded.  Neither may leak
past the run: after ``Study.run`` returns or raises, ``gc.isenabled()``
and ``gc.get_freeze_count()`` read as they did before, and a caller's
own freeze is left in place.  Freezing is only safe because finished
results hold no reference cycles, which is checked here on every pack of
a filled store.  A run also never imports ``multiprocessing``, and
``repro.cli.main`` leaves nothing frozen.
"""

from __future__ import annotations

import errno
import gc
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core import obs
from repro.core.analysis import Study
from repro.core.exec import CorpusStore, ResultStore, StoreWriteError
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import render_study_stdout

SEED = 2022
SCALE = 0.02
SRC = Path(__file__).resolve().parents[1] / "src"


def corpus_config():
    return CorpusConfig(seed=SEED).scaled(SCALE)


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(corpus_config()).generate()


@pytest.fixture(scope="module")
def cold(corpus):
    return render_study_stdout(Study(corpus).run())


@pytest.fixture()
def filled(corpus, tmp_path):
    root = tmp_path / "store"
    Study(corpus).run(store=root)
    return root


@pytest.fixture()
def freezes(monkeypatch):
    """Counts the ``gc.freeze`` calls made while the test runs."""
    calls = []
    freeze = gc.freeze

    def counting():
        calls.append(1)
        freeze()

    monkeypatch.setattr(gc, "freeze", counting)
    return calls


def gc_state():
    return gc.isenabled(), gc.get_freeze_count()


class TestRunRestoresGCState:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_state_after_run(self, corpus, cold, filled, freezes, warm):
        assert gc_state() == (True, 0)
        store = filled if warm else None
        assert render_study_stdout(Study(corpus).run(store=store)) == cold
        assert freezes, "the run froze no unit's results"
        assert gc_state() == (True, 0)

    def test_disabled_collector_stays_disabled(self, corpus, cold, filled):
        gc.disable()
        try:
            assert render_study_stdout(Study(corpus).run(store=filled)) == cold
            assert gc_state() == (False, 0)
        finally:
            gc.enable()

    def test_state_after_failed_run(
        self, corpus, tmp_path, monkeypatch, freezes
    ):
        def no_disk_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", no_disk_space)
        study = Study(corpus)
        with pytest.raises(StoreWriteError):
            study.run(store=tmp_path / "store")
        assert gc_state() == (True, 0)

    def test_callers_freeze_is_kept(self, corpus, cold, filled, freezes):
        gc.freeze()
        freezes.clear()
        try:
            before = gc.get_freeze_count()
            assert render_study_stdout(Study(corpus).run(store=filled)) == cold
            after = gc.get_freeze_count()
        finally:
            gc.unfreeze()
        # Not unfrozen (the count would read 0), and nothing of the
        # run's was frozen on top; frozen objects freed by refcount
        # leave the count, so it may shrink.
        assert 0 < after <= before
        assert not freezes


def test_warm_run_young_collections_are_bounded(corpus, filled):
    """Each decoded pack part is frozen as soon as it is decoded, so
    young collections during a warm run never scan the parts already
    decoded.  Freezing only when a unit lands, this run made ~80 gen0
    collections; freezing per decode it makes ~10."""
    recorder = obs.Recorder()
    Study(corpus).run(recorder=recorder, store=ResultStore(filled, corpus, write=False))
    young = recorder.counter_value("gc.collections.gen0")
    assert young <= 40


class TestLoadedCorpus:
    """A corpus read back from the store is decoded with collection
    paused and then moved to the oldest generation at once, so young
    collections never scan it; a caller's freeze is left in place."""

    @pytest.fixture()
    def kept(self, tmp_path):
        CorpusGenerator(corpus_config()).generate(CorpusStore(tmp_path))
        return tmp_path

    def test_lands_in_the_oldest_generation(self, kept):
        store = CorpusStore(kept)
        loaded = CorpusGenerator(corpus_config()).generate(store)
        assert store.loaded
        assert any(o is loaded for o in gc.get_objects(generation=2))

    def test_callers_freeze_is_kept(self, kept):
        gc.freeze()
        try:
            CorpusGenerator(corpus_config()).generate(CorpusStore(kept))
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


def test_stored_artifacts_are_acyclic(filled):
    """Decoded packs leave no cyclic garbage, so freezing them strands
    nothing the collector could have freed."""
    packs = sorted((filled / "packs").glob("*.pkl"))
    assert packs
    gc.collect()
    gc.disable()
    try:
        decoded = 0
        for path in packs:
            blob = path.read_bytes()
            header = pickle.loads(blob)
            meta, payload = pickle.loads(header[3]), blob[len(blob) - header[-1] :]
            for entry in meta["entries"].values():
                start, end = entry["span"]
                value = pickle.loads(payload[start:end])
                decoded += 1
                del value
            del blob, header, payload
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert decoded > len(packs)
    assert unreachable == 0


def test_serial_run_never_imports_multiprocessing(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro"]
        + ["--scale", str(SCALE), "study"],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.core.exec.engine" in imported
    assert not [m for m in imported if m.split(".")[0] == "multiprocessing"]


def test_main_leaves_the_collector_unfrozen(capsys):
    # Only ``python -m repro`` freezes the heap, after ``main`` returns;
    # in-process callers (tests, perfbench's launcher) keep their collector.
    from repro.cli import main

    assert gc.get_freeze_count() == 0
    assert main(["--scale", str(SCALE), "study"]) == 0
    assert gc.get_freeze_count() == 0
    assert "Table 3" in capsys.readouterr().out
