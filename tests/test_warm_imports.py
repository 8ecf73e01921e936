"""What a warm ``python -m repro study --store`` loads, and how it exits.

A study served from the result store builds no corpus and runs no device,
flow simulator or TLS handshake, and the stored data decodes none of their
classes, so the modules holding them must stay unimported (DESIGN.md §10).
``python -m repro`` also freezes the heap once ``main`` returns, so that
interpreter shutdown skips its full collections (DESIGN.md §7); the exit
status and every byte of output must still come through.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCALE = "0.02"
SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "data" / "study_scale002_golden.txt"

#: Modules whose code a warm run never executes.
NOT_WARM = (
    "repro.appmodel.manifest",
    "repro.appmodel.nsc",
    "repro.appmodel.package",
    "repro.appmodel.plist",
    "repro.core.circumvent.frida",
    "repro.core.dynamic.background",
    "repro.core.dynamic.classify",
    "repro.core.static.decompile",
    "repro.corpus.categories",
    "repro.corpus.common",
    "repro.corpus.factory",
    "repro.corpus.naming",
    "repro.corpus.profiles",
    "repro.netsim.simulate",
    "repro.pki.pem",
    "repro.tls.alerts",
    "repro.tls.fingerprint",
    "repro.tls.handshake",
    "repro.tls.policy",
)
#: Modules a cold run does load, which shows the check sees deferred imports.
COLD_ONLY = ("repro.corpus.factory", "repro.netsim.simulate")


def repro(*args, cwd, importtime=False) -> subprocess.CompletedProcess:
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "repro", "--scale", SCALE, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
    )


def imported(done) -> set:
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.decode().splitlines()
        if line.startswith("import time:")
    }


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold run that fills a store, under ``-X importtime``."""
    root = tmp_path_factory.mktemp("warm-imports")
    done = repro("study", "--store", "store", cwd=root, importtime=True)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    return root, done


def test_cold_run_imports_the_builders(cold):
    _, done = cold
    assert set(COLD_ONLY) <= imported(done)
    assert done.stdout == GOLDEN.read_bytes()


def test_warm_run_imports_none_of_them(cold):
    root, _ = cold
    done = repro("study", "--store", "store", cwd=root, importtime=True)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    assert "; corpus loaded from store" in done.stderr.decode()
    assert "repro.core.exec.resultstore" in imported(done)
    assert sorted(imported(done) & set(NOT_WARM)) == []
    assert done.stdout == GOLDEN.read_bytes()


class TestExit:
    def test_output_arrives_complete(self, cold):
        root, _ = cold
        done = repro("study", "--store", "store", cwd=root)
        assert done.returncode == 0
        assert done.stdout == GOLDEN.read_bytes()
        lines = done.stderr.decode().splitlines()
        assert lines[0].startswith("# study completed in ")
        assert lines[1].startswith("# result store: ")
        assert lines[-1] == "# error ledger: 0 failed unit(s)"

    def test_failing_command_keeps_its_exit_status(self, tmp_path):
        missing = tmp_path / "missing"
        done = repro("study", "--metrics-out", str(missing / "m.json"), cwd=tmp_path)
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.decode() == f"error: output directory does not exist: {missing}\n"
