"""Two ``repro study`` processes writing one result store at once.

The store takes no lock (DESIGN.md §10): two writers of one pack can
lose an update, which reads as a miss and is recomputed, never as a
wrong value.  Two processes filling one empty store together must each
print the golden report, and a third run over what they left must print
it again with every unit served from the store.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "data" / "study_scale002_golden.txt"


def study(store) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "--scale", "0.02", "study", "--store", str(store)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def finish(process) -> tuple:
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr.decode()
    return stdout.decode(), stderr.decode()


def test_concurrent_fills_then_a_warm_run(tmp_path):
    golden = GOLDEN.read_text()
    store = tmp_path / "store"
    first, second = study(store), study(store)
    for process in (first, second):
        stdout, _ = finish(process)
        assert stdout == golden
    stdout, stderr = finish(study(store))
    assert stdout == golden
    assert " / 0 miss(es) " in stderr
