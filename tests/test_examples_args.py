"""The example scripts reject a ``--scale`` the corpus cannot be built at.

They parse it with ``repro --scale``'s own type: zero, a negative number,
NaN and infinity exit 2 with an argparse error, before any corpus is built.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = ("archive_and_reanalyze", "cross_platform_audit", "full_study", "quickstart")


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("script", SCRIPTS)
def test_bad_scale_exits_2(script, value, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [f"{script}.py", "--scale", value])
    with pytest.raises(SystemExit) as exit:
        runpy.run_path(str(EXAMPLES / f"{script}.py"), run_name="__main__")
    assert exit.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--scale: must be a finite number > 0" in captured.err
