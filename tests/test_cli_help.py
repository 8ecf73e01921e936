"""The CLI's help texts and argument errors are a fixed contract.

``tests/data/cli_help.json`` holds what ``repro --help``, every
``repro <command> --help`` and a set of malformed command lines printed
(stdout, stderr, exit status) before the parser built only the dispatched
command's arguments.  The lazily built parser must print them byte for
byte.  Regenerate the fixture only for an intended change to the CLI::

    PYTHONPATH=src python tests/test_cli_help.py > tests/data/cli_help.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "data" / "cli_help.json"

COMMANDS = [
    "corpus",
    "study",
    "table",
    "score",
    "verify",
]

#: Commands the CLI no longer has: each must be rejected as a choice.
REMOVED_COMMANDS = ["serve", "submit", "jobs", "sweep"]

#: Every case stops inside argument parsing: none runs a command.
CASES = (
    [["--help"]]
    + [[command, "--help"] for command in COMMANDS + REMOVED_COMMANDS]
    + [
        [],
        ["bogus"],
        ["--seed"],
        ["--scale", "x", "corpus"],
        ["--scale", "0", "corpus"],
        ["--scale", "-1", "corpus"],
        ["--scale", "nan", "corpus"],
        ["--scale", "inf", "corpus"],
        ["--workers", "0", "study"],
        ["--workers", "two", "study"],
        ["--chunk-size", "-1", "study"],
        ["--fault-rate", "2", "study"],
        ["study", "--bogus"],
        ["study", "--detector", "fast"],
        ["study", "--audit-level"],
        ["corpus", "extra"],
        ["table"],
        ["table", "table99"],
        ["table", "table3", "--scale", "0.02"],
        ["score", "--csv"],
        ["verify", "--level", "shallow"],
    ]
)


def capture(argv):
    """Exit status, stdout and stderr of ``repro ARGV`` at 80 columns."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


#: argparse's rendering of a choice list, quoted or not by Python version.
_CHOICE_LIST = re.compile(r"\(choose from [^)]*\)")


def _normalised(text: str) -> str:
    """TEXT with the two argparse differences between Python versions undone.

    Before 3.10 the options section is titled "optional arguments"; newer
    releases print a choice list without quotes.
    """
    text = text.replace("\noptional arguments:\n", "\noptions:\n")
    return _CHOICE_LIST.sub(lambda match: match.group(0).replace("'", ""), text)


def _recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert [case["argv"] for case in _recorded()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i]) or "(none)")
def test_output_matches_recording(index):
    case = _recorded()[index]
    actual = capture(case["argv"])
    assert actual["code"] == case["code"]
    assert _normalised(actual["stdout"]) == _normalised(case["stdout"])
    assert _normalised(actual["stderr"]) == _normalised(case["stderr"])


if __name__ == "__main__":
    json.dump([capture(argv) for argv in CASES], sys.stdout, indent=1)
    sys.stdout.write("\n")
