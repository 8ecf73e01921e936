"""DESIGN.md §3 names only modules that exist.

Each row of the module-map tables names its package(s) in the second
column and their modules in the third: every code-formatted identifier
outside parentheses is a module (or subpackage) of one of the row's
packages, and every code-formatted ``.py`` path is a file of the
repository.  Parenthesised text only describes and is not checked.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESIGN = ROOT / "DESIGN.md"

_CODE = re.compile(r"`([^`]+)`")
_IDENTIFIER = re.compile(r"[a-z_][a-z0-9_]*")


def _section_3() -> str:
    text = DESIGN.read_text(encoding="utf-8")
    start = text.index("## 3. ")
    return text[start : text.index("\n## ", start + 1)]


def _rows():
    """``(packages, contents)`` for each body row of the §3 tables."""
    for line in _section_3().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 3 or cells[1] == "Package":
            continue
        if set(cells[1]) <= set("-"):
            continue
        yield tuple(_CODE.findall(cells[1])), cells[2]


def _top_level(text: str) -> str:
    """``text`` with every parenthesised part removed."""
    depth, kept = 0, []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0:
            kept.append(char)
    assert depth == 0, text
    return "".join(kept)


def _module_path(dotted: str) -> Path:
    return SRC.joinpath(*dotted.split("."))


def _exists(dotted: str) -> bool:
    path = _module_path(dotted)
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


ROWS = list(_rows())


def test_tables_are_found():
    assert len(ROWS) >= 15
    assert all(packages for packages, _ in ROWS)


@pytest.mark.parametrize("packages, contents", ROWS, ids=[r[0][0] for r in ROWS])
def test_named_modules_exist(packages, contents):
    missing = [package for package in packages if not _exists(package)]
    for name in _CODE.findall(_top_level(contents)):
        if name.endswith(".py"):
            if not (ROOT / name).is_file():
                missing.append(name)
        elif _IDENTIFIER.fullmatch(name):
            if not any(_exists(f"{package}.{name}") for package in packages):
                missing.append(name)
    assert not missing, f"{packages}: no such module or file: {missing}"
