"""Layering: the stage-graph package stands below the layers that use it.

``repro.core.exec`` (engine, result store, fault injection) builds on
``repro.core.pipeline``, and so do the three pipeline packages
(``repro.core.static``, ``repro.core.dynamic``, ``repro.core.circumvent``),
each of which declares its stage graph on it.  An import the other way,
even one deferred into a function, would close an import cycle between
the packages.  No module of ``repro`` imports :mod:`hashlib`, which loads
OpenSSL (``repro.util.digest`` has the built-in digests instead).  The
checks read the source, so function-level imports count too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PIPELINE = SRC / "repro" / "core" / "pipeline"
EXEC = ("repro.core.exec",)
PIPELINES = ("repro.core.static", "repro.core.dynamic", "repro.core.circumvent")
OPENSSL = ("hashlib", "_hashlib")
#: ``repro.util.digest`` falls back to hashlib only on an interpreter
#: built without a digest module.
FALLBACK = SRC / "repro" / "util" / "digest.py"


def imported_modules(source: str, package: str):
    """Every module name an import statement of ``source`` (a module of
    ``package``) may load, relative imports resolved."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join([*parts, base] if base else parts)
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def imports_of(source: str, forbidden, package: str = "repro.core.pipeline"):
    """The names ``source`` imports from any of the ``forbidden`` packages."""
    return [
        name
        for name in imported_modules(source, package)
        if any(name == top or name.startswith(top + ".") for top in forbidden)
    ]


@pytest.mark.parametrize(
    "path", sorted(PIPELINE.glob("*.py")), ids=lambda path: path.name
)
def test_pipeline_modules_do_not_import_exec(path):
    assert imports_of(path.read_text(encoding="utf-8"), EXEC) == []


@pytest.mark.parametrize(
    "path", sorted(PIPELINE.glob("*.py")), ids=lambda path: path.name
)
def test_pipeline_modules_do_not_import_the_pipelines(path):
    assert imports_of(path.read_text(encoding="utf-8"), PIPELINES) == []


def package_of(path: Path) -> str:
    """The package a module of ``src/`` belongs to."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts if path.name == "__init__.py" else parts[:-1])


@pytest.mark.parametrize(
    "path",
    sorted(path for path in SRC.rglob("*.py") if path != FALLBACK),
    ids=lambda path: str(path.relative_to(SRC)),
)
def test_no_module_imports_hashlib(path):
    source = path.read_text(encoding="utf-8")
    assert imports_of(source, OPENSSL, package_of(path)) == []


@pytest.mark.parametrize(
    "statement",
    [
        "import hashlib",
        "from hashlib import sha256",
        "import _hashlib",
        "def digest(data):\n    import hashlib\n    return hashlib.md5(data)",
    ],
)
def test_every_form_of_a_hashlib_import_is_caught(statement):
    assert imports_of(statement, OPENSSL, "repro.util")


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.core.exec.faults",
        "from repro.core.exec.faults import maybe_inject",
        "from repro.core import exec",
        "from ..exec import faults",
        "def run():\n    from repro.core.exec.resultstore import CODE_SALT",
        "import repro.core.static.pipeline",
        "from repro.core.dynamic.pipeline import DYNAMIC_GRAPH",
        "from repro.core import circumvent",
        "from ..static import pipeline",
        "def load():\n    import repro.core.circumvent.pipeline",
    ],
)
def test_every_form_of_the_import_is_caught(statement):
    assert imports_of(statement, EXEC + PIPELINES)
