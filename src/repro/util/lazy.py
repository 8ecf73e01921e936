"""Package re-exports that import their submodule on first use (PEP 562)."""

from __future__ import annotations

import importlib
from typing import Callable, Dict


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], object]:
    """A module ``__getattr__`` serving ``package``'s re-exported names.

    ``exports`` maps each name to the submodule that defines it.  A
    package ``__init__`` that imported them all would make importing any
    one submodule load the whole package; with this, ``from package import
    Name`` loads only the submodule that defines ``Name``.
    """

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{module}"), name)

    return __getattr__
