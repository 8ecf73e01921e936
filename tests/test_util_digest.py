"""``repro.util.digest``: CPython's built-in digests, the bytes of hashlib's.

Every digest of ``repro`` comes from the built-in ``_sha256`` (``_sha2``
from CPython 3.12), ``_sha1``, ``_md5`` and ``_blake2`` modules, so no run
loads OpenSSL (DESIGN.md §7).  The module falls back to :mod:`hashlib`
only when the interpreter was built without one of them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import types

import pytest

from repro.util import digest

INPUTS = {
    "empty": b"",
    "short": b"sha256/pin\x1fapp\x1f17",
    "1MiB": bytes(range(256)) * 4096,
}
NAMES = ("sha256", "sha1", "md5", "blake2b")


def fresh():
    """``repro.util.digest`` executed anew, under its own name."""
    spec = importlib.util.spec_from_file_location("fresh_digest", digest.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("data", INPUTS.values(), ids=INPUTS.keys())
def test_equals_hashlib(name, data):
    ours, theirs = getattr(digest, name), getattr(hashlib, name)
    assert ours(data).digest() == theirs(data).digest()
    assert ours(data).hexdigest() == theirs(data).hexdigest()
    incremental = ours()
    incremental.update(data[: len(data) // 2])
    incremental.update(data[len(data) // 2 :])
    assert incremental.digest() == theirs(data).digest()


@pytest.mark.parametrize("data", INPUTS.values(), ids=INPUTS.keys())
def test_blake2b_256_equals_hashlib(data):
    ours = digest.blake2b(data, digest_size=32).digest()
    assert ours == hashlib.blake2b(data, digest_size=32).digest()
    assert len(ours) == 32


def test_the_digests_are_built_in():
    """The interpreter running the tests has every built-in module."""
    assert digest.sha256.__module__ in ("_sha256", "_sha2")
    assert (digest.sha1.__module__, digest.md5.__module__) == ("_sha1", "_md5")
    assert digest.blake2b.__module__ == "_blake2"


def test_sha256_from_sha2_when_there_is_no_sha256_module(monkeypatch):
    """The CPython 3.12 layout: ``_sha2`` holds sha256."""
    sha2 = types.ModuleType("_sha2")
    sha2.sha256 = object()
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", sha2)
    assert fresh().sha256 is sha2.sha256


def test_hashlib_when_there_is_no_built_in_module(monkeypatch):
    for hidden in ("_sha256", "_sha2", "_sha1", "_md5", "_blake2"):
        monkeypatch.setitem(sys.modules, hidden, None)
    module = fresh()
    for name in NAMES:
        assert getattr(module, name) is getattr(hashlib, name)
