"""Message digests from CPython's built-in hash modules.

Importing :mod:`hashlib` loads OpenSSL's ``libcrypto`` through
``_hashlib``: ~3.6 MB of resident memory and ~5 ms per process, for
digests CPython also builds in without it.  Every digest in ``repro`` (SPKI
pins, JA3 hashes, seed derivation, store fingerprints and envelopes)
comes from here instead.  The built-in constructors return the same bytes
and take the same arguments as :mod:`hashlib`'s, which stays the fallback
for an interpreter built without one of them, as :mod:`random` does for
``_sha512``.  DESIGN.md §7 has the numbers.
"""

from __future__ import annotations

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256

try:
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

try:
    from _md5 import md5
except ImportError:
    from hashlib import md5

try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

__all__ = ["blake2b", "md5", "sha1", "sha256"]
