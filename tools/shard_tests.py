#!/usr/bin/env python
"""Deterministically partition the test suite into CI shards.

Usage::

    python tools/shard_tests.py --shards 3 --index 1
    python -m pytest -x -q $(python tools/shard_tests.py --shards 3 --index 1)

Buckets every ``tests/test_*.py`` file by the SHA-256 of its *file name*
modulo ``--shards`` and prints the files belonging to ``--index``, one
per line.  Hashing the name (not the path, not the position in a sorted
listing) makes the assignment:

* **deterministic** — the same file always lands in the same shard, on
  every machine and every run, with no coordination;
* **stable under suite growth** — adding a test file never moves any
  *other* file between shards, so shard-level CI caches stay warm.

The union of all shards is exactly the set of test files, and shards are
disjoint by construction (each file has one hash).  Shard balance is
statistical, not exact — good enough for CI where per-file cost already
varies far more than bucket sizes do.

Stdlib-only.  Exit status: 0 with at least one file printed, 1 for an
empty shard (so a misconfigured matrix fails loudly instead of running
zero tests and passing), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def shard_of(filename: str, shards: int) -> int:
    """The shard a test file name belongs to (pure, position-independent)."""
    digest = hashlib.sha256(filename.encode("utf-8")).hexdigest()
    return int(digest, 16) % shards


def shard_files(test_dir: Path, shards: int, index: int) -> list:
    files = sorted(test_dir.glob("test_*.py"))
    return [path for path in files if shard_of(path.name, shards) == index]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards", type=int, required=True, help="total number of shards"
    )
    parser.add_argument(
        "--index", type=int, required=True, help="this shard (0-based)"
    )
    parser.add_argument(
        "--test-dir",
        default="tests",
        help="directory of the test_*.py files (default: tests)",
    )
    args = parser.parse_args(argv)

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if not 0 <= args.index < args.shards:
        print(
            f"error: --index must be in [0, {args.shards}), got {args.index}",
            file=sys.stderr,
        )
        return 2
    test_dir = Path(args.test_dir)
    if not test_dir.is_dir():
        print(f"error: no such directory: {test_dir}", file=sys.stderr)
        return 2

    selected = shard_files(test_dir, args.shards, args.index)
    if not selected:
        print(
            f"error: shard {args.index}/{args.shards} is empty",
            file=sys.stderr,
        )
        return 1
    for path in selected:
        print(path.as_posix())
    return 0


if __name__ == "__main__":
    sys.exit(main())
