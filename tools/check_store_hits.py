#!/usr/bin/env python
"""Assert result-store hit-rate invariants from a metrics export.

Usage::

    python tools/check_store_hits.py METRICS_JSON --min-hit-rate 0.95
    python tools/check_store_hits.py METRICS_JSON --expect-no-hits
    python tools/check_store_hits.py --snapshot STORE > before.json
    python tools/check_store_hits.py METRICS_JSON \\
        --stage-cold dynamic.detect --store STORE --since before.json

Reads the flat metrics JSON written by ``repro study --metrics-out`` and
checks the ``store.units.hit`` / ``store.units.miss`` counters.  CI uses
this twice: a warm re-run must hit at least ``--min-hit-rate`` of its
units (the incremental contract: <5 % of units re-executed), and a
configuration-perturbed run must hit **none** (the invalidation
contract: changed fingerprints never serve stale results).

Stage-level flags extend the contract to partial recomputation
(DESIGN.md §15): ``--stage-cold KIND.STAGE`` asserts the named stage
recorded zero hits and at least one miss (the config flip invalidated
it).  ``--store STORE --since BEFORE`` asserts that the run stored every
stage it computed and recomputed none it held: for every persisted
stage, its ``pipeline.KIND.STAGE.computed`` count must equal the stage
entries the run added to the store's packs — the pack headers now
against ``BEFORE``, the counts ``--snapshot`` printed from the headers
before the run.  ``--stage-hits none|some`` asserts the run served no
stored stage (``store.stages.hit`` is 0: a warm run reads no capture)
or at least one; each stage hit decodes exactly its own entry.

Stdlib-only: a pack header's metadata is pickled plain data, read
without importing ``repro``.  Exit status: 0 when the invariant holds,
1 when it does not, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path


def _stage_tallies(counters: dict) -> dict:
    """``{kind.stage: [hits, misses]}`` from the per-stage counters."""
    tallies: dict = {}
    for name, value in counters.items():
        if not name.startswith("store.stage."):
            continue
        stage, _, outcome = name[len("store.stage.") :].rpartition(".")
        if outcome not in ("hit", "miss"):
            continue
        entry = tallies.setdefault(stage, [0.0, 0.0])
        entry[0 if outcome == "hit" else 1] += float(value)
    return tallies


def stage_entries(root) -> dict:
    """``{kind.stage: stored entries}`` from every pack header of a store."""
    counts: dict = {}
    for path in sorted(Path(root, "packs").glob("*.pkl")):
        with open(path, "rb") as fh:
            meta = pickle.loads(pickle.load(fh)[3])
        for entry in meta["entries"].values():
            if entry.get("entry_kind") == "stage":
                counts[entry["stage"]] = counts.get(entry["stage"], 0) + 1
    return counts


def stage_write_failures(counters: dict, before: dict, after: dict) -> list:
    """Persisted stages whose computed count differs from the entries the
    run added: a stage recomputed under a key the store held, or
    computed and not stored."""
    failures = []
    for stage in sorted(set(before) | set(after)):
        added = after.get(stage, 0) - before.get(stage, 0)
        computed = float(counters.get(f"pipeline.{stage}.computed", 0))
        print(f"stage {stage}: {computed:g} computed, {added} entr(ies) added")
        if computed != added:
            failures.append(f"stage {stage} computed {computed:g} time(s) but added {added}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", nargs="?", help="metrics JSON from --metrics-out")
    parser.add_argument(
        "--snapshot",
        metavar="STORE",
        help="print the stage entries of STORE's packs as JSON and exit (the BEFORE of --since)",
    )
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        help="fail when unit hits / (hits + misses) is below this",
    )
    parser.add_argument(
        "--expect-no-hits",
        action="store_true",
        help="fail when any unit hit was recorded (invalidation check)",
    )
    parser.add_argument(
        "--stage-cold",
        action="append",
        default=[],
        metavar="KIND.STAGE",
        help="assert this stage recorded zero hits and at least one miss (repeatable)",
    )
    parser.add_argument(
        "--store",
        metavar="STORE",
        help="with --since: the store the run wrote to",
    )
    parser.add_argument(
        "--since",
        metavar="BEFORE",
        help="with --store: fail unless every persisted stage's computed "
        "count equals the stage entries the run added since --snapshot "
        "wrote BEFORE",
    )
    parser.add_argument(
        "--stage-hits",
        choices=("none", "some"),
        help="fail unless the run served no stored stage (none) or at least one (some)",
    )
    args = parser.parse_args(argv)
    if args.snapshot is not None:
        try:
            entries = stage_entries(args.snapshot)
        except (OSError, pickle.UnpicklingError, EOFError, IndexError, KeyError) as exc:
            print(f"error: unreadable store: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(entries, indent=1, sort_keys=True))
        return 0
    if (args.store is None) != (args.since is None):
        parser.error("--store and --since go together")
    if args.metrics is None or (
        args.min_hit_rate is None
        and not args.expect_no_hits
        and not args.stage_cold
        and args.since is None
        and args.stage_hits is None
    ):
        parser.error(
            "give METRICS and --min-hit-rate, --expect-no-hits, --stage-cold, "
            "--store/--since and/or --stage-hits (or --snapshot STORE)"
        )

    try:
        with open(args.metrics) as fh:
            counters = json.load(fh)["counters"]
        hits = float(counters.get("store.units.hit", 0))
        misses = float(counters.get("store.units.miss", 0))
        stages = _stage_tallies(counters)
        served = float(counters.get("store.stages.hit", 0))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: unreadable metrics file: {exc}", file=sys.stderr)
        return 2
    if args.since is not None:
        try:
            with open(args.since) as fh:
                before = json.load(fh)
            after = stage_entries(args.store)
        except (OSError, ValueError, pickle.UnpicklingError, EOFError, IndexError, KeyError) as exc:
            print(f"error: unreadable snapshot or store: {exc}", file=sys.stderr)
            return 2

    total = hits + misses
    rate = hits / total if total else 0.0
    print(
        f"store units: {hits:g} hit(s), {misses:g} miss(es) "
        f"(hit rate {rate:.1%})"
    )

    if args.expect_no_hits and hits > 0:
        print(
            f"FAIL: expected zero store hits (invalidation), got {hits:g}",
            file=sys.stderr,
        )
        return 1
    if args.min_hit_rate is not None:
        if total == 0:
            print(
                "FAIL: no store lookups recorded — was --store passed?",
                file=sys.stderr,
            )
            return 1
        if rate < args.min_hit_rate:
            print(
                f"FAIL: hit rate {rate:.1%} below required "
                f"{args.min_hit_rate:.1%}",
                file=sys.stderr,
            )
            return 1

    for stage in args.stage_cold:
        stage_hits, stage_misses = stages.get(stage, (0.0, 0.0))
        print(
            f"stage {stage}: {stage_hits:g} hit(s), "
            f"{stage_misses:g} miss(es)"
        )
        if stage_hits > 0:
            print(
                f"FAIL: stage {stage} expected cold, got "
                f"{stage_hits:g} hit(s)",
                file=sys.stderr,
            )
            return 1
        if stage_misses == 0:
            print(
                f"FAIL: stage {stage} recorded no lookups — wrong stage "
                "name, or the run never consulted the store",
                file=sys.stderr,
            )
            return 1

    if args.since is not None:
        if not after:
            print("FAIL: the store holds no stage entries", file=sys.stderr)
            return 1
        failures = stage_write_failures(counters, before, after)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1

    if args.stage_hits is not None:
        print(f"stage hits: {served:g}")
        if (args.stage_hits == "none") != (served == 0):
            print(
                f"FAIL: expected {args.stage_hits} stage hits, got {served:g}",
                file=sys.stderr,
            )
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
