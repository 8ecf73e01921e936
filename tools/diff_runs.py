#!/usr/bin/env python
"""Diff two result-store runs at the per-app level.

Usage::

    python tools/diff_runs.py STORE_A STORE_B [--json]

Compares every entry of two content-addressed result stores (see
``repro.core.exec.resultstore``) and reports, per app:

* entries present in only one store (an app computed by one run but not
  the other — added, removed, or abandoned after faults);
* apps whose **pinned verdict flipped** between the runs, with the
  destination-level why (which pinned destinations appeared or
  disappeared);
* entries whose semantic identity matches but whose result **summary**
  differs (same app, same stage config, different measurement — a
  code-behaviour change the fingerprint salt should have caught).

Comparison is over each entry's canonical summary (pinned verdict,
sorted destination sets, static/circumvention findings), not its pickled
payload bytes: pickling a ``set`` is ordered by iteration, which varies
across interpreter processes under hash randomisation, so equivalent
runs do not produce byte-identical payloads unless ``PYTHONHASHSEED``
is pinned.

Stdlib-only by design: each dataset's pack is a self-describing
envelope whose metadata lists every stored key with its app and
plain-data context and summaries, so this tool never imports the
``repro`` package or unpickles result payloads.  It reads the pickled
metadata of format 6 and the plain dict of earlier formats, so stores
written by different checkouts compare.

Exit status: 0 when the stores are identical, 1 when they differ, 2 on
usage or store-format errors.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

_PACK_MAGIC = "repro-result-pack"


def load_store(root):
    """Map of ``semantic key -> entry`` for every app result in a store.

    The semantic key — ``(stage, platform, dataset, app_id, extra)`` —
    identifies *what was measured*; the fingerprint additionally bakes in
    corpus/code versions, so keying semantically lets two stores written
    by different checkouts still be compared app by app.  Unreadable
    packs are reported on stderr and skipped (the store itself treats
    them as misses).
    """
    root = Path(root)
    packs = root / "packs"
    if not packs.is_dir():
        raise SystemExit(f"error: {root} is not a result store (no packs/)")
    entries = {}
    for path in sorted(packs.glob("*.pkl")):
        try:
            envelope = pickle.loads(path.read_bytes())
            magic, _version, _name, meta, _digest, _payload = envelope
            if magic != _PACK_MAGIC:
                raise ValueError("bad pack magic")
            if isinstance(meta, bytes):
                # Format 6 pickles the metadata into the header; earlier
                # formats stored the dict itself.
                meta = pickle.loads(meta)
            dataset = (meta["platform"], meta["dataset"])
            stored = meta["entries"].items()
        except Exception as exc:
            print(
                f"warning: skipping corrupt pack {path}: {exc}",
                file=sys.stderr,
            )
            continue
        for fingerprint, entry in stored:
            if entry.get("entry_kind") == "stage":
                # Stage artifacts are an implementation detail of
                # partial recomputation; two semantically identical runs
                # may legitimately differ in which ones they
                # materialized.  Only app-level results are compared.
                continue
            key = (entry["stage"], *dataset, entry["app_id"], entry["extra"])
            entries[key] = {
                "fingerprint": fingerprint,
                "summary": entry.get("summary", {}),
            }
    return entries


def describe_key(key):
    stage, platform, dataset, app_id, extra = key
    return f"{stage} {platform}/{dataset} {app_id} (config {extra})"


def pinned_view(entries):
    """Per-app final pinned verdict: ``(platform, dataset, app_id) ->
    (pinned, destinations)``.

    Mirrors the study's semantics: when an app has several dynamic
    entries (the Common-iOS re-run uses a longer pre-launch wait), the
    entry with the largest wait is the one whose verdict the study
    reports.
    """
    view = {}
    for key, entry in entries.items():
        stage, platform, dataset, app_id, extra = key
        if stage != "dynamic":
            continue
        try:
            wait = float(extra)
        except ValueError:
            wait = 0.0
        summary = entry["summary"]
        app_key = (platform, dataset, app_id)
        current = view.get(app_key)
        if current is None or wait >= current[0]:
            view[app_key] = (
                wait,
                bool(summary.get("pinned")),
                tuple(summary.get("pinned_destinations", ())),
            )
    return {
        k: {"pinned": pinned, "destinations": list(dests)}
        for k, (_, pinned, dests) in view.items()
    }


def diff_stores(a_entries, b_entries):
    """Structured diff of two loaded stores."""
    a_keys, b_keys = set(a_entries), set(b_entries)
    only_a = sorted(a_keys - b_keys)
    only_b = sorted(b_keys - a_keys)
    changed = sorted(
        key
        for key in a_keys & b_keys
        if a_entries[key]["summary"] != b_entries[key]["summary"]
    )

    a_view, b_view = pinned_view(a_entries), pinned_view(b_entries)
    flips = []
    for app_key in sorted(set(a_view) & set(b_view)):
        a_pin, b_pin = a_view[app_key], b_view[app_key]
        if a_pin == b_pin:
            continue
        gained = sorted(set(b_pin["destinations"]) - set(a_pin["destinations"]))
        lost = sorted(set(a_pin["destinations"]) - set(b_pin["destinations"]))
        flips.append(
            {
                "platform": app_key[0],
                "dataset": app_key[1],
                "app_id": app_key[2],
                "before": a_pin,
                "after": b_pin,
                "destinations_gained": gained,
                "destinations_lost": lost,
            }
        )

    return {
        "identical": not (only_a or only_b or changed or flips),
        "only_in_a": [describe_key(k) for k in only_a],
        "only_in_b": [describe_key(k) for k in only_b],
        "changed_results": [describe_key(k) for k in changed],
        "pinned_flips": flips,
        "entries_a": len(a_entries),
        "entries_b": len(b_entries),
    }


def render(report, store_a, store_b):
    lines = []
    if report["identical"]:
        lines.append(
            f"stores identical: {report['entries_a']} entr(ies) in each"
        )
        return "\n".join(lines)
    lines.append(f"stores differ: A={store_a} B={store_b}")
    for label, keys in (
        ("only in A", report["only_in_a"]),
        ("only in B", report["only_in_b"]),
        ("changed results", report["changed_results"]),
    ):
        if keys:
            lines.append(f"  {label} ({len(keys)} entr(ies)):")
            lines.extend(f"    {key}" for key in keys)
    if report["pinned_flips"]:
        lines.append(
            f"  pinned verdict flips ({len(report['pinned_flips'])} app(s)):"
        )
        for flip in report["pinned_flips"]:
            before = "pinned" if flip["before"]["pinned"] else "unpinned"
            after = "pinned" if flip["after"]["pinned"] else "unpinned"
            why = []
            if flip["destinations_gained"]:
                why.append("+{%s}" % ", ".join(flip["destinations_gained"]))
            if flip["destinations_lost"]:
                why.append("-{%s}" % ", ".join(flip["destinations_lost"]))
            lines.append(
                f"    {flip['platform']}/{flip['dataset']} "
                f"{flip['app_id']}: {before} -> {after} "
                f"(destinations {' '.join(why) or 'unchanged'})"
            )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store_a", help="baseline store directory")
    parser.add_argument("store_b", help="comparison store directory")
    parser.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )
    args = parser.parse_args(argv)

    report = diff_stores(load_store(args.store_a), load_store(args.store_b))
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render(report, args.store_a, args.store_b))
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
