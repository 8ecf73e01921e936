#!/usr/bin/env python
"""Gate CI on pipeline throughput against the checked-in baseline.

Usage::

    python tools/check_bench_regression.py BENCH_JSON BASELINE_JSON \
        [--tolerance 0.30]

``BENCH_JSON`` is a ``pytest-benchmark --benchmark-json`` export of
``benchmarks/test_pipeline_throughput.py``; ``BASELINE_JSON`` is the
repository's ``BENCH_study.json``.  Each benchmark's measured
throughput (ops/s, the reciprocal of the mean per-op time) is compared
against the baseline's serial apps-per-second figures:

* ``test_static_scan_per_app``   vs ``serial.static_apps_per_s``
* ``test_dynamic_run_per_app``   vs ``serial.dynamic_apps_per_s``

The check fails when a measured figure regresses by more than
``--tolerance`` (default 0.30, i.e. >30 % slower than baseline).  The
tolerance is deliberately generous: the baseline was recorded on one
machine and CI runners differ — the gate exists to catch order-of-30 %
algorithmic regressions, not single-digit noise.

Stdlib-only.  Exit status: 0 when within tolerance, 1 on regression,
2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

#: benchmark name -> path into BENCH_study.json
BASELINE_KEYS = {
    "test_static_scan_per_app": ("serial", "static_apps_per_s"),
    "test_dynamic_run_per_app": ("serial", "dynamic_apps_per_s"),
}


def measured_ops(bench_doc):
    """``benchmark name -> ops/s`` from a pytest-benchmark export."""
    ops = {}
    for bench in bench_doc.get("benchmarks", []):
        mean = bench.get("stats", {}).get("mean")
        if mean:
            ops[bench["name"]] = 1.0 / mean
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="pytest-benchmark JSON export")
    parser.add_argument("baseline", help="checked-in BENCH_study.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="maximum allowed fractional regression (default 0.30)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.bench) as fh:
            ops = measured_ops(json.load(fh))
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: unreadable input: {exc}", file=sys.stderr)
        return 2

    failed = False
    checked = 0
    for name, (section, field) in sorted(BASELINE_KEYS.items()):
        expected = baseline.get(section, {}).get(field)
        measured = ops.get(name)
        if expected is None or measured is None:
            print(f"skip: {name} (no baseline or no measurement)")
            continue
        checked += 1
        floor = expected * (1.0 - args.tolerance)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"{verdict}: {name} {measured:.1f} ops/s "
            f"(baseline {expected:.1f}, floor {floor:.1f})"
        )
        if measured < floor:
            failed = True
    if checked == 0:
        print("error: nothing to check — wrong bench file?", file=sys.stderr)
        return 2
    if failed:
        print(
            "FAIL: benchmark regression vs baseline "
            f"(tolerance {args.tolerance:.0%})",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {checked} benchmark(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
