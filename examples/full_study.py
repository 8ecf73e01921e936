#!/usr/bin/env python
"""Full-scale reproduction: every table and figure in the paper.

Generates the corpus at the paper's scale (575 Common pairs + 1,000
Popular + 1,000 Random per platform; 5,150 apps), runs all four pipeline
stages, and prints Tables 1–9 and the data behind Figures 2–5.  Takes a
few minutes; use ``--scale`` to shrink.

Run:
    python examples/full_study.py [--scale 1.0] [--max-retries 2] \
        [--out results.txt] [--store results.store] \
        [--trace-out study.trace.json] [--metrics-out study.metrics.json]

Per-app failures never abort the study — they are retried, quarantined,
and reported in the "error ledger" section of the output.
``--trace-out`` / ``--metrics-out`` instrument the run (spans, counters,
cache hit rates) without changing its results; the trace loads in
Perfetto.  ``--store`` makes repeated runs incremental: per-app results
are published to a content-addressed store as they complete, and a
re-run with the same configuration recomputes only what is missing, with
identical output — which is also how an interrupted run resumes.
"""

import argparse
import os
import sys

from repro.cli import _scale
from repro.core import obs
from repro.core.analysis import Study
from repro.core.exec import CorpusStore, ExecutionPlan, ResultStore, SeededFaults
from repro.core.analysis.certificates import (
    analyze_pin_positions,
    check_validation_subversion,
    self_signed_validity_years,
)
from repro.core.analysis.misconfig import (
    find_nsc_misconfigurations,
    misconfig_table,
)
from repro.core.analysis.spinner import spinner_scan, spinner_table
from repro.corpus import CorpusConfig, CorpusGenerator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=_scale, default=1.0)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="retries per failed work unit before quarantine + ledger",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="fault-injection testing hook: deterministically fail this "
        "fraction of per-app work",
    )
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument(
        "--store",
        type=str,
        default="",
        help="content-addressed result store directory; later runs with "
        "the same configuration recompute only what changed",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default="",
        help="instrument the run; write Chrome trace-event JSON here "
        "(loads in Perfetto / about://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default="",
        help="instrument the run; write flat metrics JSON here",
    )
    parser.add_argument("--out", type=str, default="")
    args = parser.parse_args()

    # Fail on an unwritable export path before the run, not after.
    for path in (args.trace_out, args.metrics_out):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"output directory does not exist: {path}")

    out = open(args.out, "w") if args.out else sys.stdout

    def emit(text=""):
        print(text, file=out)

    stopwatch = obs.Stopwatch()
    config = CorpusConfig(seed=args.seed)
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    corpus_store = None
    if args.store:
        corpus_store = CorpusStore(args.store)
    corpus = CorpusGenerator(config).generate(corpus_store)
    emit(
        f"corpus: {corpus.total_unique_apps()} unique apps "
        f"({stopwatch.elapsed():.0f}s)"
    )

    stopwatch.restart()
    faults = (
        SeededFaults(args.fault_rate, seed=args.fault_seed)
        if args.fault_rate > 0
        else None
    )
    recorder = (
        obs.Recorder() if (args.trace_out or args.metrics_out) else None
    )
    plan = ExecutionPlan(max_retries=args.max_retries)
    study = Study(corpus, plan=plan, fault_predicate=faults)
    store = None
    if args.store:
        store = ResultStore(args.store, corpus)
    results = study.run(recorder=recorder, store=store)
    emit(f"study: complete ({stopwatch.elapsed():.0f}s)")
    if store is not None:
        print(f"result store: {store.stats.describe()}", file=sys.stderr)
    emit()

    if recorder is not None:
        if args.trace_out:
            recorder.write_trace(args.trace_out)
            emit(f"trace written to {args.trace_out}")
        if args.metrics_out:
            recorder.write_metrics(args.metrics_out)
            emit(f"metrics written to {args.metrics_out}")
        emit(results.telemetry_table().render())
        emit()

    # The error ledger: a fault-free run prints "0 unit failure(s)" and
    # nothing else; a degraded run lists every abandoned app so the
    # partial results below are interpretable.
    emit(f"error ledger: {len(results.failures)} unit failure(s)")
    for line in results.error_ledger():
        emit(f"  {line}")
    emit()

    for table in (
        results.table1(),
        results.table2(),
        results.table3(),
        results.table4(),
        results.table5(),
        results.table6(),
        results.table7(),
        results.table8(),
        results.table9(),
        results.figure2(),
        results.figure3(),
    ):
        emit(table.render())
        emit()
    figure4a, figure4b = results.figure4()
    emit(figure4a.render())
    emit()
    emit(figure4b.render())
    emit()
    emit(results.figure5().render())
    emit()

    emit("Section 4.3 — circumvention rates (paper: 51.5% / 66.2%):")
    emit(f"  android: {results.circumvention_rate('android'):.2%}")
    emit(f"  ios    : {results.circumvention_rate('ios'):.2%}")
    emit()

    for platform in ("android", "ios"):
        analysis = analyze_pin_positions(
            corpus,
            results.static_by_app(platform),
            results.all_dynamic(platform),
        )
        emit(
            f"Section 5.3.2 ({platform}) — CA pins: {analysis.ca_pins}, "
            f"leaf pins: {analysis.leaf_pins} "
            f"(CA fraction {analysis.ca_fraction:.0%}; paper: 80/110 ≈ 73%)"
        )
        subversion = check_validation_subversion(
            corpus, results.all_dynamic(platform)
        )
        emit(
            f"Section 5.3.4 ({platform}) — expired-but-accepted certs at "
            f"pinned destinations: {subversion.expired_accepted} "
            f"of {subversion.checked_destinations} (paper: 0)"
        )
        years = self_signed_validity_years(
            corpus, results.all_dynamic(platform)
        )
        if years:
            emit(
                f"Section 5.3.1 ({platform}) — self-signed pinned cert "
                f"validity years: {[round(y) for y in years]} "
                "(paper: 27 and 10)"
            )
    emit()

    # Extensions beyond the paper (related-work analyses).
    stores = {
        "android": corpus.stores.android_aosp,
        "ios": corpus.stores.ios,
    }
    spinner_reports = [
        spinner_scan(corpus, p, results.all_dynamic(p), stores[p])
        for p in ("android", "ios")
    ]
    emit(spinner_table(spinner_reports).render())
    emit()
    emit(
        misconfig_table(
            find_nsc_misconfigurations(
                list(results.static_by_app("android").values()),
                results.all_dynamic("android"),
            )
        ).render()
    )
    if args.out:
        out.close()
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
