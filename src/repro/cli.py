"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``study``    — run the full measurement and print (or save) every table
  and figure.
* ``table``    — run the study and print a single table (``table3``,
  ``figure2``, ...).
* ``score``    — run the dynamic pipeline and print detector
  precision/recall against corpus ground truth.
* ``verify``   — run the study, audit it against ground truth and the
  invariant catalogue, and exit non-zero on any violation.
* ``corpus``   — generate a corpus and print its composition.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from repro.core import obs
from repro.core.analysis import Study
from repro.core.exec import CorpusStore, ExecutionPlan, ResultStore, SeededFaults
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.reporting.render import TABLE_CHOICES, render_study_stdout


def _build_corpus(args, store: Optional[CorpusStore] = None):
    config = CorpusConfig(seed=args.seed)
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    return CorpusGenerator(config).generate(store)


def _plan(args) -> ExecutionPlan:
    return ExecutionPlan(max_retries=args.max_retries)


def _faults(args):
    """The deterministic fault-injection predicate, if requested."""
    if args.fault_rate > 0:
        return SeededFaults(args.fault_rate, seed=args.fault_seed)
    return None


def _report_ledger(results) -> None:
    """Print the error ledger to stderr (commentary, like the timing)."""
    print(
        f"# error ledger: {len(results.failures)} failed unit(s)",
        file=sys.stderr,
    )
    for line in results.error_ledger():
        print(f"#   {line}", file=sys.stderr)


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _rate(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return number


def _scale(value: str) -> float:
    # A non-number keeps the message argparse gives for ``type=float``.
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return number


def _cmd_corpus(args) -> int:
    corpus = _build_corpus(args)
    print(f"unique apps : {corpus.total_unique_apps()}")
    print(f"endpoints   : {len(corpus.registry)}")
    print(f"CT log size : {corpus.registry.ctlog.size}")
    for key, apps in sorted(corpus.datasets.items()):
        pinners = sum(1 for a in apps if a.app.pins_at_runtime())
        print(f"{key[0]:8s} {key[1]:8s} n={len(apps):5d} pinners={pinners}")
    return 0


def _write_audit_json(report, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_study(args) -> int:
    # Fail on an unwritable export path *before* the run, not after a
    # multi-hour study has produced results it then cannot write.
    for path in (args.trace_out, args.metrics_out, args.audit_out):
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                print(
                    f"error: output directory does not exist: {parent}",
                    file=sys.stderr,
                )
                return 2
    corpus_store = None
    if args.store:
        corpus_store = CorpusStore(args.store, write=not args.no_store_write)
    corpus = _build_corpus(args, corpus_store)
    recorder = None
    if args.trace_out or args.metrics_out:
        recorder = obs.Recorder()
    # perf_counter, not time.time(): the wall clock can step (NTP slews,
    # suspend/resume) and would mis-report long runs — and telemetry spans
    # already use the monotonic clock, so the headline number must agree
    # with the trace.
    stopwatch = obs.Stopwatch()
    study = Study(
        corpus,
        plan=_plan(args),
        fault_predicate=_faults(args),
        detector=args.detector,
    )
    store = None
    if args.store:
        store = ResultStore(args.store, corpus, write=not args.no_store_write)
    audit_enabled = args.audit or args.audit_out is not None
    results = study.run(
        recorder=recorder,
        store=store,
        audit=args.audit_level if audit_enabled else False,
    )
    print(f"# study completed in {stopwatch.elapsed():.0f}s", file=sys.stderr)
    if store is not None:
        print(
            f"# result store: {store.stats.describe()}; "
            f"{corpus_store.describe()}",
            file=sys.stderr,
        )
    if recorder is not None:
        if args.trace_out:
            recorder.write_trace(args.trace_out)
            print(f"# trace written to {args.trace_out}", file=sys.stderr)
        if args.metrics_out:
            recorder.write_metrics(args.metrics_out)
            print(f"# metrics written to {args.metrics_out}", file=sys.stderr)
        print(results.telemetry_table().render(), file=sys.stderr)
    _report_ledger(results)
    sys.stdout.write(render_study_stdout(results))
    if results.audit is not None:
        # The audit is commentary about the run, not part of the study's
        # deterministic stdout contract — route it to stderr so output
        # diffs (e.g. the CI audit job's) stay byte-identical with and
        # without --audit.
        print(results.audit.render(), file=sys.stderr)
        if args.audit_out:
            _write_audit_json(results.audit, args.audit_out)
            print(f"# audit report written to {args.audit_out}", file=sys.stderr)
        if not results.audit.passed:
            return 1
    return 0


def _cmd_table(args) -> int:
    corpus = _build_corpus(args)
    results = Study(corpus, plan=_plan(args), fault_predicate=_faults(args)).run()
    if results.failures:
        _report_ledger(results)
    artefact = getattr(results, args.name)()
    if isinstance(artefact, tuple):
        for part in artefact:
            print(part.render())
            print()
    elif args.csv:
        print(artefact.to_csv(), end="")
    else:
        print(artefact.render())
    return 0


def _cmd_score(args) -> int:
    from repro.core.analysis.scoring import score_apps, score_destinations
    from repro.core.dynamic import DynamicPipeline

    corpus = _build_corpus(args)
    pipeline = DynamicPipeline(corpus)
    for key in sorted(corpus.datasets):
        results = pipeline.run_dataset(*key)
        dest = score_destinations(corpus, results)
        app = score_apps(corpus, results)
        print(
            f"{key[0]:8s} {key[1]:8s} destination P={dest.precision:.3f} "
            f"R={dest.recall:.3f} F1={dest.f1:.3f} | "
            f"app P={app.precision:.3f} R={app.recall:.3f}"
        )
    return 0


def _cmd_verify(args) -> int:
    if args.out:
        parent = os.path.dirname(args.out) or "."
        if not os.path.isdir(parent):
            print(
                f"error: output directory does not exist: {parent}",
                file=sys.stderr,
            )
            return 2
    corpus = _build_corpus(args)
    study = Study(corpus, plan=_plan(args), fault_predicate=_faults(args))
    results = study.run(audit=args.level)
    if results.failures:
        _report_ledger(results)
    report = results.audit
    print(report.render())
    if args.out:
        _write_audit_json(report, args.out)
        print(f"# audit report written to {args.out}", file=sys.stderr)
    return 0 if report.passed else 1


def _study_arguments(study) -> None:
    study.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed result store: per-app results are "
        "published here as units complete and re-used by later runs with "
        "the same configuration, which then recompute only what changed "
        "(re-running an interrupted study against it resumes the study)",
    )
    study.add_argument(
        "--no-store-write",
        action="store_true",
        help="do not publish results to --store (read-only consumer)",
    )
    study.add_argument(
        "--detector",
        choices=["full", "no-tls13", "naive"],
        default="full",
        help="dynamic detector variant; under --store a flip re-uses the "
        "cached capture stages and recomputes only detection onward",
    )
    study.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="instrument the run and write a Chrome trace-event JSON "
        "here (load it in Perfetto or about://tracing)",
    )
    study.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="instrument the run and write flat metrics JSON (counters, "
        "histograms, cache hit rates) here",
    )
    study.add_argument(
        "--audit",
        action="store_true",
        help="after the run, score every detector against corpus ground "
        "truth and check the StudyResults invariant catalogue; the "
        "report goes to stderr and a failed audit exits non-zero",
    )
    study.add_argument(
        "--audit-level",
        choices=["standard", "deep"],
        default="standard",
        help="'standard' = oracle + invariants; 'deep' adds a serial "
        "re-execution determinism check (runs the study twice)",
    )
    study.add_argument(
        "--audit-out",
        metavar="PATH",
        default=None,
        help="write the audit report as JSON here (implies --audit; "
        "validates against schemas/audit_report.schema.json)",
    )


def _table_arguments(table) -> None:
    table.add_argument("name", choices=TABLE_CHOICES + ["figure4"])
    table.add_argument("--csv", action="store_true")


def _verify_arguments(verify) -> None:
    verify.add_argument(
        "--level",
        choices=["standard", "deep"],
        default="standard",
        help="'standard' = oracle + invariants; 'deep' adds a serial "
        "re-execution determinism check (runs the study twice)",
    )
    verify.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the audit report as JSON here",
    )


#: Subcommand -> (help line, handler, adds its arguments), in help order.
_COMMANDS = {
    "corpus": ("generate a corpus and print composition", _cmd_corpus, None),
    "study": ("run everything, print all tables", _cmd_study, _study_arguments),
    "table": ("print one table/figure", _cmd_table, _table_arguments),
    "score": ("detector precision/recall vs ground truth", _cmd_score, None),
    "verify": (
        "run the study and audit it: detector scores vs ground "
        "truth, invariant catalogue, optional determinism check",
        _cmd_verify,
        _verify_arguments,
    ),
}


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments when it first parses.

    Only the dispatched command parses, so a run builds one command's
    arguments, not all of them.  Its ``--help`` and its argument errors are
    printed from inside parsing, after the arguments exist, so they read
    as if every command had been built up front.
    """

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--scale",
        type=_scale,
        default=0.1,
        help="corpus scale relative to the paper's (1.0 = 5,150 apps)",
    )
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=1,
        help="retries per failed work unit before it is quarantined and "
        "recorded in the error ledger",
    )
    parser.add_argument(
        "--fault-rate",
        type=_rate,
        default=0.0,
        help="fault-injection testing hook: deterministically fail this "
        "fraction of per-app work (0 = disabled)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for --fault-rate (decides which apps fail)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Subcommand
    )
    for name, (help_text, _, add_arguments) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, add_arguments=add_arguments)

    args = parser.parse_args(argv)
    return _COMMANDS[args.command][1](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
