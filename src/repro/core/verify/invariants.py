"""The StudyResults invariant auditor (DESIGN.md §12).

Cross-pipeline consistency rules over a completed
:class:`~repro.core.analysis.study.StudyResults`.  Every rule is a pure
check — the auditor never mutates results — and each re-derives its
expectation from the rawest inputs available (verdicts, the captures'
per-flow facts rows, the corpus, the error ledger) rather than trusting
an intermediate aggregate, so a bug in any aggregation step shows up as a disagreement
between two derivations.

The rule catalogue is data: each rule registers itself with a name and a
one-line contract, ``run_invariants`` executes them all, and the
rendered :class:`~repro.core.verify.report.AuditReport` lists every rule
checked — a silent rule is indistinguishable from a missing one
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

from repro.core import obs
from repro.core.analysis import prevalence as prevalence_mod
from repro.core.analysis import security as security_mod
from repro.core.analysis.consistency import summarize_pairs


@dataclass(frozen=True)
class Violation:
    """One broken invariant instance."""

    rule: str
    subject: str
    detail: str

    def describe(self) -> str:
        return f"{self.rule}: {self.subject}: {self.detail}"


@dataclass
class RuleResult:
    """Outcome of one rule over the whole results object."""

    name: str
    contract: str
    violations: List[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class _Rule:
    name: str
    contract: str
    check: Callable


RULE_CATALOG: List[_Rule] = []


def rule(name: str, contract: str):
    """Register an invariant rule (a generator of :class:`Violation`)."""

    def decorate(fn):
        RULE_CATALOG.append(_Rule(name=name, contract=contract, check=fn))
        return fn

    return decorate


def _v(rule_name: str, subject: str, detail: str) -> Violation:
    return Violation(rule=rule_name, subject=subject, detail=detail)


def _ledgered(results, phase: str, platform: str, dataset: str) -> set:
    return {
        f.app_id
        for f in results.failures
        if f.phase == phase and f.platform == platform and f.dataset == dataset
    }


# -- dynamic-verdict rules ----------------------------------------------------


@rule(
    "verdict-differential",
    "pinned ⇒ used without MITM ∧ always failed under MITM ∧ not excluded",
)
def _check_verdict_differential(results) -> Iterator[Violation]:
    for key, dataset_results in sorted(results.dynamic_results.items()):
        for result in dataset_results:
            for destination, verdict in result.verdicts.items():
                if not verdict.pinned:
                    continue
                if not verdict.used_direct:
                    yield _v(
                        "verdict-differential",
                        f"{key} {result.app_id} {destination}",
                        "pinned without a used direct connection",
                    )
                if not verdict.mitm_all_failed:
                    yield _v(
                        "verdict-differential",
                        f"{key} {result.app_id} {destination}",
                        "pinned without all-failed MITM connections",
                    )
                if verdict.excluded:
                    yield _v(
                        "verdict-differential",
                        f"{key} {result.app_id} {destination}",
                        "pinned and excluded are mutually exclusive",
                    )


@rule(
    "verdict-partition",
    "pinned / not-pinned / excluded partition each app's destinations, "
    "keyed consistently",
)
def _check_verdict_partition(results) -> Iterator[Violation]:
    for key, dataset_results in sorted(results.dynamic_results.items()):
        for result in dataset_results:
            for destination, verdict in result.verdicts.items():
                if verdict.destination != destination:
                    yield _v(
                        "verdict-partition",
                        f"{key} {result.app_id}",
                        f"verdict keyed {destination!r} claims "
                        f"{verdict.destination!r}",
                    )
            pinned = result.pinned_destinations
            not_pinned = result.not_pinned_destinations
            excluded = {
                d for d, v in result.verdicts.items() if v.excluded
            }
            if pinned & not_pinned:
                yield _v(
                    "verdict-partition",
                    f"{key} {result.app_id}",
                    f"pinned ∩ not-pinned = {sorted(pinned & not_pinned)}",
                )
            union = pinned | not_pinned | excluded
            if union != set(result.verdicts):
                yield _v(
                    "verdict-partition",
                    f"{key} {result.app_id}",
                    "views do not cover all verdicts: missing "
                    f"{sorted(set(result.verdicts) - union)}",
                )


def _destinations(facts) -> set:
    """A capture's distinct SNIs, as ``TrafficCapture.destinations``."""
    return {f.sni.lower() for f in facts if f.sni}


@rule(
    "capture-consistency",
    "a pinned verdict's destination appears in both captures",
)
def _check_capture_consistency(results) -> Iterator[Violation]:
    for key, dataset_results in sorted(results.dynamic_results.items()):
        for result in dataset_results:
            direct = _destinations(result.direct_facts)
            mitm = _destinations(result.mitm_facts)
            for destination in sorted(result.pinned_destinations):
                if destination not in direct:
                    yield _v(
                        "capture-consistency",
                        f"{key} {result.app_id} {destination}",
                        "pinned but absent from the direct capture",
                    )
                if destination not in mitm:
                    yield _v(
                        "capture-consistency",
                        f"{key} {result.app_id} {destination}",
                        "pinned but absent from the MITM capture",
                    )


# -- membership / ledger rules ------------------------------------------------


def _membership_violations(
    rule_name: str, results, results_by_key: Dict
) -> Iterator[Violation]:
    for key, items in sorted(results_by_key.items()):
        corpus_ids = {
            p.app.app_id for p in results.corpus.dataset(*key)
        }
        seen: set = set()
        for item in items:
            if item.app_id in seen:
                yield _v(
                    rule_name, f"{key}", f"duplicate app {item.app_id!r}"
                )
            seen.add(item.app_id)
            if item.app_id not in corpus_ids:
                yield _v(
                    rule_name,
                    f"{key}",
                    f"app {item.app_id!r} not in the corpus dataset",
                )


@rule(
    "dynamic-membership",
    "each dataset's dynamic results are unique apps of that dataset",
)
def _check_dynamic_membership(results) -> Iterator[Violation]:
    yield from _membership_violations(
        "dynamic-membership", results, results.dynamic_results
    )


@rule(
    "static-membership",
    "each dataset's static reports are unique apps of that dataset",
)
def _check_static_membership(results) -> Iterator[Violation]:
    yield from _membership_violations(
        "static-membership", results, results.static_reports
    )


@rule(
    "static-decryption-tool",
    "every static report names the tool that produced its file tree, "
    "valid for its platform",
)
def _check_static_decryption_tool(results) -> Iterator[Violation]:
    valid = {
        "android": {"apktool-sim"},
        "ios": {"flexdecrypt", "frida-ios-dump"},
    }
    for key in sorted(results.static_reports):
        for report in results.static_reports[key]:
            tool = report.decryption_tool
            if not tool:
                yield _v(
                    "static-decryption-tool",
                    f"{key}",
                    f"app {report.app_id!r} carries an empty tool field",
                )
            elif tool not in valid.get(report.platform, set()):
                yield _v(
                    "static-decryption-tool",
                    f"{key}",
                    f"app {report.app_id!r} reports tool {tool!r}, not a "
                    f"known {report.platform} tool",
                )


@rule(
    "ledger-exclusion",
    "every corpus app is measured or ledgered, and apps are only missing "
    "from aggregates the ledger says failed",
)
def _check_ledger_exclusion(results) -> Iterator[Violation]:
    phase_results = {
        "static": results.static_reports,
        "dynamic": results.dynamic_results,
    }
    for phase, by_key in phase_results.items():
        for key in sorted(results.corpus.datasets):
            platform, dataset = key
            corpus_ids = {
                p.app.app_id for p in results.corpus.dataset(*key)
            }
            measured = {r.app_id for r in by_key.get(key, [])}
            ledgered = _ledgered(results, phase, platform, dataset)
            missing = corpus_ids - measured - ledgered
            for app_id in sorted(missing):
                yield _v(
                    "ledger-exclusion",
                    f"{phase} {key}",
                    f"app {app_id!r} silently absent (not measured, "
                    "not in the error ledger)",
                )
            if not ledgered and measured != corpus_ids:
                extra = measured - corpus_ids
                for app_id in sorted(extra):
                    yield _v(
                        "ledger-exclusion",
                        f"{phase} {key}",
                        f"unexpected app {app_id!r} in a failure-free "
                        "aggregate",
                    )


# -- circumvention rules ------------------------------------------------------


def _pinned_sets_by_app(results, platform: str) -> Dict[str, List[frozenset]]:
    out: Dict[str, List[frozenset]] = {}
    for (plat, _), dataset_results in sorted(results.dynamic_results.items()):
        if plat != platform:
            continue
        for result in dataset_results:
            out.setdefault(result.app_id, []).append(
                frozenset(result.pinned_destinations)
            )
    return out


@rule(
    "circumvention-partition",
    "bypassed ∩ resistant = ∅ and their union is the app's detected "
    "pinned set",
)
def _check_circumvention_partition(results) -> Iterator[Violation]:
    for platform, circ_results in sorted(results.circumvention.items()):
        pinned_sets = _pinned_sets_by_app(results, platform)
        for circ in circ_results:
            overlap = circ.bypassed_destinations & circ.resistant_destinations
            if overlap:
                yield _v(
                    "circumvention-partition",
                    f"{platform} {circ.app_id}",
                    f"bypassed ∩ resistant = {sorted(overlap)}",
                )
            union = frozenset(
                circ.bypassed_destinations | circ.resistant_destinations
            )
            if union not in pinned_sets.get(circ.app_id, []):
                yield _v(
                    "circumvention-partition",
                    f"{platform} {circ.app_id}",
                    "circumvented set matches no dynamic pinned set: "
                    f"{sorted(union)}",
                )


@rule(
    "circumvention-coverage",
    "every pinning app is swept (or ledgered), and only pinning apps are",
)
def _check_circumvention_coverage(results) -> Iterator[Violation]:
    for platform in ("android", "ios"):
        circ_results = results.circumvention.get(platform, [])
        circ_ids = {c.app_id for c in circ_results}
        pinned_sets = _pinned_sets_by_app(results, platform)
        pinning_ids = {
            app_id
            for app_id, sets in pinned_sets.items()
            if any(sets)
        }
        ledgered = {
            f.app_id
            for f in results.failures
            if f.phase == "circumvent" and f.platform == platform
        }
        for app_id in sorted(pinning_ids - circ_ids - ledgered):
            yield _v(
                "circumvention-coverage",
                f"{platform} {app_id}",
                "pins but was never swept and is not in the error ledger",
            )
        for app_id in sorted(circ_ids - set(pinned_sets)):
            yield _v(
                "circumvention-coverage",
                f"{platform} {app_id}",
                "swept but has no dynamic result at all",
            )


@rule(
    "ios-rerun",
    "final Common-iOS results follow the 120 s re-run methodology",
)
def _check_ios_rerun(results) -> Iterator[Violation]:
    key = ("ios", "common")
    if key not in results.dynamic_results:
        return
    ledgered = _ledgered(results, "dynamic", *key)
    for result in results.dynamic_results[key]:
        if result.app_id in ledgered:
            continue  # a failed rerun legitimately leaves the initial pass
        if result.pins() and not result.reran_with_wait:
            yield _v(
                "ios-rerun",
                f"{key} {result.app_id}",
                "pins but was never re-measured with the 120 s wait",
            )
    for other_key, dataset_results in sorted(results.dynamic_results.items()):
        if other_key == key:
            continue
        for result in dataset_results:
            if result.reran_with_wait:
                yield _v(
                    "ios-rerun",
                    f"{other_key} {result.app_id}",
                    "re-run flag outside the Common-iOS dataset",
                )


# -- aggregation / table rules ------------------------------------------------


@rule(
    "prevalence-margins",
    "memoized Table 2/3 cells equal a fresh recomputation from raw results",
)
def _check_prevalence_margins(results) -> Iterator[Violation]:
    cells = results._prevalence_cells()
    for key in sorted(results.static_reports):
        fresh = prevalence_mod.dataset_prevalence(
            results.static_reports[key], results.dynamic_results[key]
        )
        cached = cells.get(key)
        if cached is None:
            yield _v("prevalence-margins", f"{key}", "dataset missing")
            continue
        for technique, fresh_cell in fresh.items():
            cell = cached.get(technique)
            if cell is None or (cell.count, cell.total) != (
                fresh_cell.count,
                fresh_cell.total,
            ):
                yield _v(
                    "prevalence-margins",
                    f"{key} {technique}",
                    f"cached {cell!r} != recomputed {fresh_cell!r}",
                )
            if fresh_cell.count > fresh_cell.total and not results.failures:
                yield _v(
                    "prevalence-margins",
                    f"{key} {technique}",
                    f"count {fresh_cell.count} exceeds total "
                    f"{fresh_cell.total}",
                )


@rule(
    "figure2-margins",
    "pair-summary cells sum to their margins",
)
def _check_figure2_margins(results) -> Iterator[Violation]:
    classifications = [c for _, c in results.pair_classifications()]
    summary = summarize_pairs(classifications)
    checks = [
        (
            "pins_both + android_only + ios_only == total_pinning_either",
            summary.pins_both + summary.android_only + summary.ios_only,
            summary.total_pinning_either,
        ),
        (
            "both_* verdict cells sum to pins_both",
            summary.both_consistent
            + summary.both_inconsistent
            + summary.both_inconclusive,
            summary.pins_both,
        ),
        (
            "android_only verdict cells sum to android_only",
            summary.android_only_inconsistent
            + summary.android_only_inconclusive,
            summary.android_only,
        ),
        (
            "ios_only verdict cells sum to ios_only",
            summary.ios_only_inconsistent + summary.ios_only_inconclusive,
            summary.ios_only,
        ),
    ]
    for label, cell_sum, margin in checks:
        if cell_sum != margin:
            yield _v(
                "figure2-margins", label, f"cells {cell_sum} != margin {margin}"
            )
    pinning_pairs = sum(1 for c in classifications if c.pins_either)
    if summary.total_pinning_either != pinning_pairs:
        yield _v(
            "figure2-margins",
            "total_pinning_either",
            f"{summary.total_pinning_either} != {pinning_pairs} "
            "pinning pairs",
        )


@rule(
    "cipher-margins",
    "Table 8 cells reconcile with their dataset's raw results",
)
def _check_cipher_margins(results) -> Iterator[Violation]:
    for key, dataset_results in sorted(results.dynamic_results.items()):
        cell = security_mod.analyze_ciphers(dataset_results)
        if cell.total_apps != len(dataset_results):
            yield _v(
                "cipher-margins",
                f"{key}",
                f"total_apps {cell.total_apps} != {len(dataset_results)} "
                "results",
            )
        pinning = sum(1 for r in dataset_results if r.pins())
        if cell.pinning_apps != pinning:
            yield _v(
                "cipher-margins",
                f"{key}",
                f"pinning_apps {cell.pinning_apps} != {pinning} pinning "
                "results",
            )
        for label, rate in (
            ("overall_rate", cell.overall_rate),
            ("pinning_rate", cell.pinning_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                yield _v(
                    "cipher-margins", f"{key}", f"{label} {rate} outside [0,1]"
                )


@rule(
    "pii-reconciliation",
    "Table 9 rows' counts, totals and rates agree",
)
def _check_pii_reconciliation(results) -> Iterator[Violation]:
    for platform, comparison in sorted(results.pii.items()):
        for row in comparison.rows:
            for side, count, total, rate in (
                ("pinned", row.pinned_count, row.pinned_total, row.pinned_rate),
                (
                    "non-pinned",
                    row.non_pinned_count,
                    row.non_pinned_total,
                    row.non_pinned_rate,
                ),
            ):
                if count > total:
                    yield _v(
                        "pii-reconciliation",
                        f"{platform} {row.pii_type} {side}",
                        f"count {count} exceeds total {total}",
                    )
                expected = count / total if total else 0.0
                if abs(rate - expected) > 1e-12:
                    yield _v(
                        "pii-reconciliation",
                        f"{platform} {row.pii_type} {side}",
                        f"rate {rate} != {expected} (= {count}/{total})",
                    )


@rule(
    "no-data-rendering",
    "empty denominators render as “—”, never as a numeric percentage",
)
def _check_no_data_rendering(results) -> Iterator[Violation]:
    for key, cells in sorted(results._prevalence_cells().items()):
        for technique, cell in cells.items():
            rendered = cell.render()
            if cell.total == 0 and "%" in rendered:
                yield _v(
                    "no-data-rendering",
                    f"{key} {technique}",
                    f"zero-total cell renders {rendered!r}",
                )


# -- telemetry rules ----------------------------------------------------------


@rule(
    "telemetry-ledger",
    "telemetry counters reconcile with the error ledger and store stats "
    "(skipped for uninstrumented runs)",
)
def _check_telemetry_ledger(results) -> Iterator[Violation]:
    recorder = results.telemetry
    if recorder is None:
        return
    abandoned = recorder.counter_value("exec.apps.abandoned")
    if abandoned != len(results.failures):
        yield _v(
            "telemetry-ledger",
            "exec.apps.abandoned",
            f"counter {abandoned} != {len(results.failures)} ledger entries",
        )


def run_invariants(results) -> List[RuleResult]:
    """Execute every catalogued rule over one results object.

    Telemetry: each rule increments ``verify.rule.checked``; every
    violation increments ``verify.rule.violated``.
    """
    outcomes: List[RuleResult] = []
    for entry in RULE_CATALOG:
        obs.count("verify.rule.checked")
        violations = list(entry.check(results))
        if violations:
            obs.count("verify.rule.violated", len(violations))
        outcomes.append(
            RuleResult(
                name=entry.name,
                contract=entry.contract,
                violations=violations,
            )
        )
    return outcomes
