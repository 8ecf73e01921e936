"""The StudyResults invariant auditor and the audit report.

Same philosophy as the oracle tests: a clean run must pass every rule,
and each hand-corrupted results object must trip exactly the rule that
owns the broken contract — a rule that cannot fail is not a check.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest

from repro.core import obs
from repro.core.exec import UnitFailure
from repro.core.verify import (
    AUDIT_LEVELS,
    RULE_CATALOG,
    audit_study,
    run_invariants,
    study_digest,
)
from tests.test_verify_oracle import fresh_results, replace_result

REPO = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def violated(results):
    """Names of the rules a results object trips."""
    return {r.name for r in run_invariants(results) if not r.passed}


def test_clean_run_passes_every_rule(study_results):
    outcomes = run_invariants(study_results)
    assert len(outcomes) == len(RULE_CATALOG) >= 14
    broken = [
        v.describe() for r in outcomes for v in r.violations
    ]
    assert not broken, broken


def test_catalogue_is_complete_and_named():
    names = [r.name for r in RULE_CATALOG]
    assert len(names) == len(set(names)), "duplicate rule names"
    assert all(r.contract for r in RULE_CATALOG)


def test_verdict_differential_trips(study_results):
    def break_used_direct(result):
        destination = sorted(result.pinned_destinations)[0]
        result.verdicts[destination].used_direct = False

    corrupted = replace_result(
        study_results, ("android", "common"), break_used_direct
    )
    assert "verdict-differential" in violated(corrupted)


def test_verdict_partition_trips(study_results):
    def misfile_verdict(result):
        destination = sorted(result.verdicts)[0]
        result.verdicts[destination].destination = "evil.example"

    corrupted = replace_result(
        study_results, ("android", "common"), misfile_verdict
    )
    assert "verdict-partition" in violated(corrupted)


def test_capture_consistency_trips(study_results):
    def strip_direct_facts(result):
        pinned = sorted(result.pinned_destinations)[0]
        result.direct_facts = tuple(f for f in result.direct_facts if f.sni != pinned)

    corrupted = replace_result(
        study_results, ("ios", "popular"), strip_direct_facts
    )
    assert "capture-consistency" in violated(corrupted)


def test_duplicate_result_trips_membership(study_results):
    corrupted = fresh_results(study_results)
    dataset = corrupted.dynamic_results[("android", "random")]
    dataset.append(dataset[0])
    assert "dynamic-membership" in violated(corrupted)


def test_silently_missing_app_trips_ledger_exclusion(study_results):
    corrupted = fresh_results(study_results)
    corrupted.dynamic_results[("android", "random")].pop()
    assert "ledger-exclusion" in violated(corrupted)


def test_ledgered_app_is_a_legitimate_absence(study_results):
    corrupted = fresh_results(study_results)
    dropped = corrupted.dynamic_results[("android", "random")].pop()
    corrupted.failures = list(corrupted.failures) + [
        UnitFailure(
            app_id=dropped.app_id,
            phase="dynamic",
            platform="android",
            dataset="random",
            index=0,
            attempts=2,
            error="RuntimeError('device wedged')",
        )
    ]
    names = violated(corrupted)
    assert "ledger-exclusion" not in names


def test_circumvention_partition_trips(study_results):
    corrupted = fresh_results(study_results)
    circ = copy.deepcopy(corrupted.circumvention["android"][0])
    circ.bypassed_destinations.add("fabricated.example")
    corrupted.circumvention["android"] = [circ] + corrupted.circumvention[
        "android"
    ][1:]
    assert "circumvention-partition" in violated(corrupted)


def test_unswept_pinning_app_trips_coverage(study_results):
    corrupted = fresh_results(study_results)
    assert corrupted.circumvention["ios"], "need at least one iOS sweep"
    # Drop *every* sweep of one app: an app pinning in several datasets
    # is swept once per dataset, and any surviving entry would keep it
    # covered.
    target = corrupted.circumvention["ios"][-1].app_id
    corrupted.circumvention["ios"] = [
        c for c in corrupted.circumvention["ios"] if c.app_id != target
    ]
    assert "circumvention-coverage" in violated(corrupted)


def test_rerun_flag_outside_ios_common_trips(study_results):
    def misplace_flag(result):
        result.reran_with_wait = True

    corrupted = replace_result(
        study_results, ("android", "common"), misplace_flag
    )
    assert "ios-rerun" in violated(corrupted)


def test_stale_memo_trips_prevalence_margins(study_results):
    corrupted = fresh_results(study_results)
    # Poison the memo the tables consume: rendering would now disagree
    # with the raw results, which is precisely the silent-corruption
    # scenario the audit exists for.
    from repro.core.analysis.prevalence import PrevalenceCell

    cells = copy.deepcopy(study_results._prevalence_cells())
    key = ("android", "common")
    cells[key]["dynamic"] = PrevalenceCell(
        count=cells[key]["dynamic"].count + 3,
        total=cells[key]["dynamic"].total,
    )
    corrupted._cache["prevalence_cells"] = cells
    assert "prevalence-margins" in violated(corrupted)


def test_telemetry_ledger_trips_on_counter_drift(study_results):
    recorder = obs.Recorder()
    corrupted = fresh_results(study_results, telemetry=recorder)
    corrupted.failures = list(corrupted.failures) + [
        UnitFailure(
            app_id="app.phantom",
            phase="dynamic",
            platform="android",
            dataset="random",
            index=0,
            attempts=2,
            error="RuntimeError('ghost')",
        )
    ]
    assert "telemetry-ledger" in violated(corrupted)


def test_audit_counters_accumulate(study_results):
    recorder = obs.Recorder().install()
    try:
        run_invariants(study_results)
    finally:
        recorder.uninstall()
    assert recorder.counter_value("verify.rule.checked") == len(RULE_CATALOG)
    assert recorder.counter_value("verify.rule.violated") == 0


# -- audit_study / AuditReport ------------------------------------------------


def test_audit_study_clean_pass(study_results):
    report = audit_study(study_results)
    assert report.passed
    assert report.level == "standard"
    assert report.window_s == study_results.window_s
    assert report.determinism is None
    rendered = report.render()
    assert "Audit verdict: PASS" in rendered
    assert "OUT OF BAND" not in rendered


def test_audit_study_fails_on_corruption(study_results):
    def drop_pin(result):
        destination = sorted(result.pinned_destinations)[0]
        result.verdicts[destination].pinned = False

    corrupted = replace_result(study_results, ("android", "common"), drop_pin)
    report = audit_study(corrupted)
    assert not report.passed
    assert report.oracle_failures
    assert "Audit verdict: FAIL" in report.render()


def test_audit_study_rejects_unknown_level(study_results):
    with pytest.raises(ValueError, match="unknown audit level"):
        audit_study(study_results, level="paranoid")
    assert AUDIT_LEVELS == ("standard", "deep")


def test_audit_json_round_trips_through_schema(study_results, tmp_path):
    import json

    report = audit_study(study_results)
    out = tmp_path / "audit.json"
    out.write_text(json.dumps(report.to_json_dict(), indent=2))
    validate_audit = load_tool("validate_audit")
    assert (
        validate_audit.main(
            [str(REPO / "schemas" / "audit_report.schema.json"), str(out),
             "--require-pass"]
        )
        == 0
    )


def test_validate_audit_require_pass_fails_failed_audit(
    study_results, tmp_path
):
    import json

    def drop_pin(result):
        destination = sorted(result.pinned_destinations)[0]
        result.verdicts[destination].pinned = False

    corrupted = replace_result(study_results, ("ios", "common"), drop_pin)
    report = audit_study(corrupted)
    out = tmp_path / "audit.json"
    out.write_text(json.dumps(report.to_json_dict(), indent=2))
    validate_audit = load_tool("validate_audit")
    schema = str(REPO / "schemas" / "audit_report.schema.json")
    # Shape is still valid...
    assert validate_audit.main([schema, str(out)]) == 0
    # ...but --require-pass must reject the failed verdict.
    assert validate_audit.main([schema, str(out), "--require-pass"]) == 1


def test_study_digest_is_stable_and_sensitive(study_results):
    baseline = study_digest(study_results)
    assert baseline == study_digest(study_results)

    corrupted = fresh_results(study_results)
    corrupted.dynamic_results[("android", "random")].pop()
    assert study_digest(corrupted) != baseline


def _replace_static_report(results, key, mutate):
    """Deep-copy one dataset's first static report, apply ``mutate``,
    and return fresh results containing it."""
    out = fresh_results(results)
    reports = out.static_reports[key]
    mutated = copy.deepcopy(reports[0])
    mutate(mutated)
    reports[0] = mutated
    return out


def test_static_decryption_tool_trips_on_empty_tool(study_results):
    def blank_tool(report):
        report.decryption_tool = ""

    corrupted = _replace_static_report(
        study_results, ("android", "common"), blank_tool
    )
    assert "static-decryption-tool" in violated(corrupted)


def test_static_decryption_tool_trips_on_foreign_tool(study_results):
    def android_tool_on_ios(report):
        report.decryption_tool = "apktool-sim"

    corrupted = _replace_static_report(
        study_results, ("ios", "common"), android_tool_on_ios
    )
    assert "static-decryption-tool" in violated(corrupted)
