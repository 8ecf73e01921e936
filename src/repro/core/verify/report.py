"""Audit orchestration and the :class:`AuditReport` artefact.

:func:`audit_study` is the verification layer's one entry point: it runs
the ground-truth oracle and the invariant auditor over a completed
:class:`~repro.core.analysis.study.StudyResults` and returns an
:class:`AuditReport` — renderable as tables (for humans), serialisable
as JSON (for CI, validated by ``schemas/audit_report.schema.json``).

At ``level="deep"`` the audit additionally re-executes the study
serially from the same corpus and compares every rendered table byte for
byte — the determinism contract that resumed and warm-store runs must
also meet (CI exercises those variants directly; the deep audit makes
the serial baseline self-checking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.verify.invariants import RuleResult, run_invariants
from repro.core.verify.oracle import OracleScore, ToleranceBand, run_oracle
from repro.reporting.tables import Table
from repro.util.digest import sha256

AUDIT_LEVELS = ("standard", "deep")


@dataclass
class DeterminismCheck:
    """Outcome of the deep audit's serial re-execution."""

    baseline_digest: str
    rerun_digest: str

    @property
    def passed(self) -> bool:
        return self.baseline_digest == self.rerun_digest


@dataclass
class AuditReport:
    """Everything one audit pass established."""

    level: str
    window_s: float
    oracle_scores: List[OracleScore] = field(default_factory=list)
    rule_results: List[RuleResult] = field(default_factory=list)
    determinism: Optional[DeterminismCheck] = None

    @property
    def invariant_violations(self) -> List:
        return [
            violation
            for result in self.rule_results
            for violation in result.violations
        ]

    @property
    def oracle_failures(self) -> List[OracleScore]:
        return [s for s in self.oracle_scores if not s.passed]

    @property
    def passed(self) -> bool:
        return (
            not self.invariant_violations
            and not self.oracle_failures
            and (self.determinism is None or self.determinism.passed)
        )

    # -- rendering ------------------------------------------------------------

    def oracle_table(self) -> Table:
        table = Table(
            title="Audit: detector scores vs corpus ground truth",
            headers=[
                "Detector",
                "Platform",
                "TP",
                "FP",
                "FN",
                "Precision",
                "Recall",
                "F1",
                "Band (P/R/F1)",
                "Verdict",
            ],
        )
        for entry in self.oracle_scores:
            score, band = entry.score, entry.band
            table.add_row(
                entry.detector,
                entry.platform,
                score.true_positives,
                score.false_positives,
                score.false_negatives,
                f"{score.precision:.4f}",
                f"{score.recall:.4f}",
                f"{score.f1:.4f}",
                f"{band.min_precision:.2f}/{band.min_recall:.2f}"
                f"/{band.min_f1:.2f}",
                "ok" if entry.passed else "OUT OF BAND",
            )
        return table

    def invariant_table(self) -> Table:
        table = Table(
            title="Audit: StudyResults invariants",
            headers=["Rule", "Contract", "Violations", "Verdict"],
        )
        for result in self.rule_results:
            table.add_row(
                result.name,
                result.contract,
                len(result.violations),
                "ok" if result.passed else "VIOLATED",
            )
        return table

    def render(self) -> str:
        lines = [self.oracle_table().render(), "", self.invariant_table().render()]
        for violation in self.invariant_violations:
            lines.append(f"  !! {violation.describe()}")
        if self.determinism is not None:
            state = "ok" if self.determinism.passed else "MISMATCH"
            lines.append("")
            lines.append(
                f"Determinism (serial re-run digest): {state} "
                f"[{self.determinism.baseline_digest[:16]} vs "
                f"{self.determinism.rerun_digest[:16]}]"
            )
        lines.append("")
        lines.append(f"Audit verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    # -- serialisation --------------------------------------------------------

    def to_json_dict(self) -> Dict:
        return {
            "level": self.level,
            "window_s": self.window_s,
            "passed": self.passed,
            "oracle": [
                {
                    "detector": s.detector,
                    "platform": s.platform,
                    "true_positives": s.score.true_positives,
                    "false_positives": s.score.false_positives,
                    "false_negatives": s.score.false_negatives,
                    "precision": s.score.precision,
                    "recall": s.score.recall,
                    "f1": s.score.f1,
                    "band": {
                        "min_precision": s.band.min_precision,
                        "min_recall": s.band.min_recall,
                        "min_f1": s.band.min_f1,
                    },
                    "passed": s.passed,
                    "violations": list(s.violations),
                }
                for s in self.oracle_scores
            ],
            "invariants": [
                {
                    "rule": r.name,
                    "contract": r.contract,
                    "passed": r.passed,
                    "violations": [
                        {
                            "subject": v.subject,
                            "detail": v.detail,
                        }
                        for v in r.violations
                    ],
                }
                for r in self.rule_results
            ],
            "determinism": (
                None
                if self.determinism is None
                else {
                    "baseline_digest": self.determinism.baseline_digest,
                    "rerun_digest": self.determinism.rerun_digest,
                    "passed": self.determinism.passed,
                }
            ),
        }


def study_digest(results) -> str:
    """SHA-256 over every rendered table/figure — the byte-identity key
    the determinism contract is stated in (what ``repro study`` prints)."""
    renderings: List[str] = []
    for name in (
        "table1", "table2", "table3", "table4", "table5", "table6",
        "table7", "table8", "table9", "figure2", "figure3", "figure5",
    ):
        renderings.append(getattr(results, name)().render())
    figure4a, figure4b = results.figure4()
    renderings.append(figure4a.render())
    renderings.append(figure4b.render())
    for platform in ("android", "ios"):
        renderings.append(f"{platform}:{results.circumvention_rate(platform):.6f}")
    renderings.extend(results.error_ledger())
    payload = "\n\x1e\n".join(renderings).encode("utf-8")
    return sha256(payload).hexdigest()


def _determinism_check(results) -> DeterminismCheck:
    """Re-run the study serially from the same corpus and compare digests."""
    from repro.core import obs
    from repro.core.analysis.study import Study

    baseline = study_digest(results)
    # Detach any active recorder for the duration: the audited run's
    # telemetry must describe that run alone, not absorb the re-run's
    # spans and counters (which would, e.g., double the abandonment
    # counter the telemetry-ledger invariant reconciles).
    active = obs.get_recorder()
    obs.set_recorder(None)
    try:
        rerun_results = Study(
            results.corpus, sleep_s=results_window(results)
        ).run()
    finally:
        obs.set_recorder(active)
    return DeterminismCheck(
        baseline_digest=baseline, rerun_digest=study_digest(rerun_results)
    )


def results_window(results) -> float:
    """Best-effort capture window of a results object (default 30 s)."""
    window = getattr(results, "window_s", None)
    return float(window) if window else 30.0


def audit_study(
    results,
    level: str = "standard",
    window_s: Optional[float] = None,
    bands: Optional[Dict[str, ToleranceBand]] = None,
) -> AuditReport:
    """Audit one completed study run.

    Args:
        results: the :class:`StudyResults` to audit.
        level: ``"standard"`` (oracle + invariants) or ``"deep"`` (adds
            the serial re-execution determinism check).
        window_s: the run's capture window; defaults to the window
            recorded on the results (or 30 s).
        bands: per-detector tolerance overrides.

    Raises:
        ValueError: for an unknown level.
    """
    if level not in AUDIT_LEVELS:
        raise ValueError(
            f"unknown audit level {level!r}; expected one of {AUDIT_LEVELS}"
        )
    if window_s is None:
        window_s = results_window(results)
    report = AuditReport(level=level, window_s=window_s)
    report.oracle_scores = run_oracle(results, window_s=window_s, bands=bands)
    report.rule_results = run_invariants(results)
    if level == "deep":
        report.determinism = _determinism_check(results)
    return report
