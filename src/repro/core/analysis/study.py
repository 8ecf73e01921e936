"""The end-to-end study orchestrator.

:class:`Study` runs the full measurement over a corpus — static analysis,
the two-setting dynamic experiments (with the Common-iOS re-run),
circumvention and PII analysis — and :class:`StudyResults` exposes one
method per paper table/figure.
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core import obs as obs_mod
from repro.core.analysis import categories as categories_mod
from repro.core.analysis import certificates as certificates_mod
from repro.core.analysis import consistency as consistency_mod
from repro.core.analysis import destinations as destinations_mod
from repro.core.analysis import frameworks as frameworks_mod
from repro.core.analysis import pii_analysis as pii_mod
from repro.core.analysis import prevalence as prevalence_mod
from repro.core.analysis import security as security_mod
from repro.core.circumvent.pipeline import (
    CircumventionPipeline,
    CircumventionResult,
)
from repro.core.dynamic.pipeline import DynamicAppResult, DynamicPipeline
from repro.core.exec import (
    ExecutionEngine,
    ExecutionPlan,
    ResultStore,
    UnitFailure,
)
from repro.core.pii.compare import PIIComparison
from repro.core.static.pipeline import StaticPipeline
from repro.core.static.report import StaticAppReport
from repro.corpus.datasets import AppCorpus, DatasetKey
from repro.reporting.tables import Table


@dataclass
class StudyResults:
    """Everything a full study run produced."""

    corpus: AppCorpus
    static_reports: Dict[DatasetKey, List[StaticAppReport]]
    dynamic_results: Dict[DatasetKey, List[DynamicAppResult]]
    circumvention: Dict[str, List[CircumventionResult]]
    pii: Dict[str, PIIComparison]
    #: The error ledger: apps the engine abandoned after retry and
    #: quarantine.  Empty for a trouble-free run; a non-empty ledger means
    #: every other field holds *partial* results that exclude exactly
    #: these apps.
    failures: List[UnitFailure] = field(default_factory=list)
    #: The capture window the run used (``Study.sleep_s``); the audit
    #: layer needs it to derive dynamic ground truth.
    window_s: float = 30.0
    #: The telemetry recorder the run was instrumented with, or None when
    #: telemetry was off.  Excluded from comparison: two runs with the
    #: same inputs produce equal results whether or not either was
    #: observed.
    telemetry: Optional["obs_mod.Recorder"] = field(
        default=None, repr=False, compare=False
    )
    #: The audit report attached by ``Study.run(audit=...)``, or None
    #: when the run was not audited.  Excluded from comparison like the
    #: recorder: auditing never perturbs results.
    audit: Optional[object] = field(default=None, repr=False, compare=False)
    #: Memoized derived views.  Every table method funnels through a small
    #: set of expensive aggregations (prevalence cells, pair
    #: classifications, per-app indexes); rendering all tables repeatedly
    #: must compute each aggregation once.  The inputs above are never
    #: mutated after construction, so the memos cannot go stale.
    _cache: Dict[object, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- lookup helpers -------------------------------------------------------

    def dynamic_by_app(self, platform: str) -> Dict[str, DynamicAppResult]:
        """Per-app dynamic results for one platform (cached; treat the
        returned dict as read-only — callers share one instance).

        An app sampled into more than one dataset has one result per
        dataset.  Precedence is the sorted dataset order — ``common`` <
        ``popular`` < ``random``, first wins — which keeps the iOS
        Common 120 s re-run results authoritative for pair apps.  Each
        shadowed duplicate bumps the ``study.dynamic_by_app.shadowed``
        counter, and a duplicate whose pinned destinations *differ* from
        the winner's additionally warns: that is a cross-dataset
        measurement inconsistency worth a human look, not just
        redundancy.
        """

        def compute() -> Dict[str, DynamicAppResult]:
            out: Dict[str, DynamicAppResult] = {}
            for (plat, _), results in sorted(self.dynamic_results.items()):
                if plat != platform:
                    continue
                for result in results:
                    winner = out.setdefault(result.app_id, result)
                    if winner is result:
                        continue
                    obs_mod.count("study.dynamic_by_app.shadowed")
                    if winner.pinned_destinations != result.pinned_destinations:
                        warnings.warn(
                            f"dynamic results for {platform} app "
                            f"{result.app_id!r} disagree across datasets: "
                            f"keeping pinned={sorted(winner.pinned_destinations)}, "
                            f"shadowing pinned={sorted(result.pinned_destinations)}",
                            stacklevel=2,
                        )
            return out

        return self._memo(("dynamic_by_app", platform), compute)

    def static_by_app(self, platform: str) -> Dict[str, StaticAppReport]:
        """Per-app static reports for one platform (cached; treat the
        returned dict as read-only — callers share one instance).

        Duplicate-app precedence matches :meth:`dynamic_by_app`:
        sorted dataset order, first occurrence wins.  Shadowed
        duplicates bump ``study.static_by_app.shadowed`` and warn when
        the shadowed report's findings differ from the winner's.
        """

        def compute() -> Dict[str, StaticAppReport]:
            out: Dict[str, StaticAppReport] = {}
            for (plat, _), reports in sorted(self.static_reports.items()):
                if plat != platform:
                    continue
                for report in reports:
                    winner = out.setdefault(report.app_id, report)
                    if winner is report:
                        continue
                    obs_mod.count("study.static_by_app.shadowed")
                    if (
                        bool(winner.embedded_material)
                        != bool(report.embedded_material)
                        or bool(winner.nsc_pins) != bool(report.nsc_pins)
                    ):
                        warnings.warn(
                            f"static reports for {platform} app "
                            f"{report.app_id!r} disagree across datasets: "
                            f"keeping (material={bool(winner.embedded_material)}, "
                            f"nsc={bool(winner.nsc_pins)}), shadowing "
                            f"(material={bool(report.embedded_material)}, "
                            f"nsc={bool(report.nsc_pins)})",
                            stacklevel=2,
                        )
            return out

        return self._memo(("static_by_app", platform), compute)

    def all_dynamic(self, platform: str) -> List[DynamicAppResult]:
        return list(self.dynamic_by_app(platform).values())

    def error_ledger(self) -> List[str]:
        """Human-readable ledger lines, one per abandoned app."""
        return [failure.describe() for failure in self.failures]

    def telemetry_table(self) -> Optional[Table]:
        """Summary of recorded telemetry, or None when the run was not
        instrumented (pass ``recorder=`` to :meth:`Study.run`)."""
        if self.telemetry is None:
            return None
        return self.telemetry.summary_table()

    def pair_classifications(
        self,
    ) -> List[Tuple[str, consistency_mod.ConsistencyClassification]]:
        """Classify every Common pair (Section 5.1); computed once."""

        def compute():
            android_results = {
                r.app_id: r for r in self.dynamic_results[("android", "common")]
            }
            ios_results = {
                r.app_id: r for r in self.dynamic_results[("ios", "common")]
            }
            named = []
            for android_pkg, ios_pkg in self.corpus.common_pairs():
                a = android_results.get(android_pkg.app.app_id)
                i = ios_results.get(ios_pkg.app.app_id)
                if a is None or i is None:
                    continue
                obs = consistency_mod.PairObservation.from_results(a, i)
                named.append(
                    (android_pkg.app.name, consistency_mod.classify_pair(obs))
                )
            return named

        return self._memo("pair_classifications", compute)

    # -- tables -----------------------------------------------------------------

    def _prevalence_cells(self):
        """Per-dataset prevalence aggregation (cached: tables 2 and 3 both
        consume it, and each render must not recompute it)."""

        def compute():
            cells = {}
            for key in self.static_reports:
                cells[key] = prevalence_mod.dataset_prevalence(
                    self.static_reports[key], self.dynamic_results[key]
                )
            return cells

        return self._memo("prevalence_cells", compute)

    def table1(self) -> Table:
        return categories_mod.dataset_category_table(self.corpus)

    def table2(self) -> Table:
        return prevalence_mod.prior_work_table(self._prevalence_cells())

    def table3(self) -> Table:
        return prevalence_mod.prevalence_table(self._prevalence_cells())

    def table4(self) -> Table:
        return categories_mod.category_pinning_table(
            self.corpus, "android", self.dynamic_by_app("android")
        )

    def table5(self) -> Table:
        return categories_mod.category_pinning_table(
            self.corpus, "ios", self.dynamic_by_app("ios")
        )

    def table6(self) -> Table:
        rows = [
            certificates_mod.classify_pinned_destinations(
                self.corpus, platform, self.all_dynamic(platform)
            )
            for platform in ("android", "ios")
        ]
        return certificates_mod.pki_table(rows)

    def table7(self) -> Table:
        return frameworks_mod.frameworks_table(
            self.static_by_app("android").values(),
            self.static_by_app("ios").values(),
        )

    def table8(self) -> Table:
        cells = {
            key: security_mod.analyze_ciphers(results)
            for key, results in self.dynamic_results.items()
        }
        return security_mod.cipher_table(cells)

    def table9(self) -> Table:
        return pii_mod.pii_table(
            [self.pii[p] for p in ("ios", "android") if p in self.pii]
        )

    # -- figures ----------------------------------------------------------------

    def figure2(self) -> Table:
        summary = consistency_mod.summarize_pairs(
            [c for _, c in self.pair_classifications()]
        )
        return consistency_mod.figure2_table(summary)

    def figure3(self) -> Table:
        return consistency_mod.figure3_table(self.pair_classifications())

    def figure4(self) -> Tuple[Table, Table]:
        return consistency_mod.figure4_tables(self.pair_classifications())

    def figure5(self) -> Table:
        return destinations_mod.figure5_table(self.destination_profiles())

    def destination_profiles(self):
        return destinations_mod.build_destination_profiles(
            self.corpus, self.dynamic_results
        )

    def circumvention_rate(self, platform: str) -> float:
        return CircumventionPipeline.destination_bypass_rate(
            self.circumvention.get(platform, [])
        )


class Study:
    """Run the full paper measurement over one corpus.

    Args:
        corpus: the generated app corpus.
        sleep_s: dynamic-run capture window.
        plan: how hard to fight per-app failures (retries,
            quarantine).  Results are identical for every plan (see
            :mod:`repro.core.exec`).
        fault_predicate: injectable per-app failure hook for
            fault-tolerance testing (see :mod:`repro.core.exec.faults`).
        detector: the dynamic pipeline's detector variant
            (``full`` / ``no-tls13`` / ``naive``) — the ``detect``
            stage's config knob, so under a result store a flip
            invalidates only detection and its downstream while the
            capture stages warm-start.
    """

    def __init__(
        self,
        corpus: AppCorpus,
        sleep_s: float = 30.0,
        plan: Optional[ExecutionPlan] = None,
        fault_predicate=None,
        detector: str = "full",
    ):
        self.corpus = corpus
        self.plan = plan or ExecutionPlan()
        self.sleep_s = sleep_s
        self.dynamic_pipeline = DynamicPipeline(
            corpus,
            sleep_s=sleep_s,
            fault_predicate=fault_predicate,
            detector=detector,
        )
        self.static_pipeline = StaticPipeline(
            corpus.registry, fault_predicate=fault_predicate
        )
        self.circumvention_pipeline = CircumventionPipeline(
            self.dynamic_pipeline, fault_predicate=fault_predicate
        )
        self.engine = ExecutionEngine(
            corpus,
            self.plan,
            sleep_s=sleep_s,
            pipelines=(
                self.static_pipeline,
                self.dynamic_pipeline,
                self.circumvention_pipeline,
            ),
            fault_predicate=fault_predicate,
        )

    def _rerun_ids(
        self,
        android: List[DynamicAppResult],
        ios: List[DynamicAppResult],
    ) -> set:
        """Common-iOS apps to re-measure with the 120 s wait (Section 4.5).

        The paper re-ran the Common apps that pinned *on either platform*,
        with a two-minute install-to-launch wait, and used those results
        for the iOS Common numbers.
        """
        android_by_id = {r.app_id: r for r in android}
        ios_by_id = {r.app_id: r for r in ios}
        rerun_ids = set()
        for android_pkg, ios_pkg in self.corpus.common_pairs():
            a = android_by_id.get(android_pkg.app.app_id)
            i = ios_by_id.get(ios_pkg.app.app_id)
            if (a is not None and a.pins()) or (i is not None and i.pins()):
                rerun_ids.add(ios_pkg.app.app_id)
        return rerun_ids

    def run(
        self,
        recorder: Optional["obs_mod.Recorder"] = None,
        store=None,
        audit: Union[bool, str] = False,
    ) -> StudyResults:
        """Execute every pipeline stage; deterministic for a given corpus
        and identical for every execution plan.

        Degrades gracefully: per-app failures are retried, quarantined,
        and — if they persist — recorded in ``StudyResults.failures``
        while every other app's results survive.  The surviving results
        are bit-for-bit what an untroubled run would have produced.

        Args:
            recorder: optional :class:`repro.core.obs.Recorder`.  When
                given, the run is instrumented — spans, counters and
                cache statistics accumulate in the recorder, and the
                recorder is attached to the results as
                ``StudyResults.telemetry``.  Results are
                bit-for-bit identical with or without a recorder.
            store: optional result-store directory (or a pre-built
                :class:`~repro.core.exec.resultstore.ResultStore`).
                Work units whose per-app results are already stored are
                composed from the store instead of recomputed; completed
                units are published back as they complete, so the store
                is also how an interrupted or partially failed run
                resumes.  A warm re-run with the same configuration
                recomputes nothing and still produces bit-for-bit
                identical results; any configuration change (seed,
                scale, capture window, code version) changes the
                fingerprints and invalidates cleanly.
            audit: run the ground-truth audit over the finished results
                and attach the report as ``StudyResults.audit``.  Pass
                ``True`` (or ``"standard"``) for the oracle + invariant
                pass, or ``"deep"`` to add the serial-re-run determinism
                check.  Auditing reads the results; it never changes
                them.

        Each unit's results are frozen out of the cyclic garbage
        collector as they land (:func:`gc.freeze`), each entry the store
        decodes as soon as it is decoded, and all are unfrozen when
        the run ends, even when it raises.  A caller that has frozen objects
        itself (``gc.get_freeze_count() > 0``) keeps its freeze: the run
        then neither freezes nor unfreezes.
        """
        if recorder is not None:
            self.engine.recorder = recorder
            recorder.install()
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store, self.corpus)
        self.engine.store = store
        self.engine.freeze_results = gc.get_freeze_count() == 0
        if store is not None:
            store.freeze_decoded = self.engine.freeze_results
        try:
            results = self._run()
            results.telemetry = recorder
            if audit:
                from repro.core.verify import audit_study

                level = "standard" if audit is True else audit
                with obs_mod.span("phase.audit", cat="study"):
                    results.audit = audit_study(results, level=level)
            return results
        finally:
            self.engine.store = None
            if store is not None:
                store.freeze_decoded = False
            if self.engine.freeze_results:
                self.engine.freeze_results = False
                gc.unfreeze()
            if recorder is not None:
                recorder.uninstall()
                self.engine.recorder = None

    def _run(self) -> StudyResults:
        corpus = self.corpus
        engine = self.engine
        ledger: List[UnitFailure] = []

        # Phase 1: every static scan and every initial dynamic pass is
        # independent per app — run them all as one batch.
        units: List = []
        owners: List[Tuple[str, DatasetKey]] = []
        for key in sorted(corpus.datasets):
            indices = range(len(corpus.dataset(*key)))
            for kind in ("static", "dynamic"):
                for unit in engine.units_for(kind, key, indices, 0.0):
                    units.append(unit)
                    owners.append((kind, key))
        with obs_mod.span("phase.static_dynamic", cat="study"):
            outcome = engine.execute(units)
        ledger.extend(outcome.failures)
        merged: Dict[Tuple[str, DatasetKey], list] = {}
        for owner, unit_result in zip(owners, outcome.unit_results):
            merged.setdefault(owner, []).extend(unit_result)

        static_reports: Dict[DatasetKey, List[StaticAppReport]] = {}
        dynamic_results: Dict[DatasetKey, List[DynamicAppResult]] = {}
        for key in sorted(corpus.datasets):
            static_reports[key] = merged.get(("static", key), [])
            dynamic_results[key] = merged.get(("dynamic", key), [])

        # Phase 2: the Common-iOS re-run, for apps the initial passes
        # found pinning on either platform.
        rerun_ids = self._rerun_ids(
            dynamic_results[("android", "common")],
            dynamic_results[("ios", "common")],
        )
        ios_common = dynamic_results[("ios", "common")]
        rerun_indices = [
            index
            for index, packaged in enumerate(corpus.dataset("ios", "common"))
            if packaged.app.app_id in rerun_ids
        ]
        with obs_mod.span("phase.ios_rerun", cat="study"):
            rerun_outcome = engine.map_dataset(
                "dynamic", ("ios", "common"), rerun_indices, 120.0
            )
        ledger.extend(rerun_outcome.failures)
        # Replace by app id, not position: with partial phase-1 results
        # the list no longer lines up with dataset indices.  A re-run of
        # an app whose initial pass failed is appended — the re-run is a
        # complete measurement, so this recovers the app.
        position_by_id = {r.app_id: i for i, r in enumerate(ios_common)}
        for result in rerun_outcome.items:
            position = position_by_id.get(result.app_id)
            if position is None:
                ios_common.append(result)
            else:
                ios_common[position] = result

        # Phase 3: circumvention sweeps over every app found pinning.
        # Workers receive only the pinned destination sets, not the full
        # dynamic results.
        circumvention: Dict[str, List[CircumventionResult]] = {
            "android": [],
            "ios": [],
        }
        with obs_mod.span("phase.circumvention", cat="study"):
            for (platform, dataset), results in sorted(
                dynamic_results.items()
            ):
                results_by_id = {r.app_id: r for r in results}
                indices: List[int] = []
                pinned_sets: List[Tuple[str, ...]] = []
                for index, packaged in enumerate(
                    corpus.dataset(platform, dataset)
                ):
                    result = results_by_id.get(packaged.app.app_id)
                    if result is None or not result.pins():
                        continue
                    indices.append(index)
                    pinned_sets.append(
                        tuple(sorted(result.pinned_destinations))
                    )
                circ_outcome = engine.map_dataset(
                    "circumvent", (platform, dataset), indices, pinned_sets
                )
                ledger.extend(circ_outcome.failures)
                circumvention[platform].extend(
                    circ for circ in circ_outcome.items if circ is not None
                )

        pii: Dict[str, PIIComparison] = {}
        with obs_mod.span("phase.pii", cat="study"):
            for platform in ("android", "ios"):
                all_results = []
                for (plat, _), results in sorted(dynamic_results.items()):
                    if plat == platform:
                        all_results.extend(results)
                pii[platform] = pii_mod.platform_pii_comparison(
                    platform, all_results, circumvention[platform]
                )

        return StudyResults(
            corpus=corpus,
            static_reports=static_reports,
            dynamic_results=dynamic_results,
            circumvention=circumvention,
            pii=pii,
            failures=ledger,
            window_s=self.sleep_s,
        )
