"""The sweep executor: one `Study` run per grid point, shared caching.

:class:`SweepEngine` expands a :class:`~repro.core.sweep.spec.SweepSpec`
and runs each point through the ordinary
:class:`~repro.core.analysis.Study` machinery — same engine, same plans,
same determinism contract — with the sweep-level glue this module owns:

* **Shared result store.**  All non-faulted points run against one
  content-addressed store directory.  Corpus fingerprints already key
  every entry, so seed/scale points coexist safely, and points that
  differ only in analysis-side knobs (detector ablation) warm-start
  from their siblings' entries.
  Fault-injected points run store-less: a store hit short-circuits the
  per-app pipeline *before* the injection site, so serving cached
  results would silently turn the fault test into a no-op.
* **Corpus reuse.**  Generation is deterministic per ``(seed, scale)``,
  so the engine builds each corpus once and shares it across the points
  that need it.
* **Telemetry merging.**  Every point runs with its own recorder; after
  the run it is drained into one sweep-level recorder
  (:meth:`~repro.core.obs.Recorder.merge_from`), giving the sweep a
  single merged metrics document alongside optional per-point exports.
* **Detector ablations.**  A point's ``detector`` is re-applied to the
  captures its run already holds, not re-run: the dynamic graph's
  ``rederive`` recomputes only the ``detect`` stage of each app
  (DESIGN.md §15), so an ablated point shares every pipeline unit with
  its full-detector sibling.  Only the detection-derived views change
  (verdicts, and with them prevalence, consistency and detector
  scoring); circumvention and PII were measured against the full
  detector's pinned sets and are carried over (DESIGN.md §13).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core import obs
from repro.core.analysis import Study
from repro.core.analysis.study import StudyResults
from repro.core.dynamic.pipeline import DYNAMIC_GRAPH
from repro.core.exec import CorpusStore, ResultStore, SeededFaults
from repro.core.sweep.spec import SweepPoint, SweepSpec
from repro.corpus import CorpusConfig, CorpusGenerator


def _redetected(results: StudyResults, detector: str) -> StudyResults:
    """A new :class:`StudyResults` whose verdicts come from ``detector``
    over the same captures; ``results`` is left as it was."""
    with obs.span("sweep.ablation", cat="sweep", detector=detector):
        dynamic = {
            key: [
                DYNAMIC_GRAPH.rederive(
                    SimpleNamespace(detector=detector),
                    seeds={
                        "packaged": None,
                        "app_id": result.app_id,
                        "platform": result.platform,
                    },
                    result=result,
                    dirty={"detect"},
                    params={
                        "wait": 120.0 if result.reran_with_wait else 0.0,
                        "interact": False,
                    },
                )
                for result in dataset_results
            ]
            for key, dataset_results in results.dynamic_results.items()
        }
        obs.count("sweep.ablation.redetected", sum(map(len, dynamic.values())))
    return StudyResults(
        corpus=results.corpus,
        static_reports=results.static_reports,
        dynamic_results=dynamic,
        circumvention=results.circumvention,
        pii=results.pii,
        failures=results.failures,
        window_s=results.window_s,
        telemetry=results.telemetry,
        audit=results.audit,
    )


@dataclass
class SweepPointResult:
    """What one executed grid point contributes to the sweep report."""

    point: SweepPoint
    findings: Dict[str, Optional[float]]
    failures: int = 0
    elapsed_s: float = 0.0
    #: Store lookup tallies for this point, or ``None`` when the point
    #: ran store-less (no shared store, or fault injection active).
    store_hits: Optional[int] = None
    store_misses: Optional[int] = None
    #: The audit verdict, or ``None`` when auditing was off.
    audit_passed: Optional[bool] = None

    @property
    def store_hit_rate(self) -> Optional[float]:
        if self.store_hits is None or self.store_misses is None:
            return None
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else None

    def to_json_dict(self) -> dict:
        store = None
        if self.store_hits is not None:
            store = {
                "hits": self.store_hits,
                "misses": self.store_misses,
                "hit_rate": self.store_hit_rate,
            }
        return {
            "config": self.point.config_dict(),
            "findings": dict(self.findings),
            "failures": self.failures,
            "elapsed_s": self.elapsed_s,
            "store": store,
            "audit_passed": self.audit_passed,
        }


class SweepEngine:
    """Execute a sweep spec point by point.

    Args:
        spec: the grid to expand and run.
        sleep_s: dynamic capture window, shared by every point (it enters
            store fingerprints, so sweeping it would defeat sharing).
        store_dir: optional shared result-store directory.  Cold points
            populate it; warm siblings reuse it (see the module
            docstring for the fault-injection exception).  Each
            ``(seed, scale)`` corpus is read from it too, or generated
            and kept there.
        audit: ``False``, ``"standard"`` or ``"deep"`` — passed through
            to :meth:`Study.run` for every point.
        fault_seed: seed for the fault-injection predicate of points
            with a non-zero fault rate.
        metrics_dir: optional directory for per-point metrics JSON
            (``point-<index>.json``), written before the point's
            telemetry is merged into the sweep aggregate.
        progress: optional callable for per-point progress lines.
    """

    def __init__(
        self,
        spec: SweepSpec,
        sleep_s: float = 30.0,
        store_dir: Optional[str] = None,
        audit: Union[bool, str] = False,
        fault_seed: int = 0,
        metrics_dir: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.spec = spec
        self.sleep_s = sleep_s
        self.store_dir = store_dir
        self.audit = audit
        self.fault_seed = fault_seed
        self.metrics_dir = metrics_dir
        self.progress = progress or (lambda line: None)
        self._corpora: Dict[Tuple[int, float], object] = {}

    def _corpus(self, seed: int, scale: float):
        key = (seed, scale)
        if key not in self._corpora:
            config = CorpusConfig(seed=seed)
            if scale != 1.0:
                config = config.scaled(scale)
            store = CorpusStore(self.store_dir) if self.store_dir is not None else None
            with obs.span("sweep.corpus", cat="sweep", seed=seed, scale=scale):
                self._corpora[key] = CorpusGenerator(config).generate(store)
        else:
            obs.count("sweep.corpus.reused")
        return self._corpora[key]

    def _run_point(
        self, index: int, point: SweepPoint, sweep_recorder: "obs.Recorder"
    ) -> SweepPointResult:
        corpus = self._corpus(point.seed, point.scale)
        recorder = obs.Recorder()
        faults = (
            SeededFaults(point.fault_rate, seed=self.fault_seed)
            if point.fault_rate > 0
            else None
        )
        store = None
        if self.store_dir is not None and faults is None:
            store = ResultStore(self.store_dir, corpus, sleep_s=self.sleep_s)

        study = Study(
            corpus,
            sleep_s=self.sleep_s,
            fault_predicate=faults,
        )
        stopwatch = obs.Stopwatch()
        results = study.run(recorder=recorder, store=store, audit=self.audit)
        # Study.run uninstalled the recorder; re-install it so the
        # analysis-side ablation and finding extraction are observed too.
        recorder.install()
        try:
            ablated = results if point.detector == "full" else _redetected(results, point.detector)
            with obs.span("sweep.findings", cat="sweep"):
                findings = ablated.headline_findings()
        finally:
            recorder.uninstall()
        elapsed = stopwatch.elapsed()

        if self.metrics_dir is not None:
            os.makedirs(self.metrics_dir, exist_ok=True)
            recorder.write_metrics(os.path.join(self.metrics_dir, f"point-{index:02d}.json"))
        # The point's recorder dissolves into the sweep aggregate so
        # cross-configuration totals come from one merged document.
        sweep_recorder.merge_from(recorder)

        return SweepPointResult(
            point=point,
            findings=findings,
            failures=len(results.failures),
            elapsed_s=elapsed,
            store_hits=store.stats.unit_hits if store is not None else None,
            store_misses=(
                store.stats.unit_misses if store is not None else None
            ),
            audit_passed=(
                results.audit.passed if results.audit is not None else None
            ),
        )

    def run(self) -> "SweepResults":
        """Run every point; always returns a complete `SweepResults`."""
        from repro.core.sweep.report import SweepResults

        points = self.spec.expand()
        telemetry = obs.Recorder()
        results: List[SweepPointResult] = []
        for index, point in enumerate(points):
            self.progress(f"[{index + 1}/{len(points)}] {point.label()}")
            result = self._run_point(index, point, telemetry)
            results.append(result)
            detail = f"{result.elapsed_s:.1f}s, {result.failures} failure(s)"
            if result.store_hit_rate is not None:
                detail += f", store hit rate {result.store_hit_rate:.0%}"
            self.progress(f"    done in {detail}")
        return SweepResults(spec=self.spec, points=results, telemetry=telemetry)
