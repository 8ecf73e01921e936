"""Scenario sweeps: run a grid of study configurations and compare.

One reproduction run is a point estimate; the sweep layer turns the repo
into a study fleet.  :class:`~repro.core.sweep.spec.SweepSpec` declares a
grid (seeds × scales × fault rates × detector ablations),
:class:`~repro.core.sweep.engine.SweepEngine` executes every
point through the ordinary :class:`~repro.core.analysis.Study` machinery
with a shared content-addressed result store (warm-starting points that
differ only in analysis-side knobs), and
:class:`~repro.core.sweep.report.SweepResults` aggregates the headline
findings into cross-seed stability tables plus a schema-validated JSON
report.  Surfaced on the CLI as ``repro sweep``.
"""

from repro.core.sweep.ablation import apply_detector_ablation
from repro.core.sweep.engine import SweepEngine, SweepPointResult
from repro.core.sweep.report import FindingStability, SweepResults
from repro.core.sweep.spec import DETECTORS, SweepPoint, SweepSpec

__all__ = [
    "DETECTORS",
    "FindingStability",
    "SweepEngine",
    "SweepPoint",
    "SweepPointResult",
    "SweepResults",
    "SweepSpec",
    "apply_detector_ablation",
]
