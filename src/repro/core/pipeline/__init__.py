"""Declarative stage graphs: the pipelines' shared execution skeleton.

The three measurement pipelines (static, dynamic, circumvention) are
declarative :class:`~repro.core.pipeline.graph.StageGraph` definitions
over their existing stage functions.  The graph owns everything that
used to be hand-placed per pipeline — per-stage telemetry spans,
per-stage fault-injection points, content-addressed artifact
fingerprints, and the partial-recomputation walk a stage-granular result
cache enables (DESIGN.md §15).
"""

from repro.core.pipeline.graph import (
    SEED_ARTIFACTS,
    Artifact,
    Stage,
    StageGraph,
)

__all__ = [
    "Artifact",
    "SEED_ARTIFACTS",
    "Stage",
    "StageGraph",
]
