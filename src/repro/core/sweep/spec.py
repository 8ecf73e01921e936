"""Declarative sweep grids: which study configurations to run.

A :class:`SweepSpec` names the axes of a scenario matrix — corpus seeds,
corpus scales, fault-injection rates, detector ablations — and
:meth:`SweepSpec.expand` turns it into the deterministic list of
:class:`SweepPoint` configurations the engine executes.  Specs come from
CLI flags (``repro sweep --sweep-seeds 2022,2023 ...``) or from a small
JSON/TOML file (:meth:`SweepSpec.load`), so a study fleet is one checked-in
document rather than a hand-rolled shell loop.

Axis semantics:

* ``seeds`` / ``scales`` change the corpus itself — every per-app
  fingerprint differs, so these points never share result-store entries.
* ``detectors`` are *analysis-side* ablations re-run over the captures a
  sibling point already produced (:mod:`repro.core.sweep.ablation`), so
  they share **every** pipeline unit with their full-detector sibling.
* ``fault_rates`` inject per-app failures; a faulted point runs without
  the shared store (a store hit would bypass the injection site, making
  the fault test vacuous).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

#: The detector ablations a sweep may request (see
#: :func:`repro.core.sweep.ablation.apply_detector_ablation`).
DETECTORS: Tuple[str, ...] = ("full", "no-tls13", "naive")


@dataclass(frozen=True)
class SweepPoint:
    """One fully specified study configuration inside a sweep."""

    seed: int
    scale: float
    fault_rate: float = 0.0
    detector: str = "full"

    def label(self) -> str:
        """Human-readable one-liner for tables and progress output."""
        return (
            f"seed={self.seed} scale={self.scale:g} "
            f"faults={self.fault_rate:g} detector={self.detector}"
        )

    def slug(self) -> str:
        """Filesystem-safe identifier for per-point file names."""
        return (
            f"seed{self.seed}-scale{self.scale:g}-fault{self.fault_rate:g}"
            f"-{self.detector}"
        ).replace(".", "p")

    def group_label(self) -> str:
        """The point's configuration *excluding the seed* — the grouping
        key for cross-seed stability aggregation."""
        return (
            f"scale={self.scale:g} faults={self.fault_rate:g} "
            f"detector={self.detector}"
        )

    def config_dict(self) -> dict:
        return {
            "seed": self.seed,
            "scale": self.scale,
            "fault_rate": self.fault_rate,
            "detector": self.detector,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid sweep spec: {message}")


@dataclass(frozen=True)
class SweepSpec:
    """The axes of a scenario matrix; expansion is their cross product."""

    seeds: Tuple[int, ...]
    scales: Tuple[float, ...]
    fault_rates: Tuple[float, ...] = (0.0,)
    detectors: Tuple[str, ...] = ("full",)

    def __post_init__(self):
        _require(len(self.seeds) > 0, "seeds must be non-empty")
        _require(len(self.scales) > 0, "scales must be non-empty")
        _require(len(self.fault_rates) > 0, "fault_rates must be non-empty")
        _require(len(self.detectors) > 0, "detectors must be non-empty")
        for seed in self.seeds:
            _require(
                isinstance(seed, int) and not isinstance(seed, bool),
                f"seed {seed!r} is not an integer",
            )
        for scale in self.scales:
            _require(
                isinstance(scale, (int, float)) and scale > 0,
                f"scale {scale!r} is not a positive number",
            )
        for rate in self.fault_rates:
            _require(
                isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0,
                f"fault rate {rate!r} is not in [0, 1]",
            )
        for detector in self.detectors:
            _require(
                detector in DETECTORS,
                f"detector {detector!r} is not one of {DETECTORS}",
            )
        # Duplicate axis values would silently run (and aggregate) the
        # same configuration twice, skewing stability statistics.
        for name in ("seeds", "scales", "fault_rates", "detectors"):
            values = getattr(self, name)
            _require(
                len(set(values)) == len(values),
                f"{name} contains duplicates: {values}",
            )

    def expand(self) -> List[SweepPoint]:
        """The deterministic point list: axes iterate in declaration
        order, seeds varying fastest so cross-seed siblings are adjacent.

        Ordering matters for warm-starting too: for each configuration
        group the ``full`` detector (when listed) runs before its
        ablated siblings, so the siblings find the store populated.
        """
        detectors = sorted(self.detectors, key=lambda d: (d != "full", DETECTORS.index(d)))
        return [
            SweepPoint(
                seed=seed,
                scale=float(scale),
                fault_rate=float(rate),
                detector=detector,
            )
            for rate in self.fault_rates
            for scale in self.scales
            for detector in detectors
            for seed in self.seeds
        ]

    def axes_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "scales": list(self.scales),
            "fault_rates": list(self.fault_rates),
            "detectors": list(self.detectors),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Sequence]) -> "SweepSpec":
        """Build a spec from a parsed JSON/TOML mapping (validating)."""
        _require(isinstance(data, dict), "spec document must be a mapping")
        known = {"seeds", "scales", "fault_rates", "detectors"}
        unknown = set(data) - known
        _require(not unknown, f"unknown keys {sorted(unknown)}")
        _require("seeds" in data, "'seeds' is required")
        _require("scales" in data, "'scales' is required")
        kwargs = {}
        for key in known & set(data):
            value = data[key]
            _require(
                isinstance(value, (list, tuple)),
                f"{key} must be a list, got {type(value).__name__}",
            )
            kwargs[key] = tuple(value)
        return cls(**kwargs)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a spec from a ``.json`` or ``.toml`` file.

        TOML needs the stdlib ``tomllib`` (Python 3.11+); on older
        interpreters a ``.toml`` spec raises with a pointer to the JSON
        equivalent rather than failing on a missing import.
        """
        path = Path(path)
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError:
                raise ValueError(
                    f"{path}: TOML specs need Python 3.11+ (tomllib); "
                    "use the JSON form instead"
                )
            with open(path, "rb") as fh:
                return cls.from_dict(tomllib.load(fh))
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
