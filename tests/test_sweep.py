"""Tests for the scenario-sweep layer: spec, engine, ablation, report.

The executed-sweep tests share one module-scoped run of a small grid
(2 seeds × {full, naive} detectors over a tiny corpus) with a shared
result store — enough to exercise expansion order, warm-starting,
ablation effects, stability aggregation and the JSON report shape
without re-running studies per test.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.sweep import (
    DETECTORS,
    FindingStability,
    SweepEngine,
    SweepPoint,
    SweepPointResult,
    SweepResults,
    SweepSpec,
    apply_detector_ablation,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SWEEP_SCALE = 0.04


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_telemetry", REPO_ROOT / "tools" / "validate_telemetry.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSpec:
    def test_expansion_is_the_cross_product(self):
        spec = SweepSpec(
            seeds=(1, 2), scales=(0.05, 0.1), fault_rates=(0.0, 0.2)
        )
        points = spec.expand()
        assert len(points) == 8
        assert len(set(points)) == 8

    def test_seeds_vary_fastest(self):
        spec = SweepSpec(seeds=(1, 2), scales=(0.05, 0.1))
        points = spec.expand()
        assert [(p.scale, p.seed) for p in points] == [
            (0.05, 1),
            (0.05, 2),
            (0.1, 1),
            (0.1, 2),
        ]

    def test_full_detector_runs_before_its_ablated_siblings(self):
        """Ordering is a warm-start property: the full point must
        populate the store before ablated siblings look it up."""
        spec = SweepSpec(
            seeds=(1,), scales=(0.05,), detectors=("naive", "full")
        )
        assert [p.detector for p in spec.expand()] == ["full", "naive"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seeds": ()},
            {"seeds": (1.5,)},
            {"seeds": (True,)},
            {"scales": (0,)},
            {"scales": (-0.1,)},
            {"fault_rates": (1.5,)},
            {"detectors": ("bogus",)},
            {"fault_rates": (-0.1,)},
            {"detectors": ()},
            {"seeds": (1, 1)},
        ],
    )
    def test_invalid_axes_rejected(self, kwargs):
        base = dict(seeds=(1,), scales=(0.05,))
        with pytest.raises(ValueError, match="invalid sweep spec"):
            SweepSpec(**{**base, **kwargs})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            SweepSpec.from_dict({"seeds": [1], "scales": [0.1], "speed": [9]})

    def test_from_dict_requires_both_axes(self):
        with pytest.raises(ValueError, match="'scales' is required"):
            SweepSpec.from_dict({"seeds": [1]})

    def test_json_spec_roundtrip(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {"seeds": [1, 2], "scales": [0.05], "detectors": ["full"]}
            )
        )
        spec = SweepSpec.load(path)
        assert spec.seeds == (1, 2)
        assert spec.scales == (0.05,)

    def test_toml_spec_gated_on_tomllib(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text("seeds = [1]\nscales = [0.05]\n")
        if sys.version_info >= (3, 11):
            assert SweepSpec.load(path).seeds == (1,)
        else:
            with pytest.raises(ValueError, match="3.11"):
                SweepSpec.load(path)

    def test_slug_is_filesystem_safe(self):
        point = SweepPoint(seed=2022, scale=0.05, fault_rate=0.1)
        assert "/" not in point.slug()
        assert "." not in point.slug()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One executed 4-point sweep with a shared store, reused by every
    inspection test below."""
    root = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec(
        seeds=(2022, 2023),
        scales=(SWEEP_SCALE,),
        detectors=("full", "naive"),
    )
    engine = SweepEngine(
        spec,
        store_dir=str(root / "store"),
        metrics_dir=str(root / "metrics"),
    )
    return root, engine.run()


class TestEngine:
    def test_every_point_executed_in_order(self, sweep):
        _, results = sweep
        assert [p.point.detector for p in results.points] == [
            "full",
            "full",
            "naive",
            "naive",
        ]
        assert all(p.failures == 0 for p in results.points)

    def test_findings_are_populated(self, sweep):
        _, results = sweep
        for point in results.points:
            assert point.findings["prevalence.dynamic.android.common"] is not None
            assert "consistency.mean_jaccard" in point.findings

    def test_ablated_points_warm_start_fully(self, sweep):
        """A detector-ablated point shares every pipeline unit with its
        full-detector sibling: 100 % store hit rate, zero misses."""
        _, results = sweep
        full = [p for p in results.points if p.point.detector == "full"]
        naive = [p for p in results.points if p.point.detector == "naive"]
        for point in full:
            assert point.store_hits == 0  # cold: different corpus each
            assert point.store_misses > 0
        for point in naive:
            assert point.store_hit_rate == 1.0
            assert point.store_misses == 0

    def test_naive_detector_overflags(self, sweep):
        """The ablation must change the findings in the documented
        direction: the naive detector flags every MITM failure, so its
        prevalence dominates the differential detector's."""
        _, results = sweep
        by_key = {
            (p.point.seed, p.point.detector): p.findings
            for p in results.points
        }
        for seed in (2022, 2023):
            for dataset in ("common", "popular", "random"):
                name = f"prevalence.dynamic.android.{dataset}"
                assert by_key[(seed, "naive")][name] >= by_key[
                    (seed, "full")
                ][name]

    def test_per_point_metrics_written(self, sweep):
        root, results = sweep
        metrics = sorted((root / "metrics").glob("point-*.json"))
        assert len(metrics) == len(results.points)
        with open(metrics[2]) as fh:  # first naive point: all hits
            counters = json.load(fh)["counters"]
        assert counters["store.units.hit"] > 0
        assert counters.get("store.units.miss", 0) == 0

    def test_sweep_telemetry_is_merged_across_points(self, sweep):
        _, results = sweep
        counters = results.telemetry.counters()
        # Both naive points' hits landed in one aggregate document.
        assert counters["store.units.hit"] == sum(
            p.store_hits for p in results.points if p.store_hits
        )
        assert counters["sweep.ablation.redetected"] > 0

    def test_faulted_point_runs_store_less(self, tmp_path):
        spec = SweepSpec(
            seeds=(2022,), scales=(SWEEP_SCALE,), fault_rates=(0.5,)
        )
        engine = SweepEngine(spec, store_dir=str(tmp_path / "store"))
        results = engine.run()
        point = results.points[0]
        assert point.store_hits is None  # hits would bypass injection
        assert point.failures > 0


class TestAblation:
    def test_full_is_identity(self, study_results):
        assert apply_detector_ablation(study_results, "full") is study_results

    def test_unknown_detector_rejected(self, study_results):
        with pytest.raises(ValueError, match="unknown detector"):
            apply_detector_ablation(study_results, "bogus")

    def test_ablation_does_not_mutate_the_original(self, study_results):
        before = {
            key: [sorted(r.pinned_destinations) for r in results]
            for key, results in study_results.dynamic_results.items()
        }
        apply_detector_ablation(study_results, "naive")
        after = {
            key: [sorted(r.pinned_destinations) for r in results]
            for key, results in study_results.dynamic_results.items()
        }
        assert before == after

    def test_no_tls13_is_a_subset_story(self, study_results):
        """Disabling the TLS 1.3 heuristics degrades both detector legs
        over the same captures — verdict maps stay over the same
        destination universe."""
        ablated = apply_detector_ablation(study_results, "no-tls13")
        for key, results in study_results.dynamic_results.items():
            for original, redetected in zip(results, ablated.dynamic_results[key]):
                assert original.app_id == redetected.app_id
                assert set(original.verdicts) == set(redetected.verdicts)


class TestReport:
    def test_stability_groups_exclude_the_seed(self, sweep):
        _, results = sweep
        groups = {s.group for s in results.stability()}
        assert len(groups) == 2  # full and naive; seeds folded in
        for entry in results.stability():
            assert entry.n_points == 2
            assert "seed" not in entry.group

    def test_report_json_matches_schema(self, sweep, tmp_path):
        _, results = sweep
        report = tmp_path / "report.json"
        report.write_text(json.dumps(results.to_json_dict()))
        validator = _load_validator()
        violations = validator.validate_file(
            REPO_ROOT / "schemas" / "sweep_report.schema.json", report
        )
        assert violations == []

    def test_sign_flip_detection(self):
        entry = FindingStability(
            finding="delta.x", group="g", values=[-0.2, 0.3]
        )
        assert entry.sign_flip
        assert entry.spread == pytest.approx(0.5)
        steady = FindingStability(
            finding="delta.y", group="g", values=[0.1, 0.3]
        )
        assert not steady.sign_flip

    def test_undefined_findings_render_no_data(self):
        """A finding no seed measured must render "—" with N=0/k, never
        a fabricated 0.0000 row."""
        from repro.reporting.tables import NO_DATA

        points = [
            SweepPointResult(
                point=SweepPoint(seed=seed, scale=0.05),
                findings={"pii.ios.rate_delta": None},
            )
            for seed in (1, 2)
        ]
        results = SweepResults(
            spec=SweepSpec(seeds=(1, 2), scales=(0.05,)), points=points
        )
        entry = results.stability()[0]
        assert entry.n_defined == 0
        assert entry.mean is None
        table = results.stability_table().render()
        assert NO_DATA in table
        assert "0/2" in table
        assert "0.0000" not in table


class TestDetectorsConstant:
    def test_full_is_always_available(self):
        assert "full" in DETECTORS


class TestCLI:
    def test_sweep_command_end_to_end(self, capsys, tmp_path):
        from repro.cli import main

        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "--scale",
                    "0.02",
                    "sweep",
                    "--sweep-seeds",
                    "2022,2023",
                    "--store",
                    str(tmp_path / "store"),
                    "--report-out",
                    str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Sweep grid" in out
        assert "Cross-seed stability" in out
        document = json.loads(report.read_text())
        assert document["schema"] == "repro-sweep-v1"
        assert len(document["points"]) == 2

    def test_sweep_spec_file(self, capsys, tmp_path):
        from repro.cli import main

        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"seeds": [2022], "scales": [0.02]}))
        assert main(["sweep", "--spec", str(spec)]) == 0
        assert "Sweep grid" in capsys.readouterr().out

    def test_sweep_spec_and_axis_flags_are_exclusive(self, capsys, tmp_path):
        from repro.cli import main

        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"seeds": [2022], "scales": [0.02]}))
        assert (
            main(
                ["sweep", "--spec", str(spec), "--sweep-seeds", "1,2"]
            )
            == 2
        )
        assert "exclusive" in capsys.readouterr().err

    def test_sweep_bad_report_dir_fails_before_running(self, capsys):
        from repro.cli import main

        assert (
            main(["sweep", "--report-out", "/nonexistent/dir/report.json"])
            == 2
        )
        assert "does not exist" in capsys.readouterr().err
