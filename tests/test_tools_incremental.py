"""The incremental-run tooling: diff_runs, check_store_hits,
check_bench_regression.

These scripts gate CI, so they are tested like library code: loaded from
``tools/`` by path (they are stdlib-only and not installed as a package)
and driven through their ``main(argv)`` entry points.
"""

from __future__ import annotations

import importlib.util
import json
import pickle
from pathlib import Path

import pytest

from repro.corpus import CorpusConfig, CorpusGenerator
from tests.store_helpers import bound_store, publish

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_runs = load_tool("diff_runs")
check_store_hits = load_tool("check_store_hits")
check_bench_regression = load_tool("check_bench_regression")


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=1337).scaled(0.015)).generate()


class FakeDynamicResult:
    """Picklable dynamic-result stand-in with a pinned verdict."""

    def __init__(self, app_id, pinned=()):
        self.app_id = app_id
        self.pinned_destinations = set(pinned)

    def pins(self):
        return bool(self.pinned_destinations)


def populate(store, corpus, flip_app=None, skip_app=None):
    """Publish a dynamic entry for the first few Android-popular apps.

    ``flip_app`` (an index) gets a different pinned verdict — the one
    perturbed app the diff must name; ``skip_app`` (an index) is left
    out.
    """
    apps = corpus.dataset("android", "popular")[:5]
    for position, packaged in enumerate(apps):
        if position == skip_app:
            continue
        app_id = packaged.app.app_id
        pinned = {"api.example.com"} if position % 2 else set()
        if position == flip_app:
            pinned = {"api.changed.example"}
        publish(
            store,
            "dynamic",
            "android",
            "popular",
            app_id,
            0.0,
            FakeDynamicResult(app_id, pinned),
        )
    return [p.app.app_id for p in apps]


class TestDiffRuns:
    def test_identical_stores(self, corpus, tmp_path, capsys):
        a = bound_store(tmp_path / "a", corpus)
        b = bound_store(tmp_path / "b", corpus)
        populate(a, corpus)
        populate(b, corpus)
        assert diff_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "identical" in capsys.readouterr().out

    def test_one_perturbed_app_named_exactly(self, corpus, tmp_path, capsys):
        a = bound_store(tmp_path / "a", corpus)
        b = bound_store(tmp_path / "b", corpus)
        app_ids = populate(a, corpus)
        populate(b, corpus, flip_app=0)
        exit_code = diff_runs.main(
            [str(tmp_path / "a"), str(tmp_path / "b"), "--json"]
        )
        assert exit_code == 1
        report = json.loads(capsys.readouterr().out)
        flips = report["pinned_flips"]
        assert [f["app_id"] for f in flips] == [app_ids[0]]
        assert flips[0]["before"]["pinned"] is False
        assert flips[0]["after"]["pinned"] is True
        assert flips[0]["destinations_gained"] == ["api.changed.example"]
        assert report["only_in_a"] == report["only_in_b"] == []

    def test_missing_app_reported_one_sided(self, corpus, tmp_path, capsys):
        a = bound_store(tmp_path / "a", corpus)
        b = bound_store(tmp_path / "b", corpus)
        app_ids = populate(a, corpus)
        populate(b, corpus, skip_app=2)
        dropped = app_ids[2]
        assert diff_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        out = capsys.readouterr().out
        assert dropped in out and "only in A" in out

    def test_rerun_wait_wins_the_verdict(self, corpus, tmp_path, capsys):
        """An app with initial + re-run entries is judged by the re-run."""
        a = bound_store(tmp_path / "a", corpus)
        b = bound_store(tmp_path / "b", corpus)
        app_id = populate(a, corpus)[0]
        populate(b, corpus)
        for store in (a, b):
            publish(
                store,
                "dynamic",
                "android",
                "popular",
                app_id,
                120.0,
                FakeDynamicResult(app_id, {"late.example.com"}),
            )
        # Initial entries for app 0 agree; re-runs agree: no flip.
        assert diff_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        capsys.readouterr()

    def test_format_5_store_compares(self, corpus, tmp_path, capsys):
        """A store written before the header's metadata was pickled
        (format 5: the dict itself) compares with one written after."""
        populate(bound_store(tmp_path / "a", corpus), corpus)
        populate(bound_store(tmp_path / "b", corpus), corpus)
        for path in (tmp_path / "b" / "packs").glob("*.pkl"):
            blob = path.read_bytes()
            magic, _version, name, meta, digest, size = pickle.loads(blob)
            header = (magic, 5, name, pickle.loads(meta), digest, size)
            path.write_bytes(pickle.dumps(header) + blob[len(blob) - size :])
        assert diff_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "identical: 5 entr(ies)" in capsys.readouterr().out

    def test_not_a_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            diff_runs.main([str(tmp_path), str(tmp_path)])


def write_metrics(path, hits, misses):
    path.write_text(
        json.dumps(
            {
                "counters": {
                    "store.units.hit": hits,
                    "store.units.miss": misses,
                }
            }
        )
    )


class TestCheckStoreHits:
    def test_warm_run_passes(self, tmp_path):
        write_metrics(tmp_path / "m.json", hits=20, misses=0)
        assert (
            check_store_hits.main(
                [str(tmp_path / "m.json"), "--min-hit-rate", "0.95"]
            )
            == 0
        )

    def test_low_hit_rate_fails(self, tmp_path):
        write_metrics(tmp_path / "m.json", hits=10, misses=10)
        assert (
            check_store_hits.main(
                [str(tmp_path / "m.json"), "--min-hit-rate", "0.95"]
            )
            == 1
        )

    def test_no_lookups_fails_the_rate_check(self, tmp_path):
        write_metrics(tmp_path / "m.json", hits=0, misses=0)
        assert (
            check_store_hits.main(
                [str(tmp_path / "m.json"), "--min-hit-rate", "0.95"]
            )
            == 1
        )

    def test_invalidation_expects_no_hits(self, tmp_path):
        write_metrics(tmp_path / "m.json", hits=0, misses=17)
        assert (
            check_store_hits.main(
                [str(tmp_path / "m.json"), "--expect-no-hits"]
            )
            == 0
        )
        write_metrics(tmp_path / "m.json", hits=1, misses=16)
        assert (
            check_store_hits.main(
                [str(tmp_path / "m.json"), "--expect-no-hits"]
            )
            == 1
        )

    def test_malformed_metrics(self, tmp_path):
        (tmp_path / "m.json").write_text("not json")
        assert (
            check_store_hits.main(
                [str(tmp_path / "m.json"), "--min-hit-rate", "0.5"]
            )
            == 2
        )


def write_pack(root, name, stages):
    """A pack file whose header lists one stage entry per ``stages`` item
    (a ``kind.stage`` name); the checker reads headers only, and the
    header's metadata is pickled bytes (store format 6)."""
    entries = {
        f"{name}-{position}": {"entry_kind": "stage", "app_id": "a", "stage": stage}
        for position, stage in enumerate(stages)
    }
    entries[f"{name}-app"] = {"entry_kind": "app", "app_id": "a", "stage": "dynamic"}
    header = ("repro-result-pack", 6, name, pickle.dumps({"entries": entries}), "", 0)
    (root / "packs").mkdir(parents=True, exist_ok=True)
    (root / "packs" / f"{name}.pkl").write_bytes(pickle.dumps(header))


class TestStageWrites:
    """``--store/--since``: every computed persisted stage added an entry."""

    def run_check(self, tmp_path, capsys, computed, extra=()):
        store = tmp_path / "store"
        write_pack(store, "p1", ["dynamic.run_direct", "dynamic.detect"])
        assert check_store_hits.main(["--snapshot", str(store)]) == 0
        (tmp_path / "before.json").write_text(capsys.readouterr().out)
        # The run adds one detect entry to p1 and writes a second pack.
        write_pack(store, "p1", ["dynamic.run_direct", "dynamic.detect", "dynamic.detect"])
        write_pack(store, "p2", ["dynamic.detect"])
        counters = {f"pipeline.{stage}.computed": n for stage, n in computed.items()}
        (tmp_path / "m.json").write_text(json.dumps({"counters": counters}))
        argv = [str(tmp_path / "m.json"), "--store", str(store), "--since"]
        return check_store_hits.main([*argv, str(tmp_path / "before.json"), *extra])

    def test_snapshot_counts_stage_entries(self, tmp_path, capsys):
        write_pack(tmp_path, "p1", ["dynamic.detect", "dynamic.detect", "static.scan"])
        assert check_store_hits.main(["--snapshot", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"dynamic.detect": 2, "static.scan": 1}

    def test_every_computation_stored_passes(self, tmp_path, capsys):
        assert self.run_check(tmp_path, capsys, {"dynamic.detect": 2}) == 0

    def test_recomputing_a_held_key_fails(self, tmp_path, capsys):
        # Three detect computations for two new entries: one recomputed a
        # key the store held.
        assert self.run_check(tmp_path, capsys, {"dynamic.detect": 3}) == 1
        assert "dynamic.detect computed 3" in capsys.readouterr().err

    def test_a_computed_stage_must_be_stored(self, tmp_path, capsys):
        computed = {"dynamic.detect": 2, "dynamic.run_direct": 1}
        assert self.run_check(tmp_path, capsys, computed) == 1

    def test_store_and_since_go_together(self, tmp_path):
        write_metrics(tmp_path / "m.json", hits=1, misses=0)
        with pytest.raises(SystemExit):
            check_store_hits.main([str(tmp_path / "m.json"), "--store", str(tmp_path)])


class TestStageDecodes:
    """``--stage-hits``: each stage hit decodes one stored stage entry."""

    def decodes(self, tmp_path, count, expect):
        counters = {"store.stages.hit": count} if count is not None else {}
        (tmp_path / "m.json").write_text(json.dumps({"counters": counters}))
        return check_store_hits.main([str(tmp_path / "m.json"), "--stage-hits", expect])

    def test_none(self, tmp_path):
        assert self.decodes(tmp_path, None, "none") == 0
        assert self.decodes(tmp_path, 3, "none") == 1

    def test_some(self, tmp_path):
        assert self.decodes(tmp_path, 3, "some") == 0
        assert self.decodes(tmp_path, 0, "some") == 1

    def test_read_beside_stage_cold(self, tmp_path):
        counters = {
            "store.stages.hit": 3,
            "store.stage.dynamic.detect.miss": 1,
            "store.stage.dynamic.run_direct.hit": 3,
        }
        (tmp_path / "m.json").write_text(json.dumps({"counters": counters}))
        argv = [str(tmp_path / "m.json"), "--stage-cold", "dynamic.detect"]
        assert check_store_hits.main([*argv, "--stage-hits", "some"]) == 0


def write_bench(path, static_mean, dynamic_mean):
    path.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {
                        "name": "test_static_scan_per_app",
                        "stats": {"mean": static_mean},
                    },
                    {
                        "name": "test_dynamic_run_per_app",
                        "stats": {"mean": dynamic_mean},
                    },
                ]
            }
        )
    )


class TestCheckBenchRegression:
    BASELINE = Path(__file__).resolve().parents[1] / "BENCH_study.json"

    def test_at_baseline_passes(self, tmp_path):
        baseline = json.loads(self.BASELINE.read_text())
        write_bench(
            tmp_path / "b.json",
            1.0 / baseline["serial"]["static_apps_per_s"],
            1.0 / baseline["serial"]["dynamic_apps_per_s"],
        )
        assert (
            check_bench_regression.main(
                [str(tmp_path / "b.json"), str(self.BASELINE)]
            )
            == 0
        )

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        baseline = json.loads(self.BASELINE.read_text())
        write_bench(
            tmp_path / "b.json",
            2.0 / baseline["serial"]["static_apps_per_s"],  # 2x slower
            1.0 / baseline["serial"]["dynamic_apps_per_s"],
        )
        assert (
            check_bench_regression.main(
                [str(tmp_path / "b.json"), str(self.BASELINE), "--tolerance", "0.30"]
            )
            == 1
        )

    def test_within_tolerance_passes(self, tmp_path):
        baseline = json.loads(self.BASELINE.read_text())
        write_bench(
            tmp_path / "b.json",
            1.2 / baseline["serial"]["static_apps_per_s"],  # 17% slower
            1.2 / baseline["serial"]["dynamic_apps_per_s"],
        )
        assert (
            check_bench_regression.main(
                [str(tmp_path / "b.json"), str(self.BASELINE), "--tolerance", "0.30"]
            )
            == 0
        )

    def test_empty_bench_rejected(self, tmp_path):
        (tmp_path / "b.json").write_text(json.dumps({"benchmarks": []}))
        assert (
            check_bench_regression.main(
                [str(tmp_path / "b.json"), str(self.BASELINE)]
            )
            == 2
        )
