"""Telemetry overhead: off must be ~free, on must stay cheap.

Hard wall-clock assertions on shared CI runners are flaky, so the checks
layer three angles with generous slack instead of one brittle timing:

* a micro-benchmark of the telemetry-off funnel (one global read + a
  ``None`` check per call) proving the per-call cost, against the
  per-app cost of a telemetry-off dynamic pass measured in the same
  process, stays under the 2 % overhead target;
* an off-vs-baseline comparison of the dynamic stage against the
  checked-in benchmark record (5x slack — machines differ);
* an on-vs-off ratio for a fully instrumented serial run.

``REPRO_BENCH_PARALLEL_SCALE`` (default 0.05) sizes the corpus, matching
the scale ``BENCH_study.json`` was recorded at.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core import obs
from repro.core.exec import ExecutionEngine, ExecutionPlan
from repro.corpus import CorpusConfig, CorpusGenerator

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_study.json"
TELEMETRY_SCALE = float(
    os.environ.get("REPRO_BENCH_PARALLEL_SCALE", "0.05")
)
#: Upper bound on funnel calls issued per app by the current
#: instrumentation (spans + cache events + counters, all stages).
CALLS_PER_APP = 40


@pytest.fixture(scope="module")
def quick_corpus():
    config = CorpusConfig(seed=2022).scaled(TELEMETRY_SCALE)
    return CorpusGenerator(config).generate()


def _run_dynamic_stage(corpus, recorder=None):
    """One serial dynamic pass over every dataset; returns seconds."""
    keys = sorted(corpus.datasets)
    engine = ExecutionEngine(
        corpus, ExecutionPlan(workers=1), recorder=recorder
    )
    if recorder is not None:
        recorder.install()
    try:
        watch = obs.Stopwatch()
        for key in keys:
            engine.map_dataset(
                "dynamic", key, range(len(corpus.dataset(*key))), 0.0
            )
        return watch.elapsed()
    finally:
        engine.close()
        if recorder is not None:
            recorder.uninstall()


def _per_app_s(corpus) -> float:
    """Seconds per app of a telemetry-off serial dynamic pass."""
    total_apps = sum(len(apps) for apps in corpus.datasets.values())
    _run_dynamic_stage(corpus)  # warm process-wide caches
    return min(_run_dynamic_stage(corpus) for _ in range(2)) / total_apps


def test_null_funnel_cost_implies_under_two_percent(quick_corpus):
    """With no recorder, the funnel must be cheap enough that all the
    instrumentation in a per-app pipeline costs <2 % of the per-app
    time of a telemetry-off dynamic pass on this machine."""
    assert obs.get_recorder() is None
    per_app_budget_s = _per_app_s(quick_corpus)
    iterations = 200_000
    watch = obs.Stopwatch()
    for _ in range(iterations):
        with obs.span("bench.null", cat="bench"):
            pass
        obs.count("bench.counter")
        obs.cache_event("bench.cache", hit=True)
    per_call_s = watch.elapsed() / (3 * iterations)
    print(f"\nnull-funnel per-call: {per_call_s * 1e9:.0f} ns")
    assert per_call_s < 2e-6

    overhead = CALLS_PER_APP * per_call_s
    assert overhead < 0.02 * per_app_budget_s, (
        f"{CALLS_PER_APP} calls x {per_call_s * 1e9:.0f} ns = "
        f"{overhead * 1e6:.1f} us/app exceeds 2% of the "
        f"{per_app_budget_s * 1e3:.2f} ms/app budget"
    )


def test_off_path_tracks_checked_in_baseline(quick_corpus):
    """Telemetry-off throughput within generous slack of BENCH_study.json."""
    baseline = json.loads(BENCH_PATH.read_text())
    apps_per_s = 1.0 / _per_app_s(quick_corpus)
    floor = baseline["serial"]["dynamic_apps_per_s"] / 5
    print(
        f"\ndynamic stage: {apps_per_s:.0f} apps/s "
        f"(baseline {baseline['serial']['dynamic_apps_per_s']}, "
        f"floor {floor:.0f})"
    )
    assert apps_per_s >= floor


def test_recorder_on_overhead_bounded(quick_corpus):
    """A fully instrumented serial run stays within 1.5x of telemetry-off
    (the target is <2 %; the slack absorbs scheduler noise)."""
    _run_dynamic_stage(quick_corpus)  # warm process-wide caches
    off = min(_run_dynamic_stage(quick_corpus) for _ in range(2))
    on = min(
        _run_dynamic_stage(quick_corpus, obs.Recorder()) for _ in range(2)
    )
    print(f"\noff={off:.3f}s on={on:.3f}s ratio={on / off:.3f}")
    assert on <= off * 1.5 + 0.1
