"""Serial-vs-parallel study throughput (the engine's raison d'être).

Three measured runs over the same corpus:

1. **serial** — the baseline: static + dynamic stages, one process;
2. **adaptive** — the production configuration (``workers="auto"`` on a
   single-CPU machine, ``workers=2, adaptive=True`` otherwise): the
   cost-aware scheduler decides per batch whether the pool can win;
3. **instrumented pool** — a forced 2-worker pool under a telemetry
   recorder, harvesting the dispatch-overhead figures (worker init
   seconds, IPC bytes over the boundary, per-unit queue wait) that the
   ``overhead`` section of ``BENCH_study.json`` records and
   ``tools/check_bench_regression.py --overhead`` gates on.

Assertions: result parity between runs 1 and 2 always; adaptive speedup
``>= 0.95`` on a single-CPU machine (the fallback must make parallelism
harmless); ``> 1.0`` with two or more CPUs (the pool must actually win);
and the corpus bytes shipped per worker must be at least 10× smaller
than pickling the corpus into ``initargs``.

Set ``REPRO_BENCH_WRITE=1`` to (re)generate ``BENCH_study.json`` in the
repo root.  ``REPRO_BENCH_PARALLEL_SCALE`` (default 0.05) sizes the
corpus.
"""

import json
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.core import obs
from repro.core.exec import ExecutionEngine, ExecutionPlan, WorkerBootstrap
from repro.corpus import CorpusConfig, CorpusGenerator

PARALLEL_WORKERS = 2
PARALLEL_SCALE = float(os.environ.get("REPRO_BENCH_PARALLEL_SCALE", "0.05"))


@pytest.fixture(scope="module")
def quick_corpus():
    config = CorpusConfig(seed=2022).scaled(PARALLEL_SCALE)
    return CorpusGenerator(config).generate()


def _adaptive_plan():
    """The configuration a user who just wants speed should run."""
    if (os.cpu_count() or 1) >= 2:
        return ExecutionPlan(workers=PARALLEL_WORKERS, adaptive=True)
    return ExecutionPlan(workers="auto")


def _run_stages(corpus, plan, recorder=None):
    """Run the static and dynamic stages under one plan; return
    ``(static_reports, dynamic_results, static_s, dynamic_s)``."""
    keys = sorted(corpus.datasets)
    with ExecutionEngine(corpus, plan, recorder=recorder) as engine:
        started = time.perf_counter()
        static = {
            key: engine.map_dataset(
                "static", key, range(len(corpus.dataset(*key)))
            ).items
            for key in keys
        }
        static_s = time.perf_counter() - started
        started = time.perf_counter()
        dynamic = {
            key: engine.map_dataset(
                "dynamic", key, range(len(corpus.dataset(*key))), 0.0
            ).items
            for key in keys
        }
        dynamic_s = time.perf_counter() - started
    return static, dynamic, static_s, dynamic_s


def _overhead_record(corpus):
    """The instrumented forced-pool run: dispatch-overhead figures."""
    recorder = obs.Recorder()
    plan = ExecutionPlan(workers=PARALLEL_WORKERS)
    _run_stages(corpus, plan, recorder=recorder)
    metrics = recorder.metrics()
    counters = metrics["counters"]
    histograms = metrics["histograms"]
    init = histograms.get("exec.worker.init_s", {})
    queue_wait = histograms.get("exec.unit_queue_wait_s", {})
    full_corpus_bytes = len(pickle.dumps(corpus))
    bootstrap_bytes = WorkerBootstrap.for_corpus(corpus).payload_bytes()
    return {
        "workers": PARALLEL_WORKERS,
        "worker_init_s_mean": round(init.get("mean", 0.0), 4),
        "worker_init_s_max": round(init.get("max", 0.0), 4),
        "unit_queue_wait_s_mean": round(queue_wait.get("mean", 0.0), 4),
        "ipc_bytes_out": counters.get("exec.ipc.bytes_out", 0),
        "ipc_bytes_in": counters.get("exec.ipc.bytes_in", 0),
        "corpus_bootstrap_bytes": bootstrap_bytes,
        "full_corpus_pickle_bytes": full_corpus_bytes,
        "corpus_bytes_reduction": round(
            full_corpus_bytes / max(1, bootstrap_bytes), 1
        ),
        "ipc_corpus_bytes_counter": counters.get("exec.ipc.corpus_bytes", 0),
    }


def test_parallel_matches_serial_and_speeds_up(quick_corpus):
    corpus = quick_corpus
    total_apps = sum(len(apps) for apps in corpus.datasets.values())

    serial_static, serial_dynamic, ser_static_s, ser_dynamic_s = _run_stages(
        corpus, ExecutionPlan(workers=1)
    )
    plan = _adaptive_plan()
    par_static, par_dynamic, par_static_s, par_dynamic_s = _run_stages(
        corpus, plan
    )

    # Parity first: the scheduler's choices must be invisible in output.
    for key in serial_static:
        assert [r.app_id for r in par_static[key]] == [
            r.app_id for r in serial_static[key]
        ]
        assert [r.scan.unique_pins() for r in par_static[key]] == [
            r.scan.unique_pins() for r in serial_static[key]
        ]
    for key in serial_dynamic:
        assert [r.pinned_destinations for r in par_dynamic[key]] == [
            r.pinned_destinations for r in serial_dynamic[key]
        ]

    overhead = _overhead_record(corpus)

    record = {
        "scale": PARALLEL_SCALE,
        "total_apps": total_apps,
        "workers": plan.worker_count,
        "adaptive": plan.adaptive,
        "cpu_count": os.cpu_count(),
        "serial": {
            "static_s": round(ser_static_s, 3),
            "dynamic_s": round(ser_dynamic_s, 3),
            "static_apps_per_s": round(total_apps / ser_static_s, 2),
            "dynamic_apps_per_s": round(total_apps / ser_dynamic_s, 2),
        },
        "parallel": {
            "static_s": round(par_static_s, 3),
            "dynamic_s": round(par_dynamic_s, 3),
            "static_apps_per_s": round(total_apps / par_static_s, 2),
            "dynamic_apps_per_s": round(total_apps / par_dynamic_s, 2),
        },
        "speedup": {
            "static": round(ser_static_s / par_static_s, 2),
            "dynamic": round(ser_dynamic_s / par_dynamic_s, 2),
            "overall": round(
                (ser_static_s + ser_dynamic_s)
                / (par_static_s + par_dynamic_s),
                2,
            ),
        },
        "overhead": overhead,
    }
    print("\n" + json.dumps(record, indent=2))

    if os.environ.get("REPRO_BENCH_WRITE"):
        out = Path(__file__).resolve().parent.parent / "BENCH_study.json"
        out.write_text(json.dumps(record, indent=2) + "\n")

    # Spec bootstrap: the corpus bytes a worker costs must be at least
    # 10x smaller than pickling the whole corpus into initargs.
    assert overhead["corpus_bytes_reduction"] >= 10.0, overhead

    overall = record["speedup"]["overall"]
    cores = os.cpu_count() or 1
    if cores < 2:
        # Single CPU: a pool cannot win; the adaptive scheduler must
        # make parallelism harmless (serial fallback), not catastrophic
        # (the old flat heuristic measured 0.41x here).
        assert overall >= 0.95, (
            f"adaptive run lost {1 - overall:.0%} to serial on a "
            f"single-CPU machine — the fallback did not engage"
        )
    else:
        assert overall > 1.0, (
            f"expected the pool to beat serial with {cores} CPUs and "
            f"{plan.worker_count} workers, got {overall}x"
        )
