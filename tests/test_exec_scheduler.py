"""Tests for the cost-aware scheduler: chunk sizing, the parallel-vs-
serial decision, the bounded dispatch window, and cleanup after a failed
run.

The cost model's thresholds are part of the engine's documented
behaviour (DESIGN.md §11), so they are asserted at explicit values with
explicit CPU counts — no test here depends on the machine it runs on.
"""

import threading
from concurrent.futures import Future

import pytest

from repro.core import obs
from repro.core.exec import ExecutionEngine, ExecutionPlan
from repro.core.exec import costmodel
from repro.core.exec.plan import AUTO_WORKERS
from repro.corpus import CorpusConfig, CorpusGenerator


@pytest.fixture(scope="module")
def tiny_corpus():
    return CorpusGenerator(CorpusConfig(seed=1337).scaled(0.015)).generate()


def _units(kind, n_units, apps_per_unit, extra=None):
    return [
        (kind, "android", "common", tuple(range(apps_per_unit)), extra)
        for _ in range(n_units)
    ]


class TestCostModelChunks:
    def test_static_units_carry_more_apps_than_dynamic(self):
        static = costmodel.chunk_size("static", 10_000, 4)
        dynamic = costmodel.chunk_size("dynamic", 10_000, 4)
        assert static > dynamic
        # Target-seconds sizing: TARGET_UNIT_S over the per-app cost.
        assert static == int(
            costmodel.TARGET_UNIT_S / costmodel.APP_COST_S["static"]
        )
        assert dynamic == int(
            costmodel.TARGET_UNIT_S / costmodel.APP_COST_S["dynamic"]
        )

    def test_small_dataset_still_spreads_over_workers(self):
        # 1000 static apps would fit one TARGET_UNIT_S unit; an even
        # split across workers wins so the pool is not left idle.
        assert costmodel.chunk_size("static", 1000, 4) == 250

    def test_unknown_kind_assumes_dynamic_cost(self):
        assert costmodel.chunk_size(None, 10_000, 4) == costmodel.chunk_size(
            "dynamic", 10_000, 4
        )

    def test_plan_chunk_for_is_kind_aware(self):
        plan = ExecutionPlan(workers=4)
        assert plan.chunk_for(10_000, "static") > plan.chunk_for(
            10_000, "dynamic"
        )
        # Explicit chunk_size still overrides the model.
        assert ExecutionPlan(workers=4, chunk_size=3).chunk_for(
            10_000, "static"
        ) == 3


class TestAutoWorkers:
    def test_auto_plan_implies_adaptive(self):
        plan = ExecutionPlan(workers=AUTO_WORKERS)
        assert plan.adaptive
        assert plan.worker_count >= 1

    def test_integer_plan_is_not_adaptive_by_default(self):
        assert not ExecutionPlan(workers=4).adaptive

    def test_bad_workers_string_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers="many")


class TestShouldParallelize:
    def test_single_cpu_never_parallelizes(self):
        units = _units("dynamic", 50, 80, 0.0)
        assert not costmodel.should_parallelize(units, 4, cpus=1)

    def test_tiny_batch_never_parallelizes(self):
        # 100 static apps model to 10 ms of compute — under the
        # MIN_PARALLEL_SERIAL_S floor even with a warm pool and 8 CPUs.
        units = _units("static", 1, 100)
        assert costmodel.serial_estimate_s(units) < (
            costmodel.MIN_PARALLEL_SERIAL_S
        )
        assert not costmodel.should_parallelize(
            units, 8, pool_started=True, cpus=8
        )

    def test_cold_pool_spawn_cost_can_flip_the_decision(self):
        # 40 dynamic apps: 120 ms of modeled compute.  Against a cold
        # 4-worker pool the 320 ms spawn charge loses; against a warm
        # pool the same batch wins.
        units = _units("dynamic", 1, 40, 0.0)
        assert not costmodel.should_parallelize(
            units, 4, pool_started=False, cpus=4
        )
        assert costmodel.should_parallelize(
            units, 4, pool_started=True, cpus=4
        )

    def test_large_batch_parallelizes_even_cold(self):
        units = _units("dynamic", 20, 80, 0.0)  # ~4.8 s modeled serial
        assert costmodel.should_parallelize(
            units, 4, pool_started=False, cpus=4
        )

    def test_margin_requires_a_real_win(self):
        # Workers beyond the CPU count only contend: 2 effective workers
        # halve compute but dispatch + spawn must still clear the 1.1×
        # margin.
        units = _units("dynamic", 2, 40, 0.0)
        serial = costmodel.serial_estimate_s(units)
        pool = costmodel.parallel_estimate_s(
            units, 2, pool_started=True, cpus=2
        )
        expected = pool * costmodel.PARALLEL_MARGIN < serial
        assert (
            costmodel.should_parallelize(
                units, 2, pool_started=True, cpus=2
            )
            == expected
        )

    def test_inflight_window_scales_with_workers(self):
        assert costmodel.inflight_window(1) == costmodel.INFLIGHT_PER_WORKER
        assert costmodel.inflight_window(4) == 4 * (
            costmodel.INFLIGHT_PER_WORKER
        )


class _AdversarialPool:
    """A fake pool that completes futures in reverse submission order.

    Each submitted future resolves to its unit after a delay that is
    *longer* for earlier submissions, so collection order is roughly the
    reverse of submission order — the worst case for merge ordering.
    Tracks the maximum number of simultaneously incomplete futures, which
    a windowed dispatcher must bound.
    """

    def __init__(self, total: int, step_s: float = 0.004):
        self.total = total
        self.step_s = step_s
        self.submitted = 0
        self.incomplete = 0
        self.max_incomplete = 0
        self._lock = threading.Lock()

    def submit(self, fn, unit):
        future = Future()
        with self._lock:
            order = self.submitted
            self.submitted += 1
            self.incomplete += 1
            self.max_incomplete = max(self.max_incomplete, self.incomplete)
        delay = (self.total - order) * self.step_s

        def complete():
            with self._lock:
                self.incomplete -= 1
            future.set_result(("result-for", unit))

        threading.Timer(delay, complete).start()
        return future


class TestBoundedWindow:
    def test_merge_order_survives_adversarial_completion(self, tiny_corpus):
        plan = ExecutionPlan(workers=2)
        engine = ExecutionEngine(tiny_corpus, plan)
        units = _units("static", 20, 1)
        pool = _AdversarialPool(total=len(units))
        engine._submit = lambda p, unit: p.submit(None, unit)

        collected = [None] * len(units)
        arrival = []

        def collect(position, unit, future):
            collected[position] = future.result()
            arrival.append(position)

        engine._dispatch_windowed(pool, enumerate(units), collect)
        assert collected == [("result-for", unit) for unit in units]
        # The adversarial pool actually exercised out-of-order arrival...
        assert arrival != sorted(arrival)
        # ...and the window stayed bounded the whole time.
        assert pool.max_incomplete <= costmodel.inflight_window(
            plan.worker_count
        )
        assert pool.submitted == len(units)


class TestAdaptiveFallback:
    def test_tiny_batch_runs_serial_without_a_pool(self, tiny_corpus):
        recorder = obs.Recorder()
        plan = ExecutionPlan(workers=2, adaptive=True)
        with ExecutionEngine(
            tiny_corpus, plan, recorder=recorder
        ) as engine:
            results = engine.execute(
                [("static", "android", "common", (0, 1), None)]
            ).unit_results
            assert engine._pool is None
        assert len(results) == 1 and len(results[0]) == 2
        assert recorder.counter_value("exec.sched.serial_fallbacks") == 1
        assert recorder.counter_value("exec.sched.parallel_batches") == 0

    def test_worthwhile_batch_chooses_the_pool(self, tiny_corpus):
        engine = ExecutionEngine(
            tiny_corpus, ExecutionPlan(workers=4, adaptive=True)
        )
        # Decision only — no execution: 4.8 s of modeled dynamic work.
        units = _units("dynamic", 20, 80, 0.0)
        decision = costmodel.should_parallelize(
            units, 4, pool_started=False
        )
        assert engine._use_pool(units) == decision

    def test_non_adaptive_plan_always_uses_its_pool(self, tiny_corpus):
        engine = ExecutionEngine(tiny_corpus, ExecutionPlan(workers=2))
        assert engine._use_pool(
            [("static", "android", "common", (0,), None)]
        )


class TestErrorCleanup:
    def test_non_retryable_unit_fails_fast_and_releases_pool(
        self, tiny_corpus
    ):
        """A non-retryable unit fails the run on its first attempt (no
        retry, no quarantine) and the engine-owned pool is shut down."""
        recorder = obs.Recorder()
        engine = ExecutionEngine(
            tiny_corpus, ExecutionPlan(workers=2), recorder=recorder
        )
        units = _units("static", 3, 2) + [
            ("explodes", "android", "common", (0,), None)
        ]
        with pytest.raises(TypeError, match="unknown work-unit kind"):
            engine.execute(units)
        assert engine._pool is None
        assert recorder.counter_value("exec.faults.nonretryable") == 1
        assert recorder.counter_value("exec.retry.attempts") == 0
        assert recorder.counter_value("exec.units.quarantined") == 0
