"""Tests for the pool scheduler: chunk sizing, dispatch and merge order,
and cleanup after a failed run.

Every assertion is stated at explicit worker counts, so no test here
depends on the machine it runs on.
"""

import os
import threading
from concurrent.futures import Future

import pytest

from repro.core import obs
from repro.core.exec import ExecutionEngine, ExecutionPlan
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


class TestChunking:
    def test_default_chunk_is_one_unit_per_worker(self, tiny_corpus):
        plan = ExecutionPlan(workers=4)
        assert plan.chunk_for(1000) == 250
        assert plan.chunk_for(10) == 3
        engine = ExecutionEngine(tiny_corpus, plan)
        for kind in ("static", "dynamic"):
            units = engine.units_for(kind, ("android", "common"), range(10))
            assert [len(unit[3]) for unit in units] == [3, 3, 3, 1]

    def test_explicit_chunk_size_overrides_the_split(self):
        assert ExecutionPlan(workers=4, chunk_size=7).chunk_for(1000) == 7


class TestAutoWorkers:
    def test_auto_plan_sizes_pool_to_the_machine(self):
        plan = ExecutionPlan(workers=AUTO_WORKERS)
        assert plan.worker_count == (os.cpu_count() or 1)

    def test_bad_workers_string_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers="many")


class _AdversarialPool:
    """A fake pool that completes futures in reverse submission order.

    Each submitted future resolves to its unit after a delay that is
    *longer* for earlier submissions, so collection order is roughly the
    reverse of submission order — the worst case for merge ordering.
    No future completes before ``base_s``.  Tracks the maximum number of
    simultaneously incomplete futures.
    """

    def __init__(self, total: int, step_s: float = 0.004, base_s=0.05):
        self.total = total
        self.step_s = step_s
        self.base_s = base_s
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
        future.order = order
        delay = self.base_s + (self.total - order) * self.step_s

        def complete():
            with self._lock:
                self.incomplete -= 1
            future.set_result([("result-for", unit)])

        threading.Timer(delay, complete).start()
        return future


class TestDispatch:
    def test_merge_order_survives_adversarial_completion(self, tiny_corpus):
        engine = ExecutionEngine(tiny_corpus, ExecutionPlan(workers=2))
        units = [
            ("static", "android", "common", (index,), None)
            for index in range(20)
        ]
        pool = _AdversarialPool(total=len(units))
        engine._ensure_pool = lambda: pool
        engine._submit = lambda p, unit: p.submit(None, unit)
        arrival = []
        collect = engine._collect

        def collect_in_arrival_order(future):
            arrival.append(future.order)
            return collect(future)

        engine._collect = collect_in_arrival_order

        outcome = engine.execute(units)
        assert outcome.unit_results == [
            [("result-for", unit)] for unit in units
        ]
        # The adversarial pool actually exercised out-of-order arrival...
        assert arrival != sorted(arrival)
        # ...and every unit was submitted before the first one completed.
        assert pool.submitted == len(units)
        assert pool.max_incomplete == len(units)


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
