"""Instrumentation must never perturb results, and counters must be true.

The contract under test: ``Study.run(recorder=...)`` produces bit-for-bit
the same results as an uninstrumented run, while
the recorder's counters agree with independently observable quantities
(the error ledger, known cache workloads).
"""

import pytest

from repro.core import obs
from repro.core.analysis import Study
from repro.core.exec import ExecutionPlan, SeededFaults
from repro.corpus import CorpusConfig, CorpusGenerator

TELEMETRY_SCALE = 0.03


@pytest.fixture(scope="module")
def tiny_corpus():
    config = CorpusConfig(seed=2022).scaled(TELEMETRY_SCALE)
    return CorpusGenerator(config).generate()


@pytest.fixture(scope="module")
def plain_results(tiny_corpus):
    return Study(tiny_corpus).run()


def _fingerprint(results):
    """A rendering-level digest of the study output, sensitive to any
    change in the numbers the paper's tables report."""
    parts = [
        results.table3().render(),
        results.table6().render(),
        results.table8().render(),
        results.figure2().render(),
        f"{results.circumvention_rate('android'):.9f}",
        f"{results.circumvention_rate('ios'):.9f}",
        str(len(results.failures)),
    ]
    return "\n".join(parts)


class TestResultParity:
    def test_instrumented_serial_matches_plain(self, tiny_corpus, plain_results):
        recorder = obs.Recorder()
        recorded = Study(tiny_corpus).run(recorder=recorder)
        assert _fingerprint(recorded) == _fingerprint(plain_results)
        assert recorded.telemetry is recorder
        assert plain_results.telemetry is None
        assert recorder.counter_value("exec.units.completed") > 0
        assert {"unit.static", "unit.dynamic"} <= {
            span.name for span in recorder.spans()
        }
        histograms = recorder.metrics()["histograms"]
        assert histograms["exec.unit_compute_s"]["count"] > 0
        # Telemetry is deactivated once the run returns.
        assert obs.get_recorder() is None

    def test_phase_spans_cover_pipeline_spans(self, tiny_corpus):
        recorder = obs.Recorder()
        Study(tiny_corpus).run(recorder=recorder)
        spans = recorder.spans()
        phases = [
            span for span in spans if span.name.startswith("phase.")
        ]
        assert {span.name for span in phases} >= {
            "phase.static_dynamic",
            "phase.ios_rerun",
            "phase.circumvention",
            "phase.pii",
        }
        app_spans = [
            span
            for span in spans
            if span.name in ("static.app", "dynamic.app")
        ]
        assert app_spans
        # Serial runs happen in-process: every app span nests inside one
        # of the phases (initial passes or the Common-iOS re-run).
        for span in app_spans:
            parent = next(
                (
                    phase
                    for phase in phases
                    if phase.start <= span.start and span.end <= phase.end
                ),
                None,
            )
            assert parent is not None, span.name
            assert span.depth > parent.depth


class TestCounterAccuracy:
    def test_fault_counters_match_ledger(self, tiny_corpus):
        recorder = obs.Recorder()
        results = Study(
            tiny_corpus,
            plan=ExecutionPlan(max_retries=1),
            fault_predicate=SeededFaults(0.05, seed=3),
        ).run(recorder=recorder)
        assert results.failures  # the workload must actually fault
        assert recorder.counter_value("exec.apps.abandoned") == len(
            results.failures
        )
        assert recorder.counter_value("exec.faults.injected") > 0
        assert recorder.counter_value("exec.faults.unexpected") == 0
        assert recorder.counter_value("exec.retry.attempts") > 0
        # Persistent faults in multi-app units must trigger quarantine.
        assert recorder.counter_value("exec.units.quarantined") > 0

    def test_ctlog_search_cache_counters(self):
        from repro.pki.authority import PKIHierarchy
        from repro.pki.ctlog import CTLog
        from repro.util.rng import DeterministicRng

        hierarchy = PKIHierarchy(DeterministicRng(11))
        issued = hierarchy.issue_leaf_chain(
            "cache.example.com", DeterministicRng(12)
        )
        log = CTLog()
        log.log_chain(issued.chain)
        digest = issued.chain.leaf.spki_pin().split("/", 1)[1]
        recorder = obs.Recorder().install()
        try:
            for _ in range(3):
                assert log.search_spki(digest)
            assert recorder.counter_value("cache.ctlog_search.miss") == 1
            assert recorder.counter_value("cache.ctlog_search.hit") == 2
        finally:
            recorder.uninstall()

    def test_spki_lru_cache_counters(self):
        from repro.pki.keys import KeyPair
        from repro.util.rng import DeterministicRng

        # A distinctive seed so no other test has warmed this entry.
        key = KeyPair.generate(DeterministicRng(987_654_321))
        recorder = obs.Recorder().install()
        try:
            for _ in range(5):
                key.spki_sha256()
            recorder.collect_caches()
            assert recorder.counter_value("cache.spki_digest.miss") == 1
            assert recorder.counter_value("cache.spki_digest.hit") == 4
        finally:
            recorder.uninstall()

    def test_validate_chain_cache_counters(self):
        from repro.pki.authority import PKIHierarchy
        from repro.pki.store import StoreCatalog
        from repro.pki.validation import ValidationContext, validate_chain
        from repro.util.rng import DeterministicRng
        from repro.util.simtime import STUDY_START

        hierarchy = PKIHierarchy(DeterministicRng(21))
        catalog = StoreCatalog.build(hierarchy)
        issued = hierarchy.issue_leaf_chain(
            "pin.example.com", DeterministicRng(22)
        )
        ctx = ValidationContext(
            store=catalog.mozilla,
            hostname="pin.example.com",
            at_time=STUDY_START,
        )
        recorder = obs.Recorder().install()
        try:
            for _ in range(4):
                validate_chain(issued.chain, ctx)
            assert recorder.counter_value("cache.validate_chain.miss") == 1
            assert recorder.counter_value("cache.validate_chain.hit") == 3
        finally:
            recorder.uninstall()


class TestSurface:
    def test_telemetry_table(self, tiny_corpus):
        recorder = obs.Recorder()
        results = Study(tiny_corpus).run(recorder=recorder)
        rendered = results.telemetry_table().render()
        assert "exec.units.completed" in rendered
        assert "span.phase.static_dynamic" in rendered

    def test_telemetry_table_none_when_uninstrumented(self, plain_results):
        assert plain_results.telemetry_table() is None

    def test_gc_collections_in_telemetry_table(self, tiny_corpus):
        recorder = obs.Recorder()
        results = Study(tiny_corpus).run(recorder=recorder)
        assert recorder.counter_value("gc.collections.gen0") > 0
        assert "hist.gc.pause_s" in results.telemetry_table().render()
