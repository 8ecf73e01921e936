"""Determinism: the whole measurement is a pure function of the seed."""

import pytest

from repro.core.analysis import Study
from repro.corpus import CorpusConfig, CorpusGenerator


@pytest.fixture(scope="module")
def twin_results():
    config = CorpusConfig(seed=424242).scaled(0.015)
    results = []
    for _ in range(2):
        corpus = CorpusGenerator(config).generate()
        results.append(Study(corpus).run())
    return results


class TestStudyDeterminism:
    def test_dynamic_verdicts_identical(self, twin_results):
        a, b = twin_results
        for key in a.dynamic_results:
            pins_a = {
                r.app_id: sorted(r.pinned_destinations)
                for r in a.dynamic_results[key]
            }
            pins_b = {
                r.app_id: sorted(r.pinned_destinations)
                for r in b.dynamic_results[key]
            }
            assert pins_a == pins_b

    def test_static_findings_identical(self, twin_results):
        a, b = twin_results
        for key in a.static_reports:
            pins_a = [sorted(r.all_pin_strings()) for r in a.static_reports[key]]
            pins_b = [sorted(r.all_pin_strings()) for r in b.static_reports[key]]
            assert pins_a == pins_b

    def test_tables_render_identically(self, twin_results):
        a, b = twin_results
        assert a.table3().render() == b.table3().render()
        assert a.table8().render() == b.table8().render()
        assert a.figure2().render() == b.figure2().render()

    def test_circumvention_identical(self, twin_results):
        a, b = twin_results
        for platform in ("android", "ios"):
            assert a.circumvention_rate(platform) == b.circumvention_rate(
                platform
            )

    def test_pii_tables_identical(self, twin_results):
        a, b = twin_results
        assert a.table9().render() == b.table9().render()


class TestHarnessDeterminism:
    def test_same_app_same_run_twice(self, small_corpus):
        from repro.core.dynamic import DynamicPipeline

        packaged = small_corpus.dataset("android", "popular")[0]
        first = DynamicPipeline(small_corpus).run_app(packaged)
        second = DynamicPipeline(small_corpus).run_app(packaged)
        assert first.pinned_destinations == second.pinned_destinations
        first_direct, _ = DynamicPipeline(small_corpus).captures(packaged)
        second_direct, _ = DynamicPipeline(small_corpus).captures(packaged)
        assert len(first_direct) == len(second_direct)
        for f1, f2 in zip(first_direct, second_direct):
            assert f1.sni == f2.sni
            assert f1.trace.teardown == f2.trace.teardown
            assert [r.length for r in f1.trace.records] == [
                r.length for r in f2.trace.records
            ]


class TestStudyExtensionsAPI:
    """The extension analyses run over a finished study's results."""

    def test_spinner_report_api(self, study_results):
        from repro.core.analysis.spinner import spinner_scan

        corpus = study_results.corpus
        report = spinner_scan(
            corpus, "ios", study_results.all_dynamic("ios"), corpus.stores.ios
        )
        assert report.platform == "ios"
        assert report.probed >= 0

    def test_misconfig_report_api(self, study_results):
        from repro.core.analysis.misconfig import find_nsc_misconfigurations

        report = find_nsc_misconfigurations(
            list(study_results.static_by_app("android").values()),
            study_results.all_dynamic("android"),
        )
        assert report.apps_with_nsc_pins >= 0

    def test_detection_scores_api(self, study_results):
        from repro.core.analysis.scoring import score_destinations

        for results in study_results.dynamic_results.values():
            score = score_destinations(study_results.corpus, results)
            assert score.precision == 1.0
            assert score.recall == 1.0


class TestGoldenOutput:
    def test_study_stdout_matches_checked_in_fixture(self):
        """The rendered study at the CLI defaults (seed 2022, scale 0.02)
        matches the checked-in golden fixture byte for byte — the guard
        that refactors which must not change results (stage graphs,
        store plumbing, pool boundaries) actually did not."""
        from pathlib import Path

        from repro.reporting.render import render_study_stdout

        corpus = CorpusGenerator(
            CorpusConfig(seed=2022).scaled(0.02)
        ).generate()
        rendered = render_study_stdout(Study(corpus).run())
        golden = (
            Path(__file__).parent / "data" / "study_scale002_golden.txt"
        )
        assert rendered == golden.read_text()
