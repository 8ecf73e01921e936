"""The ground-truth differential oracle.

The oracle's job is to *fail* when a detector silently degrades, so the
heart of this file is mutation testing: take the clean study results (or
a clean pipeline), break exactly one thing — a dropped verdict, a
fabricated pin, a regex that stops matching — and assert the oracle's
verdict flips.  A clean run passing proves calibration; a broken run
failing proves teeth.
"""

from __future__ import annotations

import copy
import re

from repro.core.analysis.study import StudyResults
from repro.core.static.pipeline import StaticPipeline
from repro.core.verify import DEFAULT_BANDS, ToleranceBand, run_oracle
from repro.core.verify.oracle import (
    score_dynamic_destinations,
    score_spki_search,
    score_static_material,
)
from repro.corpus import groundtruth


def fresh_results(results, **overrides) -> StudyResults:
    """A StudyResults sharing the originals' items but with fresh
    containers and an empty memo cache, safe to corrupt per test."""
    fields = dict(
        corpus=results.corpus,
        static_reports={k: list(v) for k, v in results.static_reports.items()},
        dynamic_results={k: list(v) for k, v in results.dynamic_results.items()},
        circumvention={k: list(v) for k, v in results.circumvention.items()},
        pii=dict(results.pii),
        failures=list(results.failures),
        window_s=results.window_s,
        telemetry=results.telemetry,
    )
    fields.update(overrides)
    return StudyResults(**fields)


def replace_result(results, key, mutate) -> StudyResults:
    """Deep-copy one dataset's first *pinning* result, apply ``mutate``
    to the copy, and return fresh results containing it."""
    out = fresh_results(results)
    dataset = out.dynamic_results[key]
    for position, result in enumerate(dataset):
        if result.pins():
            mutated = copy.deepcopy(result)
            mutate(mutated)
            dataset[position] = mutated
            return out
    raise AssertionError(f"no pinning app in {key}")


def test_clean_run_is_exact(study_results):
    scores = run_oracle(study_results, window_s=study_results.window_s)
    # 5 Android detectors + 4 iOS (NSC is Android-only).
    assert len(scores) == 9
    assert all(s.passed for s in scores), [s.describe() for s in scores]
    for s in scores:
        assert s.score.precision == 1.0
        assert s.score.recall == 1.0
        assert s.score.f1 == 1.0
        # An all-negative dataset would also score 1.0 — make sure the
        # oracle actually saw positives everywhere.
        assert s.score.true_positives > 0, s.describe()


def test_dropped_pinned_verdict_breaks_recall(study_results):
    def drop_first_pin(result):
        destination = sorted(result.pinned_destinations)[0]
        result.verdicts[destination].pinned = False

    corrupted = replace_result(
        study_results, ("android", "popular"), drop_first_pin
    )
    scores = run_oracle(corrupted, window_s=corrupted.window_s)
    failed = [s for s in scores if not s.passed]
    assert [(s.detector, s.platform) for s in failed] == [
        ("dynamic-destinations", "android")
    ]
    assert failed[0].score.false_negatives == 1
    assert any("recall" in v for v in failed[0].violations)


def test_fabricated_pin_breaks_precision(study_results):
    def fabricate(result):
        candidates = sorted(result.not_pinned_destinations)
        assert candidates, "need an unpinned destination to fabricate"
        verdict = result.verdicts[candidates[0]]
        verdict.pinned = True
        verdict.mitm_all_failed = True

    corrupted = replace_result(
        study_results, ("ios", "popular"), fabricate
    )
    scores = run_oracle(corrupted, window_s=corrupted.window_s)
    failed = [s for s in scores if not s.passed]
    assert ("dynamic-destinations", "ios") in [
        (s.detector, s.platform) for s in failed
    ]
    ios_dyn = next(
        s
        for s in failed
        if (s.detector, s.platform) == ("dynamic-destinations", "ios")
    )
    assert ios_dyn.score.false_positives == 1
    assert any("precision" in v for v in ios_dyn.violations)


def test_suppressed_static_material_breaks_recall(study_results):
    out = fresh_results(study_results)
    key = ("android", "common")
    reports = out.static_reports[key]
    for position, report in enumerate(reports):
        if report.embedded_material:
            broken = copy.deepcopy(report)
            broken.scan.certificates.clear()
            broken.scan.pins.clear()
            reports[position] = broken
            break
    else:
        raise AssertionError("no report with embedded material")
    scores = run_oracle(out, window_s=out.window_s)
    failed = {(s.detector, s.platform) for s in scores if not s.passed}
    assert ("static-material", "android") in failed


def test_broken_hash_regex_fails_spki_oracle(small_corpus, monkeypatch):
    """Pipeline-level mutation: a detector regression (the SPKI regex
    stops matching) must land outside its band — this is the wiring the
    audit exists to catch, end to end through a real pipeline run."""
    from repro.core.static import search as search_mod

    apps = small_corpus.dataset("android", "popular")
    baseline = [StaticPipeline(small_corpus.registry).analyze_app(p) for p in apps]
    assert score_spki_search(small_corpus, baseline).false_negatives == 0

    monkeypatch.setattr(
        search_mod, "HASH_PATTERN", re.compile(r"(?!x)x")
    )
    broken = [StaticPipeline(small_corpus.registry).analyze_app(p) for p in apps]
    score = score_spki_search(small_corpus, broken)
    assert score.false_negatives > 0
    band = DEFAULT_BANDS["spki-search"]
    assert band.violations(score), "broken regex must leave the band"


def test_band_overrides_apply(study_results):
    impossible = {"circumvention": ToleranceBand(1.01, 1.01, 1.01)}
    scores = run_oracle(
        study_results, window_s=study_results.window_s, bands=impossible
    )
    failed = {(s.detector, s.platform) for s in scores if not s.passed}
    assert failed == {("circumvention", "android"), ("circumvention", "ios")}


def test_ground_truth_predicates_discriminate(small_corpus):
    """The truth predicates must not collapse to "app pins": the corpus
    ships pinning apps that are *not* greppable (obfuscated or NSC-only),
    which is exactly the distinction the SPKI oracle depends on."""
    greppable = pinning_not_greppable = 0
    for key in small_corpus.datasets:
        for packaged in small_corpus.dataset(*key):
            app = packaged.app
            if groundtruth.has_greppable_spki_pins(app):
                greppable += 1
            elif app.pinning_specs:
                pinning_not_greppable += 1
    assert greppable > 0
    assert pinning_not_greppable > 0


def test_dynamic_truth_respects_window(small_corpus, study_results):
    """A near-zero capture window empties the dynamic ground truth —
    every pinned destination becomes unobservable, so a detector that
    still reports pins would be (correctly) flagged as imprecise."""
    results = study_results.all_dynamic("android")
    wide = score_dynamic_destinations(small_corpus, results, window_s=30.0)
    narrow = score_dynamic_destinations(small_corpus, results, window_s=0.0)
    assert wide.false_negatives == 0
    assert narrow.true_positives < wide.true_positives


def test_static_material_score_counts_positives(small_corpus, study_results):
    reports = list(study_results.static_by_app("ios").values())
    score = score_static_material(small_corpus, reports)
    assert score.true_positives > 0
    assert score.false_positives == 0
    assert score.false_negatives == 0
