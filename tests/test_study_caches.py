"""Regression tests for the study's memoization layers.

Three layers are covered:

* :class:`StudyResults` derived-view memos — rendering every table must
  compute each expensive aggregation exactly once;
* the windowed :func:`~repro.pki.validation.validate_chain` cache —
  replayed only inside the chain's validity window, keyed on the store
  generation;
* the :class:`~repro.pki.ctlog.CTLog` search cache and its invalidation.
"""

import pytest

from repro.core.analysis import consistency as consistency_mod
from repro.core.analysis import prevalence as prevalence_mod
from repro.core.analysis.study import StudyResults
from repro.errors import ChainValidationError
from repro.pki import validation as validation_mod
from repro.pki.authority import PKIHierarchy
from repro.pki.ctlog import CTLog
from repro.pki.store import RootStore
from repro.pki.validation import ValidationContext, validate_chain
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


@pytest.fixture()
def fresh_results(study_results):
    """The session study's data behind a cold memo cache."""
    return StudyResults(
        corpus=study_results.corpus,
        static_reports=study_results.static_reports,
        dynamic_results=study_results.dynamic_results,
        circumvention=study_results.circumvention,
        pii=study_results.pii,
    )


class TestStudyResultsMemos:
    def test_prevalence_computed_once(self, fresh_results, monkeypatch):
        calls = {"n": 0}
        real = prevalence_mod.dataset_prevalence

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(prevalence_mod, "dataset_prevalence", counting)
        fresh_results.table2().render()
        fresh_results.table3().render()
        fresh_results.table2().render()
        assert calls["n"] == len(fresh_results.static_reports)

    def test_pair_classification_computed_once(self, fresh_results, monkeypatch):
        calls = {"n": 0}
        real = consistency_mod.classify_pair

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(consistency_mod, "classify_pair", counting)
        fresh_results.figure2().render()
        fresh_results.figure3().render()
        fresh_results.figure4()
        assert calls["n"] == len(fresh_results.pair_classifications())

    def test_per_app_indexes_are_identity_stable(self, fresh_results):
        for platform in ("android", "ios"):
            assert fresh_results.dynamic_by_app(
                platform
            ) is fresh_results.dynamic_by_app(platform)
            assert fresh_results.static_by_app(
                platform
            ) is fresh_results.static_by_app(platform)
        assert fresh_results.dynamic_by_app(
            "android"
        ) is not fresh_results.dynamic_by_app("ios")


@pytest.fixture()
def pki_world():
    hierarchy = PKIHierarchy(DeterministicRng(71))
    issued = hierarchy.issue_leaf_chain("api.cached.com", DeterministicRng(72))
    store = RootStore("test", hierarchy.root_certificates())
    return hierarchy, issued, store


class TestValidationCache:
    def _count_checks(self, monkeypatch):
        calls = {"n": 0}
        real = validation_mod._validate_chain_checks

        def counting(chain, ctx):
            calls["n"] += 1
            return real(chain, ctx)

        monkeypatch.setattr(validation_mod, "_validate_chain_checks", counting)
        return calls

    def test_repeat_validation_served_from_cache(
        self, pki_world, monkeypatch
    ):
        _, issued, store = pki_world
        calls = self._count_checks(monkeypatch)
        ctx = ValidationContext(
            store=store, hostname="api.cached.com", at_time=STUDY_START
        )
        first = validate_chain(issued.chain, ctx)
        second = validate_chain(issued.chain, ctx)
        assert calls["n"] == 1
        assert first is second

    def test_different_time_same_window_still_cached(self, pki_world):
        _, issued, store = pki_world
        a = validate_chain(
            issued.chain,
            ValidationContext(
                store=store, hostname="api.cached.com", at_time=STUDY_START
            ),
        )
        b = validate_chain(
            issued.chain,
            ValidationContext(
                store=store,
                hostname="api.cached.com",
                at_time=STUDY_START.plus_days(5),
            ),
        )
        assert a is b

    def test_cached_success_not_replayed_after_expiry(self, pki_world):
        _, issued, store = pki_world
        ok_ctx = ValidationContext(
            store=store, hostname="api.cached.com", at_time=STUDY_START
        )
        validate_chain(issued.chain, ok_ctx)
        late = ValidationContext(
            store=store,
            hostname="api.cached.com",
            at_time=STUDY_START.plus_years(5),
        )
        with pytest.raises(ChainValidationError) as err:
            validate_chain(issued.chain, late)
        assert err.value.reason == "expired"
        # And the expired outcome itself is not cached: in-window
        # validation still succeeds afterwards.
        assert validate_chain(issued.chain, ok_ctx).is_ca

    def test_cached_failure_not_replayed_outside_window(self, pki_world):
        _, issued, store = pki_world
        mismatch = ValidationContext(
            store=store, hostname="evil.com", at_time=STUDY_START
        )
        with pytest.raises(ChainValidationError) as err:
            validate_chain(issued.chain, mismatch)
        assert err.value.reason == "hostname_mismatch"
        late = ValidationContext(
            store=store, hostname="evil.com", at_time=STUDY_START.plus_years(5)
        )
        with pytest.raises(ChainValidationError) as err:
            validate_chain(issued.chain, late)
        # Validity precedes the hostname check, so the fresh computation
        # must report expiry — a stale cache hit would say mismatch.
        assert err.value.reason == "expired"

    def test_store_mutation_invalidates(self, pki_world):
        hierarchy, issued, _ = pki_world
        empty = RootStore("empty")
        ctx = ValidationContext(
            store=empty, hostname="api.cached.com", at_time=STUDY_START
        )
        with pytest.raises(ChainValidationError) as err:
            validate_chain(issued.chain, ctx)
        assert err.value.reason == "untrusted_root"
        empty.add(issued.root.certificate)
        assert validate_chain(issued.chain, ctx).is_ca


class TestCTLogSearchCache:
    def test_miss_then_invalidated_on_log(self):
        hierarchy = PKIHierarchy(DeterministicRng(73))
        issued = hierarchy.issue_leaf_chain("pin.me.com", DeterministicRng(74))
        leaf = issued.chain.leaf
        ctlog = CTLog()
        pin = leaf.spki_pin()
        assert ctlog.search_pin(pin) == []  # miss is now cached
        ctlog.log_certificate(leaf)
        hits = ctlog.search_pin(pin)
        assert leaf in hits

    def test_repeat_searches_stable(self):
        hierarchy = PKIHierarchy(DeterministicRng(75))
        issued = hierarchy.issue_leaf_chain("stable.com", DeterministicRng(76))
        ctlog = CTLog()
        ctlog.log_chain(issued.chain)
        pin = issued.chain.leaf.spki_pin()
        assert ctlog.search_pin(pin) == ctlog.search_pin(pin)
