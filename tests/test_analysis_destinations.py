"""Unit tests for destination profiles and summaries (Figure 5)."""

import pytest

from repro.core.analysis.destinations import (
    AppDestinationProfile,
    build_destination_profiles,
    figure5_table,
    summarize_destinations,
)


class TestAppDestinationProfile:
    def test_totals_and_fraction(self):
        profile = AppDestinationProfile(
            app_id="a",
            platform="android",
            dataset="popular",
            pinned_first=1,
            pinned_third=2,
            unpinned_first=1,
            unpinned_third=4,
        )
        assert profile.total == 8
        assert profile.pinned_fraction == pytest.approx(3 / 8)
        assert not profile.pins_all_contacted()
        assert not profile.pins_all_first_party()

    def test_pins_all_contacted(self):
        profile = AppDestinationProfile(
            app_id="a", platform="ios", dataset="random", pinned_first=2
        )
        assert profile.pins_all_contacted()

    def test_pins_all_first_party(self):
        profile = AppDestinationProfile(
            app_id="a",
            platform="android",
            dataset="popular",
            pinned_first=2,
            unpinned_third=3,
        )
        assert profile.pins_all_first_party()

    def test_empty_profile(self):
        profile = AppDestinationProfile(app_id="a", platform="ios", dataset="x")
        assert profile.pinned_fraction == 0.0
        assert not profile.pins_all_contacted()


class TestSummaries:
    def _profiles(self):
        return [
            AppDestinationProfile(
                "a", "android", "popular", pinned_first=1, unpinned_third=2
            ),
            AppDestinationProfile(
                "b", "android", "popular", pinned_third=3, unpinned_first=1
            ),
            AppDestinationProfile("c", "ios", "random", pinned_third=1),
        ]

    def test_summary_counts(self):
        summary = summarize_destinations(self._profiles())
        assert summary.pinning_apps == 3
        assert summary.pinned_destinations_first == 1
        assert summary.pinned_destinations_third == 4
        assert summary.pinned_destinations_third > summary.pinned_destinations_first
        assert summary.apps_pinning_all_domains == 1
        assert summary.apps_with_first_party_pins == 1
        assert summary.apps_with_third_party_pins == 2

    def test_figure5_table_sorted_by_pinned_fraction(self):
        table = figure5_table(self._profiles())
        fractions = [row[-1] for row in table.rows]
        values = [float(f.rstrip("%")) for f in fractions]
        assert values == sorted(values, reverse=True)


class TestBuildFromStudy:
    def test_profiles_only_for_pinning_apps(self, small_corpus, study_results):
        profiles = build_destination_profiles(
            small_corpus, study_results.dynamic_results
        )
        by_id = {p.app.app_id: p for p in small_corpus.all_apps()}
        for profile in profiles:
            app = by_id[profile.app_id].app
            assert app.pins_at_runtime()
            assert profile.pinned_first + profile.pinned_third > 0

    def test_common_dataset_excluded_by_default(self, small_corpus, study_results):
        profiles = build_destination_profiles(
            small_corpus, study_results.dynamic_results
        )
        assert all(p.dataset in ("popular", "random") for p in profiles)

    def test_party_split_matches_ownership(self, small_corpus, study_results):
        profiles = build_destination_profiles(
            small_corpus, study_results.dynamic_results
        )
        by_id = {p.app.app_id: p for p in small_corpus.all_apps()}
        # Apps whose first-party api host is pinned should register a
        # pinned-first destination.
        for profile in profiles:
            app = by_id[profile.app_id].app
            own_pinned = any(
                app.owner == small_corpus.registry.parties.owner_of(d)
                for d in app.runtime_pinned_domains()
                if small_corpus.registry.parties.owner_of(d)
            )
            if own_pinned:
                assert profile.pinned_first > 0
