"""Tests for the corpus generator (uses the session small corpus)."""

import pytest

from repro.appmodel.android import AndroidApp
from repro.appmodel.ios import IOSApp
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.corpus.common import consistency_class_counts, ios_category
from repro.corpus.profiles import DATASET_PROFILES


class TestCorpusStructure:
    def test_all_datasets_present(self, small_corpus):
        assert set(small_corpus.datasets) == {
            (p, d)
            for p in ("android", "ios")
            for d in ("common", "popular", "random")
        }

    def test_dataset_sizes_match_config(self, small_corpus):
        config = CorpusConfig().scaled(0.06)
        assert len(small_corpus.dataset("android", "common")) == config.common
        assert len(small_corpus.dataset("ios", "popular")) == config.popular

    def test_package_types(self, small_corpus):
        assert all(
            isinstance(p, AndroidApp)
            for p in small_corpus.dataset("android", "popular")
        )
        assert all(
            isinstance(p, IOSApp) for p in small_corpus.dataset("ios", "popular")
        )

    def test_common_pairs_linked(self, small_corpus):
        pairs = small_corpus.common_pairs()
        assert len(pairs) == len(small_corpus.dataset("android", "common"))
        for android, ios in pairs:
            assert android.app.owner == ios.app.owner
            assert (
                android.app.cross_platform_id == ios.app.cross_platform_id
            )

    def test_unique_app_ids(self, small_corpus):
        ids = [p.app.app_id for p in small_corpus.all_apps()]
        assert len(ids) == len(set(ids))

    def test_find_app(self, small_corpus):
        some = small_corpus.dataset("android", "popular")[0]
        assert small_corpus.find_app(some.app.app_id) is some
        from repro.errors import CorpusError

        with pytest.raises(CorpusError):
            small_corpus.find_app("com.does.not.exist")


class TestCalibration:
    @pytest.mark.parametrize("platform", ["android", "ios"])
    @pytest.mark.parametrize("dataset", ["popular", "random"])
    def test_pinner_counts_on_target(self, small_corpus, platform, dataset):
        apps = small_corpus.dataset(platform, dataset)
        profile = DATASET_PROFILES[(platform, dataset)]
        pinners = sum(1 for a in apps if a.app.pins_at_runtime())
        expected = round(profile.dynamic_pin_rate * len(apps))
        assert abs(pinners - expected) <= 1

    @pytest.mark.parametrize("platform", ["android", "ios"])
    @pytest.mark.parametrize("dataset", ["common", "popular", "random"])
    def test_embedded_counts_on_target(self, small_corpus, platform, dataset):
        apps = small_corpus.dataset(platform, dataset)
        profile = DATASET_PROFILES[(platform, dataset)]
        embedded = sum(1 for a in apps if a.app.embeds_pin_material())
        expected = round(profile.embedded_material_rate * len(apps))
        assert abs(embedded - expected) <= 2

    def test_every_pinned_domain_has_endpoint(self, small_corpus):
        for packaged in small_corpus.all_apps():
            for domain in packaged.app.runtime_pinned_domains():
                assert small_corpus.registry.knows(domain)

    def test_every_behavior_host_has_endpoint(self, small_corpus):
        for packaged in small_corpus.all_apps():
            for host in packaged.app.behavior.destinations():
                assert small_corpus.registry.knows(host)

    def test_specs_resolved(self, small_corpus):
        for packaged in small_corpus.all_apps():
            for spec in packaged.app.pinning_specs:
                assert set(spec.resolved) == set(spec.domains)

    def test_pinned_usages_start_early(self, small_corpus):
        for packaged in small_corpus.all_apps():
            app = packaged.app
            for usage in app.behavior.usages:
                if app.pins_domain(usage.hostname):
                    assert usage.start_offset_s <= 20.0

    def test_random_android_pinners_have_no_pinning_sdks(self, small_corpus):

        for packaged in small_corpus.dataset("android", "random"):
            app = packaged.app
            if not app.pins_at_runtime():
                continue
            for spec in app.active_specs():
                assert spec.source == "first-party"


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        config = CorpusConfig(seed=77).scaled(0.01)
        a = CorpusGenerator(config).generate()
        b = CorpusGenerator(config).generate()
        ids_a = [p.app.app_id for p in a.all_apps()]
        ids_b = [p.app.app_id for p in b.all_apps()]
        assert ids_a == ids_b
        pins_a = {
            p.app.app_id: sorted(p.app.runtime_pinned_domains())
            for p in a.all_apps()
        }
        pins_b = {
            p.app.app_id: sorted(p.app.runtime_pinned_domains())
            for p in b.all_apps()
        }
        assert pins_a == pins_b

    def test_different_seed_differs(self):
        a = CorpusGenerator(CorpusConfig(seed=1).scaled(0.01)).generate()
        b = CorpusGenerator(CorpusConfig(seed=2).scaled(0.01)).generate()
        pins_a = sorted(
            d for p in a.all_apps() for d in p.app.runtime_pinned_domains()
        )
        pins_b = sorted(
            d for p in b.all_apps() for d in p.app.runtime_pinned_domains()
        )
        assert pins_a != pins_b


class TestCommonPlanner:
    def test_class_counts_scale(self):
        counts = consistency_class_counts(575)
        assert counts["both_identical"] == 13
        assert counts["android_only_inconsistent"] == 10
        assert counts["ios_only_inconclusive"] == 15
        assert counts["none"] == 575 - 69

    def test_class_counts_small(self):
        counts = consistency_class_counts(60)
        assert counts["none"] >= 0
        assert all(v >= 0 for v in counts.values())

    def test_ios_category_mapping(self):
        assert ios_category("Social") == "Social Networking"
        assert ios_category("Finance") == "Finance"
        assert ios_category("Personalization") == "Utilities"
        assert ios_category("Weather Tools") == "Weather"
