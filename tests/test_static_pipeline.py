"""Tests for the static pipeline and attribution against ground truth."""

import pytest

from repro.core.static.attribution import attribute_findings
from repro.core.static.pipeline import StaticPipeline


@pytest.fixture(scope="module")
def pipeline(small_corpus):
    return StaticPipeline(small_corpus.registry)


class TestStaticPipeline:
    @pytest.mark.parametrize("platform", ["android", "ios"])
    @pytest.mark.parametrize("dataset", ["common", "popular", "random"])
    def test_embedded_matches_ground_truth(
        self, small_corpus, pipeline, platform, dataset
    ):
        apps = small_corpus.dataset(platform, dataset)
        reports = [pipeline.analyze_app(packaged) for packaged in apps]
        for packaged, report in zip(apps, reports):
            assert report.embedded_material == packaged.app.embeds_pin_material(), (
                packaged.app.app_id
            )

    def test_nsc_matches_ground_truth(self, small_corpus, pipeline):
        from repro.appmodel.pinning import PinMechanism

        apps = small_corpus.dataset("android", "common")
        reports = [pipeline.analyze_app(packaged) for packaged in apps]
        for packaged, report in zip(apps, reports):
            gt = any(
                s.mechanism is PinMechanism.NSC
                for s in packaged.app.pinning_specs
            )
            assert report.nsc_pins == gt

    def test_ios_reports_record_decryption_tool(self, small_corpus, pipeline):
        report = pipeline.analyze_app(small_corpus.dataset("ios", "popular")[0])
        assert report.decryption_tool == "flexdecrypt"

    def test_android_reports_record_decompiler_sentinel(
        self, small_corpus, pipeline
    ):
        # Android needs no decryption, but the tool field must never be
        # empty — the audit catalogue's static-decryption-tool rule
        # asserts provenance on every report row.
        from repro.core.static.pipeline import ANDROID_DECOMPILER

        report = pipeline.analyze_app(
            small_corpus.dataset("android", "popular")[0]
        )
        assert report.decryption_tool == ANDROID_DECOMPILER == "apktool-sim"

    def test_pin_strings_resolvable_for_default_pki(self, small_corpus, pipeline):
        # At least some statically found pins resolve through CT, and
        # custom-PKI pins never do.
        resolved_any = False
        for packaged in small_corpus.dataset("android", "popular"):
            report = pipeline.analyze_app(packaged)
            if report.ct.resolved:
                resolved_any = True
                break
        assert resolved_any

    def test_native_ablation_finds_less(self, small_corpus):
        full = StaticPipeline(small_corpus.registry, include_native=True)
        no_native = StaticPipeline(
            small_corpus.registry, include_native=False
        )
        apps = small_corpus.all_apps("android")
        found_full = sum(
            1 for a in apps if full.analyze_app(a).embedded_material
        )
        found_partial = sum(
            1 for a in apps if no_native.analyze_app(a).embedded_material
        )
        assert found_partial <= found_full


class TestAttribution:
    def test_recurring_sdk_paths_attributed(self):
        paths = {
            f"app{i}": [f"smali/com/twitter/sdk/CertificatePinner{i}.smali"]
            for i in range(8)
        }
        result = attribute_findings(paths)
        assert "Twitter" in result.framework_apps
        assert len(result.framework_apps["Twitter"]) == 8

    def test_below_threshold_ignored(self):
        paths = {
            f"app{i}": ["smali/com/twitter/sdk/P.smali"] for i in range(3)
        }
        result = attribute_findings(paths)
        assert "Twitter" not in result.framework_apps

    def test_generic_basenames_excluded(self):
        paths = {f"app{i}": ["assets/config.json"] for i in range(20)}
        result = attribute_findings(paths)
        assert result.framework_apps == {}
        assert result.unattributed_paths == []

    def test_unknown_recurring_path_surfaced(self):
        paths = {f"app{i}": ["mystery/certs/pinned.bin"] for i in range(9)}
        result = attribute_findings(paths)
        assert result.unattributed_paths == [("mystery/certs/pinned.bin", 9)]

    def test_top_ordering(self):
        paths = {}
        for i in range(10):
            paths[f"a{i}"] = ["smali/com/twitter/sdk/X.smali"]
        for i in range(7):
            paths[f"b{i}"] = ["smali/com/braintreepayments/api/Y.smali"]
        result = attribute_findings(paths)
        top = result.top(2)
        assert top[0] == ("Twitter", 10)
        assert top[1] == ("Braintree", 7)

    def test_ios_framework_paths(self):
        paths = {
            f"app{i}": [
                "Payload/X.app/Frameworks/Stripe.framework/Stripe"
            ]
            for i in range(6)
        }
        result = attribute_findings(paths)
        assert "Stripe" in result.framework_apps
