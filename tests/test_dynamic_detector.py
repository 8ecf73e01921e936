"""Tests for the differential detector, background handling and pipeline."""

import pytest

from repro.core.dynamic import (
    DynamicPipeline,
    detect_pinned_destinations,
    ios_excluded_destinations,
    naive_detect_pinned_destinations,
)
from repro.netsim.capture import TrafficCapture
from repro.netsim.flow import FlowRecord
from repro.tls.connection import ConnectionTrace, TEARDOWN_OPEN, TEARDOWN_RST
from repro.tls.records import ContentType, Direction, TLSRecord, TLSVersion
from repro.util.simtime import STUDY_START


def flow(sni, used, teardown=TEARDOWN_OPEN, version=TLSVersion.TLS12):
    records = [
        TLSRecord(ContentType.HANDSHAKE, Direction.CLIENT_TO_SERVER, 512),
        TLSRecord(ContentType.HANDSHAKE, Direction.SERVER_TO_CLIENT, 3000),
    ]
    if used:
        records.append(
            TLSRecord(ContentType.APPLICATION_DATA, Direction.CLIENT_TO_SERVER, 400)
        )
    return FlowRecord(
        sni=sni,
        started_at=STUDY_START,
        version=version,
        trace=ConnectionTrace(records=records, teardown=teardown),
    )


class TestDifferentialDetector:
    def test_pinned_destination_detected(self):
        direct = TrafficCapture([flow("pin.com", used=True)])
        mitm = TrafficCapture([flow("pin.com", used=False, teardown=TEARDOWN_RST)])
        verdicts = detect_pinned_destinations(direct, mitm)
        assert verdicts["pin.com"].pinned

    def test_unpinned_destination_not_detected(self):
        direct = TrafficCapture([flow("ok.com", used=True)])
        mitm = TrafficCapture([flow("ok.com", used=True)])
        assert not detect_pinned_destinations(direct, mitm)["ok.com"].pinned

    def test_requires_use_in_direct(self):
        # Failure in both settings (e.g. broken server) is not pinning.
        direct = TrafficCapture([flow("down.com", used=False, teardown=TEARDOWN_RST)])
        mitm = TrafficCapture([flow("down.com", used=False, teardown=TEARDOWN_RST)])
        assert not detect_pinned_destinations(direct, mitm)["down.com"].pinned

    def test_one_mitm_success_clears_destination(self):
        direct = TrafficCapture([flow("flaky.com", used=True)])
        mitm = TrafficCapture(
            [
                flow("flaky.com", used=False, teardown=TEARDOWN_RST),
                flow("flaky.com", used=True),
            ]
        )
        assert not detect_pinned_destinations(direct, mitm)["flaky.com"].pinned

    def test_unused_open_mitm_connection_not_failed(self):
        direct = TrafficCapture([flow("idle.com", used=True)])
        mitm = TrafficCapture([flow("idle.com", used=False, teardown=TEARDOWN_OPEN)])
        assert not detect_pinned_destinations(direct, mitm)["idle.com"].pinned

    def test_destination_missing_from_mitm_not_pinned(self):
        direct = TrafficCapture([flow("once.com", used=True)])
        mitm = TrafficCapture([])
        assert not detect_pinned_destinations(direct, mitm)["once.com"].pinned

    def test_exclusion_registrable_domain(self):
        direct = TrafficCapture([flow("gateway.icloud.com", used=True)])
        mitm = TrafficCapture(
            [flow("gateway.icloud.com", used=False, teardown=TEARDOWN_RST)]
        )
        verdicts = detect_pinned_destinations(
            direct, mitm, excluded_domains=["icloud.com"]
        )
        verdict = verdicts["gateway.icloud.com"]
        assert verdict.excluded and not verdict.pinned

    def test_exclusion_exact_host_spares_siblings(self):
        direct = TrafficCapture(
            [flow("www.vendor.com", used=True), flow("api.vendor.com", used=True)]
        )
        mitm = TrafficCapture(
            [
                flow("www.vendor.com", used=False, teardown=TEARDOWN_RST),
                flow("api.vendor.com", used=False, teardown=TEARDOWN_RST),
            ]
        )
        verdicts = detect_pinned_destinations(
            direct, mitm, excluded_domains=["www.vendor.com"]
        )
        assert verdicts["www.vendor.com"].excluded
        assert verdicts["api.vendor.com"].pinned

    def test_naive_detector_flags_any_failure(self):
        mitm = TrafficCapture(
            [
                flow("pin.com", used=False, teardown=TEARDOWN_RST),
                flow("transient.com", used=False, teardown=TEARDOWN_RST),
                flow("ok.com", used=True),
            ]
        )
        flagged = naive_detect_pinned_destinations(mitm)
        assert flagged == {"pin.com", "transient.com"}


class TestBackgroundExclusions:
    def test_includes_apple_domains(self, small_corpus):
        packaged = small_corpus.dataset("ios", "popular")[0]
        packaged.ipa.decrypt()
        excluded = ios_excluded_destinations(packaged)
        assert {"icloud.com", "apple.com", "mzstatic.com"} <= excluded

    def test_includes_entitlement_domains(self, small_corpus):
        with_assoc = [
            p
            for p in small_corpus.dataset("ios", "popular")
            if p.app.associated_domains
        ]
        packaged = with_assoc[0]
        packaged.ipa.decrypt()
        excluded = ios_excluded_destinations(packaged)
        for domain in packaged.app.associated_domains:
            assert domain in excluded


@pytest.fixture(scope="module")
def dynamic_pipeline(small_corpus):
    return DynamicPipeline(small_corpus)


class TestDynamicPipeline:
    def test_perfect_destination_detection(self, small_corpus, dynamic_pipeline):
        # Against ground truth, the differential detector should have no
        # false positives and no false negatives on contactable pinned
        # destinations — the property the paper's design aims for.
        for key in (("android", "popular"), ("ios", "popular")):
            apps = small_corpus.dataset(*key)
            for packaged in apps:
                result = dynamic_pipeline.run_app(packaged)
                app = packaged.app
                gt = {
                    u.hostname
                    for u in app.behavior.usages_within(30)
                    if app.pins_domain(u.hostname)
                }
                assert result.pinned_destinations == gt, app.app_id

    def test_app_level_detection_matches_ground_truth(
        self, small_corpus, dynamic_pipeline
    ):
        apps = small_corpus.dataset("android", "popular")
        detected = sum(
            1 for p in apps if dynamic_pipeline.run_app(p).pins()
        )
        gt = sum(1 for p in apps if p.app.pins_at_runtime())
        assert detected == gt

    def test_result_fields(self, small_corpus, dynamic_pipeline):
        packaged = small_corpus.dataset("ios", "popular")[0]
        result = dynamic_pipeline.run_app(packaged)
        assert result.platform == "ios"
        assert result.app_id == packaged.app.app_id
        assert len(result.direct_facts) > 0
        assert len(result.mitm_facts) > 0
        assert "icloud.com" in result.excluded_destinations

    def test_rerun_flag(self, small_corpus, dynamic_pipeline):
        packaged = small_corpus.dataset("ios", "popular")[0]
        result = dynamic_pipeline.run_app(packaged, pre_launch_wait_s=120.0)
        assert result.reran_with_wait


class TestDetectorVariants:
    """The named-variant entry point behind the ``detector`` config knob."""

    def _captures(self):
        direct = TrafficCapture(
            [flow("pin.com", used=True), flow("ok.com", used=True)]
        )
        mitm = TrafficCapture(
            [
                flow("pin.com", used=False, teardown=TEARDOWN_RST),
                flow("ok.com", used=True),
            ]
        )
        return direct, mitm

    def test_full_is_the_differential_detector(self):
        from repro.core.dynamic.detector import detect_verdicts

        direct, mitm = self._captures()
        assert detect_verdicts(direct, mitm) == detect_pinned_destinations(
            direct, mitm
        )

    def test_no_tls13_drops_the_heuristics(self):
        from repro.core.dynamic.detector import detect_verdicts

        direct, mitm = self._captures()
        assert detect_verdicts(
            direct, mitm, detector="no-tls13"
        ) == detect_pinned_destinations(direct, mitm, tls13_heuristics=False)

    def test_naive_keeps_the_full_verdict_universe(self):
        from repro.core.dynamic.detector import detect_verdicts

        direct, mitm = self._captures()
        naive = detect_verdicts(direct, mitm, detector="naive")
        full = detect_pinned_destinations(direct, mitm)
        assert set(naive) == set(full)
        flagged = naive_detect_pinned_destinations(mitm)
        for destination, verdict in naive.items():
            assert verdict.pinned == (destination in flagged)

    def test_unknown_variant_rejected(self):
        from repro.core.dynamic.detector import detect_verdicts

        with pytest.raises(ValueError, match="unknown detector"):
            detect_verdicts(
                TrafficCapture(), TrafficCapture(), detector="bogus"
            )

    def test_pipeline_rejects_unknown_variant(self, small_corpus):
        with pytest.raises(ValueError, match="unknown detector"):
            DynamicPipeline(small_corpus, detector="bogus")


class TestResultExclusionSymmetry:
    """``pinned_destinations`` and ``not_pinned_destinations`` apply the
    same ``excluded`` filter — a verdict marked both pinned and excluded
    must not count (regression for the former asymmetry, where only the
    not-pinned side filtered)."""

    def _result(self, verdicts):
        from repro.core.dynamic.pipeline import DynamicAppResult

        return DynamicAppResult(
            app_id="app", platform="ios", verdicts=verdicts
        )

    def test_excluded_pinned_verdict_is_filtered(self):
        from repro.core.dynamic.detector import DestinationVerdict

        result = self._result(
            {
                "pin.com": DestinationVerdict("pin.com", pinned=True),
                "bg.apple.com": DestinationVerdict(
                    "bg.apple.com", pinned=True, excluded=True
                ),
                "plain.com": DestinationVerdict("plain.com"),
            }
        )
        assert result.pinned_destinations == {"pin.com"}
        assert result.not_pinned_destinations == {"plain.com"}
        assert result.pins()

    def test_only_excluded_pins_means_app_does_not_pin(self):
        from repro.core.dynamic.detector import DestinationVerdict

        result = self._result(
            {
                "bg.apple.com": DestinationVerdict(
                    "bg.apple.com", pinned=True, excluded=True
                )
            }
        )
        assert not result.pins()

    def test_detector_never_emits_excluded_pinned(self):
        # The detector's own output keeps the invariant the property
        # guards: an excluded destination short-circuits before the
        # differential and is never marked pinned.
        direct = TrafficCapture([flow("bg.apple.com", used=True)])
        mitm = TrafficCapture(
            [flow("bg.apple.com", used=False, teardown=TEARDOWN_RST)]
        )
        verdicts = detect_pinned_destinations(
            direct, mitm, excluded_domains={"bg.apple.com"}
        )
        verdict = verdicts["bg.apple.com"]
        assert verdict.excluded and not verdict.pinned
