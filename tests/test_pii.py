"""Tests for PII detection and the pinned/non-pinned comparison."""

import pytest

from repro.core.pii import PIIDetector, compare_pii_prevalence
from repro.device.identifiers import DeviceIdentifiers
from repro.errors import AnalysisError
from repro.netsim.flow import FlowRecord, Payload
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


@pytest.fixture
def identifiers():
    return DeviceIdentifiers.generate(DeterministicRng(111))


def decrypted_flow(sni, fields):
    return FlowRecord(
        sni=sni,
        started_at=STUDY_START,
        plaintext_visible=True,
        _payloads=(Payload(fields=tuple(fields)),),
    )


class TestPIIDetector:
    def test_finds_ad_id(self, identifiers):
        detector = PIIDetector(identifiers)
        flow = decrypted_flow("x.com", [("idfa", identifiers.ad_id)])
        hits = detector.scan_flow(flow)
        assert [h.pii_type for h in hits] == ["ad_id"]
        assert hits[0].field_key == "idfa"

    def test_finds_value_embedded_in_larger_string(self, identifiers):
        detector = PIIDetector(identifiers)
        flow = decrypted_flow(
            "x.com", [("blob", f"prefix-{identifiers.email}-suffix")]
        )
        assert detector.flow_pii_types(flow) == {"email"}

    def test_multiple_types(self, identifiers):
        detector = PIIDetector(identifiers)
        flow = decrypted_flow(
            "x.com",
            [("a", identifiers.imei), ("b", identifiers.city), ("c", "benign")],
        )
        assert detector.flow_pii_types(flow) == {"imei", "city"}

    def test_clean_flow(self, identifiers):
        detector = PIIDetector(identifiers)
        flow = decrypted_flow("x.com", [("k", "v")])
        assert detector.scan_flow(flow) == []

    def test_encrypted_flow_rejected(self, identifiers):
        detector = PIIDetector(identifiers)
        flow = FlowRecord(sni="x.com", started_at=STUDY_START)
        with pytest.raises(AnalysisError):
            detector.scan_flow(flow)

    def test_prevalence(self, identifiers):
        detector = PIIDetector(identifiers)
        flows = [
            decrypted_flow("a.com", [("id", identifiers.ad_id)]),
            decrypted_flow("b.com", [("k", "v")]),
        ]
        prevalence = detector.prevalence(flows)
        assert prevalence["ad_id"] == 0.5
        assert prevalence["email"] == 0.0

    def test_prevalence_empty(self, identifiers):
        assert PIIDetector(identifiers).prevalence([])["ad_id"] == 0.0


class TestComparison:
    def test_rates_and_significance(self, identifiers):
        detector = PIIDetector(identifiers)
        pinned = [
            decrypted_flow("p.com", [("id", identifiers.ad_id)])
            for _ in range(80)
        ] + [decrypted_flow("p.com", [("k", "v")]) for _ in range(20)]
        non_pinned = [
            decrypted_flow("n.com", [("id", identifiers.ad_id)])
            for _ in range(20)
        ] + [decrypted_flow("n.com", [("k", "v")]) for _ in range(80)]
        comparison = compare_pii_prevalence(
            "android", detector.capture_facts(pinned), detector.capture_facts(non_pinned)
        )
        row = comparison.row("ad_id")
        assert row.pinned_rate == pytest.approx(0.8)
        assert row.non_pinned_rate == pytest.approx(0.2)
        assert row.significant

    def test_equal_rates_not_significant(self, identifiers):
        detector = PIIDetector(identifiers)
        flows = [
            decrypted_flow("x.com", [("id", identifiers.ad_id)])
            for _ in range(50)
        ] + [decrypted_flow("x.com", [("k", "v")]) for _ in range(50)]
        facts = detector.capture_facts(flows)
        comparison = compare_pii_prevalence("ios", facts, list(facts))
        assert not comparison.row("ad_id").significant

    def test_absent_type_has_no_test(self, identifiers):
        detector = PIIDetector(identifiers)
        facts = detector.capture_facts([decrypted_flow("x.com", [("k", "v")])])
        comparison = compare_pii_prevalence("ios", facts, facts)
        assert comparison.row("mac").chi_square is None

    def test_unknown_type_raises(self, identifiers):
        detector = PIIDetector(identifiers)
        comparison = compare_pii_prevalence("ios", [], [])
        with pytest.raises(KeyError):
            comparison.row("ssn")

    def test_undecrypted_flows_skipped(self, identifiers):
        detector = PIIDetector(identifiers)
        encrypted = detector.capture_facts([FlowRecord(sni="x.com", started_at=STUDY_START)])
        comparison = compare_pii_prevalence("ios", encrypted, encrypted)
        assert comparison.row("ad_id").pinned_total == 0


def non_pinned_capture_flows(pipeline, runs):
    """Table 9's non-pinned side, selected from the MITM captures of
    ``runs``, ``(packaged, dynamic result)`` pairs."""
    return [
        flow
        for packaged, result in runs
        for flow in pipeline.captures(packaged, wait=120.0 if result.reran_with_wait else 0.0)[1]
        if flow.plaintext_visible
        and not flow.os_initiated
        and flow.sni not in result.pinned_destinations
        and flow.sni not in result.excluded_destinations
    ]


def pinned_capture_flows(pipeline, runs):
    """Table 9's pinned side, selected from the hooked captures of
    ``runs``, ``(packaged, circumvention result)`` pairs: the flows to
    bypassed destinations that the proxy decrypted."""
    return [
        flow
        for packaged, circ in runs
        for flow in pipeline.hooked_capture(packaged)
        if flow.sni in circ.bypassed_destinations and flow.plaintext_visible
    ]


class TestCaptureFacts:
    def test_rows_mirror_the_flows(self, identifiers):
        detector = PIIDetector(identifiers)
        flows = [
            decrypted_flow("a.com", [("id", identifiers.ad_id)]),
            FlowRecord(sni="b.com", started_at=STUDY_START, os_initiated=True),
        ]
        plain, encrypted = detector.capture_facts(flows)
        assert (plain.sni, plain.plaintext, plain.os_initiated) == ("a.com", True, False)
        assert plain.pii == {"ad_id"}
        assert (encrypted.sni, encrypted.plaintext, encrypted.os_initiated) == (
            "b.com",
            False,
            True,
        )
        assert encrypted.pii == frozenset()

    def test_rows_are_shared_and_unpickle_shared(self, identifiers):
        import pickle

        detector = PIIDetector(identifiers)
        one, two = detector.capture_facts(
            [decrypted_flow("a.com", [("k", "v")]), decrypted_flow("a.com", [("k", "v")])]
        )
        assert one is two
        assert pickle.loads(pickle.dumps(one)) is one


class TestSinglePassCounts:
    def test_study_counts_equal_a_per_type_rescan(self):
        """Table 9 counts the facts rows the pipelines built; a rescan of
        the same flows in the captures, per PII type, agrees."""
        from repro.core.analysis import Study
        from repro.corpus import CorpusConfig, CorpusGenerator
        from repro.device.identifiers import PII_TYPES

        corpus = CorpusGenerator(CorpusConfig(seed=2022).scaled(0.02)).generate()
        study = Study(corpus)
        results = study.run()
        devices = {
            "android": study.dynamic_pipeline.android_device,
            "ios": study.dynamic_pipeline.ios_device,
        }
        packaged = {
            (platform, p.app.app_id): p
            for (platform, _), apps in corpus.datasets.items()
            for p in apps
        }
        found = 0
        for platform, comparison in results.pii.items():
            detector = PIIDetector(devices[platform].identifiers)
            dynamic = [
                (packaged[(platform, result.app_id)], result)
                for (plat, _), per_dataset in sorted(results.dynamic_results.items())
                if plat == platform
                for result in per_dataset
            ]
            circumvented = [
                (packaged[(platform, circ.app_id)], circ)
                for circ in results.circumvention[platform]
            ]
            sides = {
                "pinned": pinned_capture_flows(study.circumvention_pipeline, circumvented),
                "non_pinned": non_pinned_capture_flows(study.dynamic_pipeline, dynamic),
            }
            for pii_type in PII_TYPES:
                row = comparison.row(pii_type)
                for side, flows in sides.items():
                    visible = [f for f in flows if f.plaintext_visible]
                    rescan = sum(
                        1
                        for f in visible
                        if any(hit.pii_type == pii_type for hit in detector.scan_flow(f))
                    )
                    assert getattr(row, f"{side}_count") == rescan, (platform, pii_type)
                    assert getattr(row, f"{side}_total") == len(visible)
                    found += rescan
        assert found > 0
