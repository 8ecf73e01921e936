"""Unit tests for the cipher-security analysis (Table 8)."""


from repro.core.analysis.security import analyze_ciphers
from repro.core.dynamic.pipeline import DynamicAppResult
from repro.core.dynamic.detector import DestinationVerdict
from repro.netsim.flow import FlowRecord, flow_facts
from repro.tls.ciphers import MODERN_SUITES, WEAK_SUITES
from repro.util.simtime import STUDY_START


def flow(sni, weak):
    suites = MODERN_SUITES + ((WEAK_SUITES[0],) if weak else ())
    return FlowRecord(
        sni=sni, started_at=STUDY_START, offered_suites=tuple(suites)
    )


def result(app_id, flows, pinned=()):
    verdicts = {}
    for f in flows:
        verdicts.setdefault(
            f.sni,
            DestinationVerdict(destination=f.sni, pinned=f.sni in pinned),
        )
    return DynamicAppResult(
        app_id=app_id,
        platform="android",
        verdicts=verdicts,
        direct_facts=flow_facts(flows, pii_types=None),
    )


class TestAnalyzeCiphers:
    def test_overall_counts_any_weak_flow(self):
        results = [
            result("a", [flow("x.com", True), flow("y.com", False)]),
            result("b", [flow("x.com", False)]),
        ]
        cell = analyze_ciphers(results)
        assert cell.overall_rate == 0.5
        assert cell.pinning_apps == 0
        assert cell.pinning_rate == 0.0

    def test_pinning_rate_only_pinned_flows(self):
        results = [
            # Weak cipher only on an unpinned destination: the pinning
            # column must not count it.
            result(
                "a",
                [flow("pin.com", False), flow("other.com", True)],
                pinned={"pin.com"},
            ),
            # Weak cipher on the pinned destination itself.
            result(
                "b",
                [flow("pin.com", True)],
                pinned={"pin.com"},
            ),
        ]
        cell = analyze_ciphers(results)
        assert cell.pinning_apps == 2
        assert cell.pinning_rate == 0.5
        assert cell.overall_rate == 1.0

    def test_empty(self):
        cell = analyze_ciphers([])
        assert cell.overall_rate == 0.0
        assert cell.pinning_rate == 0.0

    def test_weak_advertisement_detection(self):
        (weak,) = flow_facts([flow("x.com", True)], pii_types=None)
        (strong,) = flow_facts([flow("x.com", False)], pii_types=None)
        assert weak.weak_offer
        assert not strong.weak_offer
