"""Tests for repro.tls.handshake and connection-trace synthesis."""

import pytest

from repro.pki.authority import PKIHierarchy
from repro.pki.store import StoreCatalog
from repro.servers.registry import EndpointRegistry
from repro.tls.alerts import AlertDescription
from repro.tls.ciphers import MODERN_SUITES, TLS13_SUITES, WEAK_SUITES
from repro.tls.connection import (
    TEARDOWN_FIN,
    TEARDOWN_OPEN,
    TEARDOWN_RST,
    synthesize_trace,
)
from repro.tls.handshake import (
    ClientProfile,
    negotiate_cipher,
    negotiate_version,
    perform_handshake,
)
from repro.tls.policy import SpkiPinPolicy, SystemValidationPolicy
from repro.tls.records import TLSVersion, TLS13_ENCRYPTED_ALERT_LEN
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


@pytest.fixture(scope="module")
def world():
    hierarchy = PKIHierarchy(DeterministicRng(61))
    catalog = StoreCatalog.build(hierarchy)
    registry = EndpointRegistry(hierarchy, DeterministicRng(62))
    endpoint = registry.create_default_pki_endpoint("hs.example.com", "HS")
    return catalog, endpoint


class TestNegotiation:
    def test_version_highest_common(self):
        assert (
            negotiate_version(
                [TLSVersion.TLS12, TLSVersion.TLS13],
                [TLSVersion.TLS12, TLSVersion.TLS13],
            )
            is TLSVersion.TLS13
        )

    def test_version_none_common(self):
        assert negotiate_version([TLSVersion.TLS13], [TLSVersion.TLS10]) is None

    def test_cipher_respects_version(self):
        suite = negotiate_cipher(TLSVersion.TLS13, MODERN_SUITES, MODERN_SUITES)
        assert suite.min_version == "1.3"
        suite12 = negotiate_cipher(TLSVersion.TLS12, MODERN_SUITES, MODERN_SUITES)
        assert suite12.min_version != "1.3"

    def test_cipher_none_common(self):
        assert (
            negotiate_cipher(TLSVersion.TLS12, TLS13_SUITES, list(WEAK_SUITES))
            is None
        )


class TestHandshake:
    def test_success(self, world):
        catalog, endpoint = world
        client = ClientProfile(
            sni="hs.example.com",
            policy=SystemValidationPolicy(catalog.android_aosp),
        )
        outcome = perform_handshake(client, endpoint, STUDY_START)
        assert outcome.success
        assert outcome.version is not None
        assert outcome.cipher is not None
        assert outcome.served_chain is endpoint.chain

    def test_version_mismatch(self, world):
        catalog, endpoint = world
        client = ClientProfile(
            sni="hs.example.com",
            policy=SystemValidationPolicy(catalog.android_aosp),
            offered_versions=(TLSVersion.TLS10,),
        )
        # Endpoint may or may not support 1.0; force a mismatch with 1.3-only client
        client13 = ClientProfile(
            sni="hs.example.com",
            policy=SystemValidationPolicy(catalog.android_aosp),
            offered_versions=(TLSVersion.TLS13,),
        )
        if TLSVersion.TLS13 not in endpoint.supported_versions:
            outcome = perform_handshake(client13, endpoint, STUDY_START)
            assert not outcome.success
            assert outcome.failure_reason == "no_common_version"
            assert (
                outcome.server_alert.description
                is AlertDescription.PROTOCOL_VERSION
            )

    def test_pin_rejection(self, world):
        catalog, endpoint = world
        other = PKIHierarchy(DeterministicRng(63)).issue_leaf_chain(
            "x.com", DeterministicRng(64)
        )
        policy = SpkiPinPolicy(
            [other.chain.leaf.spki_pin()],
            base=SystemValidationPolicy(catalog.android_aosp),
        )
        client = ClientProfile(sni="hs.example.com", policy=policy)
        outcome = perform_handshake(client, endpoint, STUDY_START)
        assert not outcome.success
        assert outcome.failure_reason == "pin_mismatch"
        assert outcome.client_alert.is_certificate_related()

    def test_presented_chain_override(self, world):
        catalog, endpoint = world
        forged = PKIHierarchy(DeterministicRng(65)).issue_leaf_chain(
            "hs.example.com", DeterministicRng(66)
        )
        client = ClientProfile(
            sni="hs.example.com",
            policy=SystemValidationPolicy(catalog.android_aosp),
        )
        outcome = perform_handshake(
            client, endpoint, STUDY_START, presented_chain=forged.chain
        )
        assert outcome.served_chain is forged.chain


class TestTraceSynthesis:
    def _success_outcome(self, world, version=TLSVersion.TLS13):
        catalog, endpoint = world
        client = ClientProfile(
            sni="hs.example.com",
            policy=SystemValidationPolicy(catalog.android_aosp),
            offered_versions=(version,),
        )
        return perform_handshake(client, endpoint, STUDY_START)

    def test_used_tls13_trace(self, world):
        outcome = self._success_outcome(world)
        if not outcome.success:
            pytest.skip("endpoint lacks TLS 1.3")
        trace = synthesize_trace(
            outcome, DeterministicRng(1), client_payload_records=2
        )
        app_data = trace.client_app_data_records()
        # Finished (disguised) + 2 payload records.
        assert len(app_data) == 3
        assert trace.teardown == TEARDOWN_OPEN

    def test_idle_tls13_clean_close_is_alert_sized(self, world):
        outcome = self._success_outcome(world)
        if not outcome.success:
            pytest.skip("endpoint lacks TLS 1.3")
        trace = synthesize_trace(
            outcome,
            DeterministicRng(2),
            client_payload_records=0,
            closes_cleanly=True,
        )
        app_data = trace.client_app_data_records()
        assert len(app_data) == 2
        assert app_data[1].length == TLS13_ENCRYPTED_ALERT_LEN
        assert trace.teardown == TEARDOWN_FIN

    def test_idle_tls13_left_open(self, world):
        outcome = self._success_outcome(world)
        if not outcome.success:
            pytest.skip("endpoint lacks TLS 1.3")
        trace = synthesize_trace(
            outcome,
            DeterministicRng(3),
            client_payload_records=0,
            closes_cleanly=False,
        )
        assert trace.teardown == TEARDOWN_OPEN
        assert len(trace.client_app_data_records()) == 1  # just Finished

    def test_used_tls12_trace_visible_app_data(self, world):
        outcome = self._success_outcome(world, TLSVersion.TLS12)
        trace = synthesize_trace(
            outcome, DeterministicRng(4), client_payload_records=1
        )
        assert len(trace.client_app_data_records()) == 1

    def test_rejection_trace_aborts(self, world):
        catalog, endpoint = world
        other = PKIHierarchy(DeterministicRng(67)).issue_leaf_chain(
            "y.com", DeterministicRng(68)
        )
        policy = SpkiPinPolicy(
            [other.chain.leaf.spki_pin()],
            base=SystemValidationPolicy(catalog.android_aosp),
        )
        client = ClientProfile(sni="hs.example.com", policy=policy)
        outcome = perform_handshake(client, endpoint, STUDY_START)
        trace = synthesize_trace(outcome, DeterministicRng(5))
        assert trace.teardown in (TEARDOWN_RST, TEARDOWN_FIN)
        assert trace.aborted()
