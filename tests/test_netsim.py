"""Tests for repro.netsim: flows, proxy, capture, simulate."""

import pytest

from repro.errors import AnalysisError, CorpusError
from repro.netsim import (
    Destination,
    FlowRecord,
    MITMProxy,
    Payload,
    TrafficCapture,
    simulate_flow,
)
from repro.pki.authority import PKIHierarchy
from repro.pki.store import StoreCatalog
from repro.pki.validation import ValidationContext, chain_is_valid
from repro.servers.registry import EndpointRegistry
from repro.tls.handshake import ClientProfile
from repro.tls.policy import (
    NSCDomainRule,
    NSCPinPolicy,
    SpkiPinPolicy,
    SystemValidationPolicy,
)
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START, Timestamp


@pytest.fixture(scope="module")
def world():
    hierarchy = PKIHierarchy(DeterministicRng(71))
    catalog = StoreCatalog.build(hierarchy)
    registry = EndpointRegistry(hierarchy, DeterministicRng(72))
    endpoint = registry.create_default_pki_endpoint("flow.example.com", "FlowCo")
    proxy = MITMProxy(DeterministicRng(73))
    device_store = catalog.android_aosp.copy("device")
    device_store.add(proxy.ca_certificate)
    return catalog, registry, endpoint, proxy, device_store


class TestPayload:
    def test_flattened_contains_fields(self):
        payload = Payload(fields=(("k", "v"),), headers=(("H", "1"),))
        flat = payload.flattened()
        assert "k=v" in flat
        assert "H: 1" in flat


class TestProxy:
    def test_forged_chain_mimics_names(self, world):
        _, _, endpoint, proxy, _ = world
        forged = proxy.forge_chain(endpoint)
        assert forged.leaf.subject.common_name == endpoint.chain.leaf.subject.common_name
        assert forged.leaf.san == endpoint.chain.leaf.san
        assert forged.terminal is proxy.ca_certificate

    def test_forged_chain_cached(self, world):
        _, _, endpoint, proxy, _ = world
        assert proxy.forge_chain(endpoint) is proxy.forge_chain(endpoint)

    def test_forged_chain_validates_with_proxy_ca(self, world):
        catalog, _, endpoint, proxy, device_store = world
        forged = proxy.forge_chain(endpoint)
        ctx = ValidationContext(
            store=device_store, hostname="flow.example.com", at_time=STUDY_START
        )
        assert chain_is_valid(forged, ctx)
        # ...but not against a store missing the proxy CA.
        ctx_clean = ValidationContext(
            store=catalog.android_aosp,
            hostname="flow.example.com",
            at_time=STUDY_START,
        )
        assert not chain_is_valid(forged, ctx_clean)


class TestSimulateFlow:
    def _client(self, device_store, pin_chain=None):
        base = SystemValidationPolicy(device_store)
        if pin_chain is None:
            return ClientProfile(sni="flow.example.com", policy=base)
        policy = SpkiPinPolicy([pin_chain.leaf.spki_pin()], base=base)
        return ClientProfile(sni="flow.example.com", policy=policy)

    def test_direct_used_flow(self, world):
        _, _, endpoint, _, device_store = world
        flow = simulate_flow(
            Destination(self._client(device_store), endpoint),
            STUDY_START,
            DeterministicRng(1),
            payloads=[Payload()],
        )
        assert flow.handshake_completed
        assert not flow.plaintext_visible
        with pytest.raises(AnalysisError):
            flow.decrypted_payloads()

    def test_mitm_decrypts_unpinned(self, world):
        _, _, endpoint, proxy, device_store = world
        flow = simulate_flow(
            Destination(self._client(device_store), endpoint, proxy=proxy),
            STUDY_START,
            DeterministicRng(2),
            payloads=[Payload(fields=(("a", "b"),))],
        )
        assert flow.plaintext_visible
        assert flow.decrypted_payloads()[0].fields == (("a", "b"),)

    def test_mitm_blocked_by_pin(self, world):
        _, _, endpoint, proxy, device_store = world
        flow = simulate_flow(
            Destination(
                self._client(device_store, pin_chain=endpoint.chain),
                endpoint,
                proxy=proxy,
                gt_pinned=True,
            ),
            STUDY_START,
            DeterministicRng(3),
            payloads=[Payload()],
        )
        assert not flow.handshake_completed
        assert not flow.plaintext_visible
        assert flow.trace.aborted()
        assert flow.gt_failure_reason == "pin_mismatch"

    def test_pinned_direct_succeeds(self, world):
        _, _, endpoint, _, device_store = world
        flow = simulate_flow(
            Destination(self._client(device_store, pin_chain=endpoint.chain), endpoint),
            STUDY_START,
            DeterministicRng(4),
            payloads=[Payload()],
        )
        assert flow.handshake_completed

    def test_transient_failure(self, world):
        _, _, endpoint, _, device_store = world
        flow = simulate_flow(
            Destination(self._client(device_store), endpoint),
            STUDY_START,
            DeterministicRng(5),
            payloads=[Payload()],
            transient_failure_prob=1.0,
        )
        assert not flow.handshake_completed
        assert flow.gt_failure_reason == "transient"
        assert flow.trace.teardown == "rst"

    def test_redundant_connection(self, world):
        _, _, endpoint, _, device_store = world
        flow = simulate_flow(
            Destination(self._client(device_store), endpoint),
            STUDY_START,
            DeterministicRng(6),
            payloads=[],
        )
        assert flow.handshake_completed
        assert not flow.plaintext_visible

    def test_fingerprint_set(self, world):
        _, _, endpoint, _, device_store = world
        flow = simulate_flow(
            Destination(self._client(device_store), endpoint),
            STUDY_START,
            DeterministicRng(7),
        )
        assert flow.client_fingerprint


class TestDestinationHandshakes:
    """The handshake is computed once per destination and exact time."""

    def _destination(self, policy, endpoint, proxy=None):
        client = ClientProfile(sni="flow.example.com", policy=policy)
        return Destination(client, endpoint, proxy=proxy)

    def test_same_time_reuses_the_outcome(self, world):
        _, _, endpoint, _, device_store = world
        destination = self._destination(SystemValidationPolicy(device_store), endpoint)
        assert destination.handshake(STUDY_START) is destination.handshake(STUDY_START)

    def test_chain_expiring_between_connections(self, world):
        _, _, endpoint, _, device_store = world
        expiry = Timestamp(min(cert.not_after.unix for cert in endpoint.chain))
        destination = self._destination(SystemValidationPolicy(device_store), endpoint)
        assert destination.handshake(expiry).success
        late = destination.handshake(expiry.plus_seconds(1))
        assert not late.success
        assert late.failure_reason == "expired"

    def test_nsc_pin_set_expiring_between_connections(self, world):
        _, _, endpoint, proxy, device_store = world
        rule = NSCDomainRule(
            domain="flow.example.com",
            pins=frozenset({endpoint.chain.leaf.spki_pin()}),
            pin_set_expiration=STUDY_START,
        )
        policy = NSCPinPolicy([rule], base=SystemValidationPolicy(device_store))
        destination = self._destination(policy, endpoint, proxy=proxy)
        # The pin-set still rejects the forgery at its expiry second...
        assert destination.handshake(STUDY_START).failure_reason == "pin_mismatch"
        # ...and has lapsed to default validation, which trusts the proxy
        # CA on this device, one second later.
        assert destination.handshake(STUDY_START.plus_seconds(1)).success


class TestTrafficCapture:
    def _flow(self, sni, app_id="app", os_initiated=False):
        return FlowRecord(
            sni=sni,
            started_at=STUDY_START,
            app_id=app_id,
            os_initiated=os_initiated,
        )

    def test_filters(self):
        capture = TrafficCapture(
            [
                self._flow("a.com", "app1"),
                self._flow("b.com", "app2"),
                self._flow("a.com", "app1", os_initiated=True),
            ]
        )
        assert len(capture.for_destination("A.COM")) == 2
        assert capture.destinations() == {"a.com", "b.com"}

    def test_by_destination(self):
        capture = TrafficCapture([self._flow("a.com"), self._flow("a.com")])
        grouped = capture.by_destination()
        assert len(grouped["a.com"]) == 2


class TestRegistry:
    def test_unknown_host_raises(self, world):
        _, registry, _, _, _ = world
        with pytest.raises(CorpusError):
            registry.resolve("nonexistent.example.org")

    def test_idempotent_creation(self, world):
        _, registry, endpoint, _, _ = world
        again = registry.create_default_pki_endpoint("flow.example.com", "FlowCo")
        assert again is endpoint

    def test_ct_logged(self, world):
        _, registry, endpoint, _, _ = world
        hits = registry.ctlog.search_pin(endpoint.chain.leaf.spki_pin())
        assert hits

    def test_self_signed_endpoint(self, world):
        _, registry, _, _, _ = world
        endpoint = registry.create_self_signed_endpoint(
            "lonely.selfco.net", "SelfCo", lifetime_years=27.0
        )
        assert endpoint.chain.is_single_self_signed()
        assert endpoint.pki_kind == "self-signed"
        assert endpoint.chain.leaf.validity_years() == pytest.approx(27.0, abs=0.2)

    def test_custom_pki_endpoint_not_ct_logged(self, world):
        _, registry, _, _, _ = world
        hierarchy = registry.hierarchy
        authority = hierarchy.mint_custom_root("PrivateCo")
        endpoint = registry.create_custom_pki_endpoint(
            "internal.privateco.com", "PrivateCo", authority
        )
        assert endpoint.pki_kind == "custom"
        assert registry.ctlog.search_pin(endpoint.chain.leaf.spki_pin()) == []

    def test_party_directory(self, world):
        _, registry, _, _, _ = world
        assert registry.parties.owner_of("flow.example.com") == "FlowCo"
        assert (
            registry.parties.classify("flow.example.com", "FlowCo") == "first"
        )
        assert (
            registry.parties.classify("flow.example.com", "OtherCo") == "third"
        )
