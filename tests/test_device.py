"""Tests for repro.device: identifiers, devices, automation harness."""

import pytest

from repro.device import (
    APPLE_BACKGROUND_DOMAINS,
    AndroidDevice,
    AutomationHarness,
    DeviceIdentifiers,
    IOSDevice,
    RunConfig,
)
from repro.device.identifiers import PII_TYPES, placeholder
from repro.errors import DeviceError
from repro.netsim.proxy import MITMProxy
from repro.util.rng import DeterministicRng


class TestIdentifiers:
    def test_generation_deterministic(self):
        a = DeviceIdentifiers.generate(DeterministicRng(1))
        b = DeviceIdentifiers.generate(DeterministicRng(1))
        assert a == b

    def test_shapes(self):
        ids = DeviceIdentifiers.generate(DeterministicRng(2))
        assert len(ids.imei) == 15 and ids.imei.isdigit()
        assert ids.ad_id.count("-") == 4
        assert ids.mac.count(":") == 5
        assert "@" in ids.email

    def test_placeholder_roundtrip(self):
        ids = DeviceIdentifiers.generate(DeterministicRng(3))
        text = f"adid={placeholder('ad_id')}&mail={placeholder('email')}"
        substituted = ids.substitute(text)
        assert ids.ad_id in substituted
        assert ids.email in substituted
        assert "{{PII:" not in substituted

    def test_placeholder_unknown_type(self):
        with pytest.raises(ValueError):
            placeholder("ssn")

    def test_as_dict_covers_all_types(self):
        ids = DeviceIdentifiers.generate(DeterministicRng(4))
        assert set(ids.as_dict()) == set(PII_TYPES)


class TestDevices:
    def test_android_device_trusts_proxy(self, small_corpus):
        proxy = MITMProxy(DeterministicRng(5))
        device = AndroidDevice(
            small_corpus.stores.android_aosp,
            DeterministicRng(6),
            proxy_ca=proxy.ca_certificate,
        )
        assert device.trusts(proxy.ca_certificate)
        assert device.platform == "android"
        assert not device.jailbroken

    def test_ios_os_services_distrust_proxy(self, small_corpus):
        proxy = MITMProxy(DeterministicRng(5))
        device = IOSDevice(
            small_corpus.stores.ios,
            DeterministicRng(6),
            proxy_ca=proxy.ca_certificate,
        )
        assert device.trusts(proxy.ca_certificate)
        assert not device.os_services_store.trusts(proxy.ca_certificate)
        assert device.jailbroken

    def test_device_store_isolated_from_catalog(self, small_corpus):
        proxy = MITMProxy(DeterministicRng(5))
        AndroidDevice(
            small_corpus.stores.android_aosp,
            DeterministicRng(6),
            proxy_ca=proxy.ca_certificate,
        )
        assert not small_corpus.stores.android_aosp.trusts(proxy.ca_certificate)


@pytest.fixture()
def harnesses(small_corpus):
    rng = DeterministicRng(99)
    proxy = MITMProxy(rng.child("proxy"))
    android = AutomationHarness(
        AndroidDevice(
            small_corpus.stores.android_aosp,
            rng.child("pixel"),
            proxy_ca=proxy.ca_certificate,
        ),
        small_corpus.registry,
        proxy,
        rng.child("ha"),
    )
    ios = AutomationHarness(
        IOSDevice(
            small_corpus.stores.ios,
            rng.child("iphone"),
            proxy_ca=proxy.ca_certificate,
        ),
        small_corpus.registry,
        proxy,
        rng.child("hi"),
    )
    return android, ios


class TestAutomationHarness:
    def test_platform_mismatch_rejected(self, small_corpus, harnesses):
        android, _ = harnesses
        ios_app = small_corpus.dataset("ios", "popular")[0]
        with pytest.raises(DeviceError):
            android.run_app(ios_app, RunConfig())

    def test_capture_covers_window_only(self, small_corpus, harnesses):
        android, _ = harnesses
        packaged = small_corpus.dataset("android", "popular")[0]
        capture = android.run_app(packaged, RunConfig(sleep_s=30))
        in_window = {
            u.hostname
            for u in packaged.app.behavior.usages_within(30)
        }
        assert capture.destinations() <= in_window

    def test_longer_window_sees_more(self, small_corpus, harnesses):
        android, _ = harnesses
        counts = {15: 0, 60: 0}
        for packaged in small_corpus.dataset("android", "popular")[:10]:
            for window in counts:
                capture = android.run_app(packaged, RunConfig(sleep_s=window))
                counts[window] += len(capture)
        assert counts[60] >= counts[15]

    def test_pii_substituted_into_payloads(self, small_corpus, harnesses):
        android, _ = harnesses
        proxy_run = RunConfig(mitm=True, transient_failure_prob=0.0)
        found_pii = False
        for packaged in small_corpus.dataset("android", "popular")[:20]:
            capture = android.run_app(packaged, proxy_run)
            for flow in capture:
                if not flow.plaintext_visible:
                    continue
                for payload in flow.decrypted_payloads():
                    flat = payload.flattened()
                    assert "{{PII:" not in flat
                    if android.device.identifiers.ad_id in flat:
                        found_pii = True
        assert found_pii

    def test_ios_background_traffic_present(self, small_corpus, harnesses):
        _, ios = harnesses
        packaged = small_corpus.dataset("ios", "popular")[0]
        capture = ios.run_app(packaged, RunConfig())
        os_flows = [f for f in capture if f.os_initiated]
        assert os_flows
        apple = {f.sni for f in os_flows}
        from repro.servers.parties import registrable_domain

        assert any(
            registrable_domain(h) in APPLE_BACKGROUND_DOMAINS for h in apple
        )

    def test_ios_rerun_wait_skips_assoc_verification(self, small_corpus, harnesses):
        _, ios = harnesses
        with_assoc = [
            p
            for p in small_corpus.dataset("ios", "popular")
            if p.app.associated_domains
        ]
        assert with_assoc, "corpus should have apps with associated domains"
        packaged = with_assoc[0]
        normal = ios.run_app(packaged, RunConfig())
        waited = ios.run_app(packaged, RunConfig(pre_launch_wait_s=120))
        normal_assoc = {
            f.sni
            for f in normal
            if f.os_initiated and "icloud" not in f.sni and "apple" not in f.sni
            and "mzstatic" not in f.sni
        }
        waited_assoc = {
            f.sni
            for f in waited
            if f.os_initiated and "icloud" not in f.sni and "apple" not in f.sni
            and "mzstatic" not in f.sni
        }
        assert waited_assoc == set()
        # The normal run may or may not have resolvable associated hosts;
        # at minimum it is a superset.
        assert normal_assoc >= waited_assoc

    def test_android_has_no_os_traffic(self, small_corpus, harnesses):
        android, _ = harnesses
        packaged = small_corpus.dataset("android", "popular")[0]
        capture = android.run_app(packaged, RunConfig())
        assert not any(f.os_initiated for f in capture)

    def test_policy_override_used(self, small_corpus, harnesses):
        android, _ = harnesses
        pinners = [
            p
            for p in small_corpus.dataset("android", "popular")
            if p.app.pins_at_runtime()
        ]
        packaged = pinners[0]
        from repro.tls.policy import CompositePolicy, TrustAllPolicy

        override = CompositePolicy(default=TrustAllPolicy())
        capture = android.run_app(
            packaged,
            RunConfig(mitm=True, policy_override=override, transient_failure_prob=0.0),
        )
        pinned = packaged.app.runtime_pinned_domains()
        pinned_flows = [f for f in capture if f.sni in pinned]
        assert pinned_flows
        assert all(f.handshake_completed for f in pinned_flows)

    def test_per_app_timeline_is_order_independent(self, small_corpus, harnesses):
        # Flow timestamps derive from the app id, not from how many apps
        # ran before — the determinism contract of the execution engine.
        android, _ = harnesses
        apps = small_corpus.dataset("android", "popular")[:2]
        first = android.run_app(apps[0], RunConfig())
        android.run_app(apps[1], RunConfig())  # unrelated run in between
        again = android.run_app(apps[0], RunConfig())
        assert [f.started_at for f in first] == [f.started_at for f in again]

    def test_install_times_spread_across_study_window(self, small_corpus, harnesses):
        from repro.device.automation import STUDY_WINDOW_DAYS

        android, _ = harnesses
        anchors = {
            android._install_time(p.app.app_id).unix
            for p in small_corpus.dataset("android", "popular")
        }
        assert len(anchors) > 1  # apps do not all share one timestamp
        window_s = STUDY_WINDOW_DAYS * 86_400
        assert all(
            0 <= unix - android._epoch.unix < window_s for unix in anchors
        )
