"""Tests for Frida-style circumvention."""

import pytest

from repro.core.circumvent import (
    CircumventionPipeline,
    FridaSession,
    HOOK_CATALOG,
    is_hookable,
)
from repro.core.dynamic import DynamicPipeline
from repro.device.ios import IOSDevice
from repro.errors import InstrumentationError
from repro.tls.policy import (
    CompositePolicy,
    SpkiPinPolicy,
    SystemValidationPolicy,
    TrustAllPolicy,
)
from repro.util.rng import DeterministicRng


class TestHookCatalog:
    def test_okhttp_hookable_on_android(self):
        assert is_hookable("okhttp", "android")
        assert not is_hookable("okhttp", "ios")

    def test_trustkit_hookable_on_ios(self):
        assert is_hookable("trustkit", "ios")

    def test_custom_tls_never_hookable(self):
        assert not is_hookable("custom_tls", "android")
        assert not is_hookable("custom_tls", "ios")

    def test_catalog_entries_have_entry_points(self):
        assert all(h.entry_point for h in HOOK_CATALOG)


class TestFridaSession:
    def test_requires_jailbreak_on_ios(self, small_corpus):
        device = IOSDevice(
            small_corpus.stores.ios, DeterministicRng(1), jailbroken=False
        )
        with pytest.raises(InstrumentationError):
            FridaSession(device)

    def _pin_policy(self, small_corpus, library):
        store = small_corpus.stores.android_aosp
        base = SystemValidationPolicy(store, library="conscrypt")
        endpoint = next(iter(small_corpus.registry))
        pin = SpkiPinPolicy(
            [endpoint.chain.leaf.spki_pin()], base=base, library=library
        )
        return CompositePolicy(default=base, overrides={"pinned.com": pin})

    def test_hookable_pin_bypassed(self, small_corpus):
        from repro.device.android import AndroidDevice

        device = AndroidDevice(small_corpus.stores.android_aosp, DeterministicRng(2))
        session = FridaSession(device)
        outcome = session.instrument(self._pin_policy(small_corpus, "okhttp"))
        assert outcome.bypassed_domains == {"pinned.com"}
        assert isinstance(
            outcome.patched_policy.policy_for("pinned.com"), TrustAllPolicy
        )

    def test_custom_tls_resists(self, small_corpus):
        from repro.device.android import AndroidDevice

        device = AndroidDevice(small_corpus.stores.android_aosp, DeterministicRng(2))
        session = FridaSession(device)
        outcome = session.instrument(self._pin_policy(small_corpus, "custom_tls"))
        assert outcome.resistant_domains == {"pinned.com"}

    def test_default_policy_also_neutralised(self, small_corpus):
        from repro.device.android import AndroidDevice

        device = AndroidDevice(small_corpus.stores.android_aosp, DeterministicRng(2))
        outcome = FridaSession(device).instrument(
            self._pin_policy(small_corpus, "okhttp")
        )
        assert isinstance(outcome.patched_policy.default, TrustAllPolicy)


@pytest.fixture(scope="module")
def circumvention(small_corpus):
    dynamic = DynamicPipeline(small_corpus)
    pipeline = CircumventionPipeline(dynamic)
    results = {}
    for key in [
        ("android", "popular"),
        ("ios", "popular"),
        ("android", "common"),
        ("ios", "common"),
    ]:
        results[key] = []
        for packaged in small_corpus.dataset(*key):
            result = dynamic.run_app(packaged)
            circ = pipeline.circumvent_app(packaged, result) if result.pins() else None
            if circ is not None:
                results[key].append(circ)
    return results


class TestCircumventionPipeline:
    def test_only_pinning_apps_processed(self, small_corpus, circumvention):
        for key, circ_results in circumvention.items():
            pinner_count = sum(
                1
                for p in small_corpus.dataset(*key)
                if p.app.pins_at_runtime()
            )
            assert len(circ_results) <= pinner_count

    def test_partition_of_pinned_destinations(self, circumvention):
        for circ_results in circumvention.values():
            for result in circ_results:
                assert not (
                    result.bypassed_destinations & result.resistant_destinations
                )

    def test_bypassed_traffic_decrypts(self, small_corpus, circumvention):
        pipeline = CircumventionPipeline(DynamicPipeline(small_corpus))
        by_id = {p.app.app_id: p for p in small_corpus.all_apps()}
        some_decrypted = False
        for circ_results in circumvention.values():
            for result in circ_results:
                capture = pipeline.hooked_capture(by_id[result.app_id])
                decrypted = {f.sni for f in capture if f.plaintext_visible}
                assert result.bypassed_destinations <= decrypted
                some_decrypted |= bool(result.bypassed_destinations)
        assert some_decrypted

    def test_custom_tls_apps_resist(self, small_corpus, circumvention):
        from repro.appmodel.pinning import PinMechanism

        by_id = {p.app.app_id: p for p in small_corpus.all_apps()}
        for circ_results in circumvention.values():
            for result in circ_results:
                app = by_id[result.app_id].app
                for spec in app.active_specs():
                    if spec.mechanism is PinMechanism.CUSTOM_TLS:
                        for domain in spec.domains:
                            if domain in result.bypassed_destinations:
                                pytest.fail(
                                    f"custom-TLS pin {domain} was bypassed"
                                )

    def test_aggregate_bypass_rate_in_range(self, circumvention):
        all_results = [r for rs in circumvention.values() for r in rs]
        rate = CircumventionPipeline.destination_bypass_rate(all_results)
        assert 0.0 < rate < 1.0
