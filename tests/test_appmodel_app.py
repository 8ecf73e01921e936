"""Tests for repro.appmodel.app, behavior, package builders."""

import pytest

from repro.appmodel.android import build_android_package
from repro.appmodel.app import MobileApp
from repro.appmodel.behavior import DestinationUsage, NetworkBehavior
from repro.appmodel.ios import build_ios_package
from repro.appmodel.package import (
    PackagingContext,
    deobfuscate_token,
    obfuscate_token,
)
from repro.appmodel.pinning import PinForm, PinMechanism, PinningSpec, PinScope
from repro.errors import AppModelError, PackageEncryptedError
from repro.pki.authority import PKIHierarchy
from repro.pki.store import StoreCatalog
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


@pytest.fixture(scope="module")
def world():
    hierarchy = PKIHierarchy(DeterministicRng(91))
    catalog = StoreCatalog.build(hierarchy)
    issued = hierarchy.issue_leaf_chain("api.pinme.com", DeterministicRng(92))
    return hierarchy, catalog, issued


def make_app(world, platform="android", mechanism=PinMechanism.OKHTTP, **kwargs):
    hierarchy, catalog, issued = world
    spec = PinningSpec(
        domains=("api.pinme.com",), mechanism=mechanism, scope=PinScope.LEAF
    )
    spec.resolve_domain("api.pinme.com", issued.chain)
    defaults = dict(
        app_id=f"com.pinme.{platform}",
        name="Pin Me",
        platform=platform,
        category="Finance",
        owner="PinMe Inc",
        pinning_specs=[spec],
        behavior=NetworkBehavior(
            [
                DestinationUsage("api.pinme.com"),
                DestinationUsage("cdn.other.com", start_offset_s=40.0),
            ]
        ),
    )
    defaults.update(kwargs)
    return MobileApp(**defaults)


def other_leaf(world):
    """A system-trusted chain for the pinned host under a leaf key the
    app's pin does not name."""
    hierarchy, _, _ = world
    return hierarchy.issue_leaf_chain("api.pinme.com", DeterministicRng(93)).chain


class TestMobileApp:
    def test_platform_validation(self, world):
        with pytest.raises(AppModelError):
            make_app(world, platform="windows")

    def test_ground_truth_predicates(self, world):
        app = make_app(world)
        assert app.pins_at_runtime()
        assert app.pins_domain("api.pinme.com")
        assert app.pins_domain("sub.api.pinme.com")
        assert not app.pins_domain("cdn.other.com")
        assert app.runtime_pinned_domains() == {"api.pinme.com"}

    def test_dormant_spec_not_runtime(self, world):
        app = make_app(world)
        app.pinning_specs[0].dormant = True
        assert not app.pins_at_runtime()
        assert app.static_visible_specs()

    def test_obfuscated_spec_not_static(self, world):
        app = make_app(world)
        app.pinning_specs[0].obfuscated = True
        assert app.pins_at_runtime()
        assert not app.static_visible_specs()
        assert not app.embeds_pin_material()

    def test_nsc_specs_excluded_from_embed_ground_truth(self, world):
        app = make_app(world, mechanism=PinMechanism.NSC)
        assert not app.embeds_pin_material()

    def test_runtime_policy_pins(self, world):
        _, catalog, issued = world
        app = make_app(world)
        policy = app.runtime_policy(catalog.android_aosp)
        assert not policy.accepts(other_leaf(world), "api.pinme.com", STUDY_START)
        assert policy.accepts(issued.chain, "api.pinme.com", STUDY_START)

    def test_runtime_policy_nsc(self, world):
        _, catalog, issued = world
        app = make_app(world, mechanism=PinMechanism.NSC)
        policy = app.runtime_policy(catalog.android_aosp)
        assert not policy.accepts(other_leaf(world), "api.pinme.com", STUDY_START)

    def test_runtime_policy_raw_certificate(self, world):
        hierarchy, catalog, issued = world
        spec = PinningSpec(
            domains=("api.pinme.com",),
            mechanism=PinMechanism.CUSTOM_TLS,
            scope=PinScope.LEAF,
            form=PinForm.RAW_CERTIFICATE,
        )
        spec.resolve_domain("api.pinme.com", issued.chain)
        app = make_app(world, pinning_specs=[spec])
        policy = app.runtime_policy(catalog.android_aosp)
        assert policy.accepts(issued.chain, "api.pinme.com", STUDY_START)

    def test_unresolved_spec_raises(self, world):
        _, catalog, _ = world
        spec = PinningSpec(
            domains=("api.pinme.com",), mechanism=PinMechanism.OKHTTP
        )
        app = make_app(world, pinning_specs=[spec])
        with pytest.raises(AppModelError):
            app.runtime_policy(catalog.android_aosp)

    def test_weak_system_stack_suites(self, world):
        ios_app = make_app(world, platform="ios", weak_system_stack=True)
        from repro.tls.ciphers import advertises_weak

        assert advertises_weak(ios_app.suites_for_destination("cdn.other.com"))
        modern_app = make_app(world, platform="ios", weak_system_stack=False)
        assert not advertises_weak(
            modern_app.suites_for_destination("cdn.other.com")
        )

    def test_pinned_destination_modern_suites(self, world):
        from repro.tls.ciphers import advertises_weak

        app = make_app(world, weak_system_stack=True)
        assert not advertises_weak(app.suites_for_destination("api.pinme.com"))

    def test_pinned_weak_flag_wins(self, world):
        from repro.tls.ciphers import advertises_weak

        app = make_app(world)
        app.behavior.usage_for("api.pinme.com").weak_ciphers = True
        assert advertises_weak(app.suites_for_destination("api.pinme.com"))


class TestBehavior:
    def test_usages_within_window(self, world):
        app = make_app(world)
        hosts = [u.hostname for u in app.behavior.usages_within(30)]
        assert hosts == ["api.pinme.com"]

    def test_expected_handshakes(self):
        behavior = NetworkBehavior(
            [
                DestinationUsage("a.com", used_connections=2, redundant_connections=1),
                DestinationUsage("b.com", start_offset_s=50.0, used_connections=3),
            ]
        )
        assert behavior.expected_handshakes(30) == 3
        assert behavior.expected_handshakes(60) == 6

    def test_usage_for_case_insensitive(self, world):
        app = make_app(world)
        assert app.behavior.usage_for("API.PINME.COM") is not None
        assert app.behavior.usage_for("nope.com") is None

    def test_payloads_per_connection(self):
        usage = DestinationUsage("a.com", used_connections=3)
        assert len(usage.payloads()) == 3


class TestObfuscation:
    def test_roundtrip(self):
        token = "sha256/QUJDREVGRw=="
        blob = obfuscate_token(token)
        assert "sha256/" not in blob
        assert deobfuscate_token(blob) == token

    def test_deobfuscate_rejects_plain(self):
        with pytest.raises(ValueError):
            deobfuscate_token("sha256/QUJD")


class TestPackageBuilders:
    def _ctx(self, world):
        hierarchy, _, _ = world
        return PackagingContext(
            public_root_pems=[c.to_pem() for c in hierarchy.root_certificates()],
            rng=DeterministicRng(7),
        )

    def test_android_package_shape(self, world):
        app = make_app(world, sdk_names=["Firebase"])
        pkg = build_android_package(app, self._ctx(world))
        assert "AndroidManifest.xml" in pkg.package
        assert any(
            p.startswith("smali/com/google/firebase")
            for p in pkg.package.paths()
        )

    def test_android_nsc_file_emitted(self, world):
        app = make_app(world, mechanism=PinMechanism.NSC)
        pkg = build_android_package(app, self._ctx(world))
        assert "res/xml/network_security_config.xml" in pkg.package
        from repro.appmodel.nsc import NSCConfig

        config = NSCConfig.from_xml(
            pkg.package.get("res/xml/network_security_config.xml").content
        )
        assert config.has_pins()

    def test_android_nsc_file_without_pins(self, world):
        app = make_app(world, pinning_specs=[], uses_nsc=True)
        pkg = build_android_package(app, self._ctx(world))
        from repro.appmodel.nsc import NSCConfig

        config = NSCConfig.from_xml(
            pkg.package.get("res/xml/network_security_config.xml").content
        )
        assert not config.has_pins()

    def test_android_platform_mismatch(self, world):
        app = make_app(world, platform="ios")
        with pytest.raises(AppModelError):
            build_android_package(app, self._ctx(world))

    def test_android_custom_tls_pins_in_native_lib(self, world):
        app = make_app(world, mechanism=PinMechanism.CUSTOM_TLS)
        pkg = build_android_package(app, self._ctx(world))
        native = [p for p in pkg.package.paths() if p.startswith("lib/")]
        assert native
        assert pkg.package.get(native[0]).binary

    def test_ios_package_encrypted_gate(self, world):
        app = make_app(world, platform="ios", mechanism=PinMechanism.URLSESSION)
        pkg = build_ios_package(app, self._ctx(world))
        with pytest.raises(PackageEncryptedError):
            pkg.ipa.payload()
        tree = pkg.ipa.decrypt()
        assert any("Info.plist" in p for p in tree.paths())

    def test_ios_entitlements_carry_associated_domains(self, world):
        app = make_app(
            world,
            platform="ios",
            mechanism=PinMechanism.URLSESSION,
            associated_domains=("pinme.com",),
        )
        pkg = build_ios_package(app, self._ctx(world))
        tree = pkg.ipa.decrypt()
        xcent = [p for p in tree.paths() if p.endswith(".xcent")]
        assert xcent
        from repro.appmodel.plist import Entitlements

        parsed = Entitlements.from_plist_xml(tree.get(xcent[0]).content)
        assert parsed.associated_domains == ("pinme.com",)

    def test_ios_platform_mismatch(self, world):
        app = make_app(world)
        with pytest.raises(AppModelError):
            build_ios_package(app, self._ctx(world))

    def test_ios_raw_cert_as_cer_file(self, world):
        _, _, issued = world
        spec = PinningSpec(
            domains=("api.pinme.com",),
            mechanism=PinMechanism.AFNETWORKING,
            form=PinForm.RAW_CERTIFICATE,
        )
        spec.resolve_domain("api.pinme.com", issued.chain)
        app = make_app(world, platform="ios", pinning_specs=[spec])
        pkg = build_ios_package(app, self._ctx(world))
        tree = pkg.ipa.decrypt()
        assert any(p.endswith(".cer") for p in tree.paths())
