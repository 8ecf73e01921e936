"""Tests for repro.appmodel.nsc and manifest."""

import pytest

from repro.appmodel.manifest import AndroidManifest
from repro.appmodel.nsc import NSCConfig, NSCDomainConfig, NSCPin
from repro.errors import AppModelError


def sample_config() -> NSCConfig:
    return NSCConfig(
        base_cleartext_permitted=False,
        domain_configs=[
            NSCDomainConfig(
                domain="api.bank.com",
                include_subdomains=True,
                pins=[NSCPin("SHA-256", "QUJDREVGR0hJSktMTU5PUFFSU1RVVg==")],
                pin_set_expiration="2023-01-01",
            ),
            NSCDomainConfig(domain="legacy.bank.com", cleartext_permitted=True),
        ],
    )


class TestNSCRoundtrip:
    def test_xml_roundtrip(self):
        config = sample_config()
        parsed = NSCConfig.from_xml(config.to_xml())
        assert parsed.base_cleartext_permitted is False
        assert len(parsed.domain_configs) == 2
        dc = parsed.domain_configs[0]
        assert dc.domain == "api.bank.com"
        assert dc.include_subdomains
        assert dc.pins[0].digest == "SHA-256"
        assert dc.pin_set_expiration == "2023-01-01"
        assert parsed.domain_configs[1].cleartext_permitted is True

    def test_has_pins(self):
        assert sample_config().has_pins()
        assert not NSCConfig(
            domain_configs=[NSCDomainConfig(domain="x.com")]
        ).has_pins()

    def test_pin_string_conversion(self):
        pin = NSCPin("SHA-256", "QUJD")
        assert pin.as_pin_string() == "sha256/QUJD"
        assert NSCPin("SHA-1", "QUJD").as_pin_string() == "sha1/QUJD"

    def test_override_pins_roundtrip(self):
        config = NSCConfig(
            domain_configs=[
                NSCDomainConfig(
                    domain="x.com",
                    pins=[NSCPin("SHA-256", "QUJD")],
                    override_pins=True,
                )
            ]
        )
        parsed = NSCConfig.from_xml(config.to_xml())
        assert parsed.domain_configs[0].override_pins

    def test_malformed_xml(self):
        with pytest.raises(AppModelError):
            NSCConfig.from_xml("<broken")
        with pytest.raises(AppModelError):
            NSCConfig.from_xml("<other-root/>")

    def test_domain_config_without_domain_skipped(self):
        xml = (
            "<network-security-config><domain-config>"
            "<pin-set><pin digest='SHA-256'>QUJD</pin></pin-set>"
            "</domain-config></network-security-config>"
        )
        assert NSCConfig.from_xml(xml).domain_configs == []


class TestManifest:
    def test_roundtrip_with_nsc(self):
        manifest = AndroidManifest(
            package="com.x.app",
            version_name="2.3",
            network_security_config="@xml/network_security_config",
        )
        parsed = AndroidManifest.from_xml(manifest.to_xml())
        assert parsed.package == "com.x.app"
        assert parsed.version_name == "2.3"
        assert (
            parsed.nsc_resource_path() == "res/xml/network_security_config.xml"
        )

    def test_roundtrip_without_nsc(self):
        parsed = AndroidManifest.from_xml(
            AndroidManifest(package="com.y.app").to_xml()
        )
        assert parsed.network_security_config is None
        assert parsed.nsc_resource_path() is None

    def test_missing_package_rejected(self):
        with pytest.raises(AppModelError):
            AndroidManifest.from_xml("<manifest/>")

    def test_malformed_rejected(self):
        with pytest.raises(AppModelError):
            AndroidManifest.from_xml("not xml")
