"""Tests for repro.tls.ciphers, alerts, records, fingerprint."""


from repro.tls.alerts import (
    Alert,
    AlertDescription,
    AlertLevel,
    alert_for_reason,
)
from repro.tls.ciphers import (
    MODERN_SUITES,
    WEAK_SUITES,
    advertises_weak,
    is_weak_suite,
)
from repro.tls.fingerprint import ja3_fingerprint
from repro.tls.records import (
    ContentType,
    Direction,
    TLSRecord,
    TLSVersion,
    encrypted_application_data,
)


class TestCipherSuites:
    def test_weak_flags_consistent(self):
        for suite in WEAK_SUITES:
            assert is_weak_suite(suite)
        for suite in MODERN_SUITES:
            assert not is_weak_suite(suite)

    def test_is_weak_by_name(self):
        assert is_weak_suite("TLS_RSA_WITH_RC4_128_SHA")
        assert is_weak_suite("TLS_RSA_EXPORT_WITH_DES40_CBC_SHA")
        assert not is_weak_suite("TLS_AES_128_GCM_SHA256")

    def test_3des_not_confused_with_aes(self):
        assert not is_weak_suite("TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384")
        assert is_weak_suite("TLS_RSA_WITH_3DES_EDE_CBC_SHA")

    def test_advertises_weak(self):
        assert advertises_weak(list(MODERN_SUITES) + [WEAK_SUITES[0]])
        assert not advertises_weak(MODERN_SUITES)


class TestAlerts:
    def test_certificate_related(self):
        assert Alert(AlertDescription.BAD_CERTIFICATE).is_certificate_related()
        assert Alert(AlertDescription.UNKNOWN_CA).is_certificate_related()
        assert not Alert(AlertDescription.PROTOCOL_VERSION).is_certificate_related()

    def test_alert_for_reason_mapping(self):
        assert (
            alert_for_reason("pin_mismatch").description
            is AlertDescription.BAD_CERTIFICATE
        )
        assert (
            alert_for_reason("untrusted_root").description
            is AlertDescription.UNKNOWN_CA
        )
        assert (
            alert_for_reason("expired").description
            is AlertDescription.CERTIFICATE_EXPIRED
        )

    def test_alert_for_unknown_reason_defaults(self):
        assert (
            alert_for_reason("whatever").description
            is AlertDescription.BAD_CERTIFICATE
        )

    def test_default_level_fatal(self):
        assert Alert(AlertDescription.CLOSE_NOTIFY).level is AlertLevel.FATAL


class TestRecords:
    def test_version_flags(self):
        assert TLSVersion.TLS13.is_tls13
        assert not TLSVersion.TLS12.is_tls13

    def test_encrypted_application_data_filter(self):
        records = [
            TLSRecord(ContentType.APPLICATION_DATA, Direction.CLIENT_TO_SERVER, 50),
            TLSRecord(ContentType.ALERT, Direction.CLIENT_TO_SERVER, 31),
            TLSRecord(ContentType.APPLICATION_DATA, Direction.SERVER_TO_CLIENT, 60),
        ]
        c2s = encrypted_application_data(records)
        assert len(c2s) == 1 and c2s[0].length == 50
        s2c = encrypted_application_data(records, Direction.SERVER_TO_CLIENT)
        assert len(s2c) == 1 and s2c[0].length == 60


class TestFingerprint:
    def test_same_params_same_fingerprint(self):
        versions = (TLSVersion.TLS12, TLSVersion.TLS13)
        assert ja3_fingerprint(versions, MODERN_SUITES) == ja3_fingerprint(
            versions, MODERN_SUITES
        )

    def test_different_suites_differ(self):
        versions = (TLSVersion.TLS12,)
        assert ja3_fingerprint(versions, MODERN_SUITES) != ja3_fingerprint(
            versions, MODERN_SUITES[:3]
        )
