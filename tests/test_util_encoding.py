"""Tests for repro.util.encoding."""

import pytest

from repro.errors import EncodingError
from repro.util import encoding


class TestBase64:
    def test_roundtrip(self):
        data = bytes(range(64))
        assert encoding.b64decode(encoding.b64encode(data)) == data

    def test_decode_tolerates_missing_padding(self):
        data = b"abcde"
        padded = encoding.b64encode(data)
        stripped = padded.rstrip("=")
        assert encoding.b64decode(stripped) == data

    def test_decode_rejects_garbage(self):
        with pytest.raises(EncodingError):
            encoding.b64decode("!!not base64!!")


class TestPEM:
    def test_wrap_unwrap_roundtrip(self):
        der = b"certificate-bytes" * 10
        pem = encoding.pem_wrap(der)
        assert pem.startswith("-----BEGIN CERTIFICATE-----")
        assert pem.endswith("-----END CERTIFICATE-----")
        assert encoding.pem_unwrap(pem) == [der]

    def test_unwrap_multiple_blocks(self):
        pem = encoding.pem_wrap(b"one") + "\n" + encoding.pem_wrap(b"two")
        assert encoding.pem_unwrap(pem) == [b"one", b"two"]

    def test_unwrap_ignores_other_labels(self):
        pem = encoding.pem_wrap(b"key", label="PUBLIC KEY")
        assert encoding.pem_unwrap(pem) == []
        assert encoding.pem_unwrap(pem, label="PUBLIC KEY") == [b"key"]

    def test_unterminated_block_raises(self):
        with pytest.raises(EncodingError):
            encoding.pem_unwrap("-----BEGIN CERTIFICATE-----\nQUJD\n")

    def test_wrap_line_width(self):
        pem = encoding.pem_wrap(b"x" * 200, width=64)
        body_lines = pem.splitlines()[1:-1]
        assert all(len(line) <= 64 for line in body_lines)


class TestB64DecodeExceptionContract:
    def test_invalid_payload_raises_encoding_error(self):
        with pytest.raises(EncodingError):
            encoding.b64decode("!!!not-base64!!!")

    def test_caller_type_bug_propagates(self):
        # Passing bytes is a programming error, not malformed input —
        # the narrowed handler must let it surface as TypeError instead
        # of mislabelling it "invalid base64 payload".
        with pytest.raises(TypeError):
            encoding.b64decode(b"QUJD")

    def test_none_propagates(self):
        with pytest.raises(TypeError):
            encoding.b64decode(None)
