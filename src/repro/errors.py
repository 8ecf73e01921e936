"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single except clause while letting
programming errors (``TypeError``, ``ValueError`` from stdlib misuse)
propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PKIError(ReproError):
    """Base class for PKI-layer failures."""


class CertificateError(PKIError):
    """A certificate is malformed or fails an integrity check."""


class ChainValidationError(PKIError):
    """A certificate chain failed validation.

    Attributes:
        reason: short machine-readable reason code (e.g. ``"expired"``,
            ``"untrusted_root"``, ``"hostname_mismatch"``).
    """

    def __init__(self, message: str, reason: str = "invalid"):
        super().__init__(message)
        self.reason = reason


class EncodingError(PKIError):
    """PEM/DER-style payload could not be decoded."""


class TLSError(ReproError):
    """Base class for TLS-layer failures."""


class AppModelError(ReproError):
    """An app package is malformed or an operation on it is invalid."""


class PackageEncryptedError(AppModelError):
    """An iOS payload was accessed without decrypting it first."""


class DeviceError(ReproError):
    """Device emulation failure (install/launch/uninstall)."""


class CorpusError(ReproError):
    """Corpus generation or dataset construction failure."""


class AnalysisError(ReproError):
    """A core analysis stage received inconsistent inputs."""


class InstrumentationError(ReproError):
    """Frida-style instrumentation could not attach or hook."""
