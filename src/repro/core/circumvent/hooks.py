"""The TLS-library hook catalog.

Each entry is a Frida script target: a library whose validation entry
points are public knowledge (and therefore hookable).  Custom TLS
implementations have no catalog entry — "developers can always use custom
TLS implementations rather than relying on popular ones" (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class HookScript:
    """One library hook.

    Attributes:
        library: the policy ``library`` label it applies to.
        platform: where the library exists.
        entry_point: the function the script replaces (documentation).
    """

    library: str
    platform: str
    entry_point: str


HOOK_CATALOG: Tuple[HookScript, ...] = (
    HookScript("okhttp", "android", "okhttp3.CertificatePinner.check"),
    HookScript("conscrypt", "android", "TrustManagerImpl.verifyChain"),
    HookScript("android-nsc", "android", "NetworkSecurityTrustManager.checkPins"),
    HookScript("platform-default", "android", "X509TrustManagerExtensions.checkServerTrusted"),
    HookScript("trustkit", "ios", "TSKPinningValidator.evaluateTrust"),
    HookScript("alamofire", "ios", "ServerTrustManager.serverTrustEvaluator"),
    HookScript("afnetworking", "ios", "AFSecurityPolicy.evaluateServerTrust"),
    HookScript("urlsession", "ios", "NSURLSession didReceiveChallenge"),
    HookScript("securetransport", "ios", "SecTrustEvaluateWithError"),
)

_BY_LIBRARY: Dict[str, HookScript] = {h.library: h for h in HOOK_CATALOG}


def is_hookable(library: str, platform: str) -> bool:
    """Can Frida disable validation for this library on this platform?"""
    hook = _BY_LIBRARY.get(library)
    return hook is not None and hook.platform == platform
