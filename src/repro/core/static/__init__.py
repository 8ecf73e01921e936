"""Static analysis pipeline (Section 4.1).

Stages, mirroring Figure 1 steps 2–3:

1. :mod:`repro.core.static.decompile` — Apktool for Android;
   Flexdecrypt / Frida-iOS-Dump for (jailbroken-device) iOS decryption.
2. :mod:`repro.core.static.search` — ripgrep-style scans for certificate
   files, PEM delimiters and SPKI-hash tokens, plus a radare2-style
   strings pass over native binaries.
3. :mod:`repro.core.static.nsc_analysis` — the prior-work technique:
   Android Network Security Configuration extraction and parsing.
4. :mod:`repro.core.static.ctlookup` — resolve found hashes to
   certificates through the CT log (crt.sh).
5. :mod:`repro.core.static.attribution` — map finding paths to
   third-party frameworks (Table 7).
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "decompile_android": "decompile",
        "decrypt_ios": "decompile",
        "analyze_nsc": "nsc_analysis",
        "StaticPipeline": "pipeline",
        "StaticAppReport": "report",
        "scan_tree": "search",
    },
)

__all__ = [
    "StaticAppReport",
    "StaticPipeline",
    "analyze_nsc",
    "decompile_android",
    "decrypt_ios",
    "scan_tree",
]
