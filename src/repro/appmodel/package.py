"""Shared package-materialisation helpers.

Both platform builders turn the same ground truth (pinning specs, SDK
list) into files; this module holds what they share: the packaging
context, pin-string obfuscation, and CA-bundle synthesis for SDKs that
embed certificates without pinning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.appmodel.pinning import PinningSpec
from repro.util.rng import DeterministicRng


@dataclass
class PackagingContext:
    """Inputs the builders need beyond the app itself.

    Attributes:
        public_root_pems: PEM blobs of public root CAs, used to synthesize
            the CA bundles (``cacert.pem``-alikes) that non-pinning SDKs
            ship — a large share of the static analyzer's embedded-cert
            hits.
        rng: randomness for filler content.
    """

    public_root_pems: List[str] = field(default_factory=list)
    rng: DeterministicRng = field(default_factory=lambda: DeterministicRng(0))


def obfuscate_token(token: str) -> str:
    """Hide a pin string from the static regexes.

    Real apps use string encryption or build pins at run time; the
    simulation stands that in with a reversible transform that breaks both
    the ``sha(1|256)/`` prefix and the base64 alphabet run the regex needs.
    """
    return "enc:" + token[::-1].encode("utf-8").hex()


def pin_declaration_lines(spec: PinningSpec, style: str) -> List[str]:
    """Source-code lines declaring a spec's pins.

    Args:
        spec: a resolved pinning spec (SPKI forms only).
        style: ``"smali"`` (Android decompiled) or ``"objc"``/``"swift"``
            (strings inside an iOS binary).
    """
    lines: List[str] = []
    for domain in spec.domains:
        resolved = spec.resolved.get(domain)
        if resolved is None:
            continue
        for pin in resolved.pin_strings:
            token = obfuscate_token(pin) if spec.obfuscated else pin
            if style == "smali":
                lines.append(f'    const-string v0, "{domain}"')
                lines.append(f'    const-string v1, "{token}"')
            elif style == "objc":
                lines.append(f'kTSKPinnedDomains @"{domain}" @"{token}"')
            else:
                lines.append(f'pinner.add("{domain}", "{token}")')
    return lines


def ca_bundle_pem(ctx: PackagingContext, count: int = 3) -> str:
    """A ``cacert.pem``-style bundle of public roots."""
    if not ctx.public_root_pems:
        return ""
    picked = ctx.rng.sample(ctx.public_root_pems, count)
    return "\n".join(picked)
