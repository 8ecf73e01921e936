"""Chain validation, hostname matching and PKI classification.

This module implements the client-side checks the paper's TLS layer needs:

* :func:`validate_chain` — the default (root-store) validation algorithm:
  link signatures, validity windows, CA flags, hostname match, a path to a
  trusted anchor.
* :func:`hostname_matches` — RFC-6125-style matching with single-label
  wildcards.
* :func:`classify_pki` — the Section 5.3.1 OpenSSL-against-Mozilla check
  that labels a pinned destination as using the default or a custom PKI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import obs
from repro.errors import ChainValidationError
from repro.pki.certificate import Certificate
from repro.pki.chain import CertificateChain
from repro.pki.store import RootStore
from repro.util.simtime import Timestamp


def hostname_matches(pattern: str, hostname: str) -> bool:
    """RFC-6125-style hostname matching.

    A leading ``*.`` wildcard matches exactly one label; wildcards anywhere
    else are not honoured.  Comparison is case-insensitive.
    """
    pattern = pattern.lower().rstrip(".")
    hostname = hostname.lower().rstrip(".")
    if not pattern or not hostname:
        return False
    if pattern == hostname:
        return True
    if pattern.startswith("*."):
        suffix = pattern[2:]
        if not suffix:
            return False
        head, _, tail = hostname.partition(".")
        return bool(head) and tail == suffix
    return False


@dataclass
class ValidationContext:
    """Everything a validator needs besides the chain itself.

    Attributes:
        store: trusted roots.
        hostname: expected server identity (skip the check when empty —
            this is the misbehaviour Stone et al. hunt for, kept available
            so tests can model it).
        at_time: validation time.
        check_hostname: toggle for the hostname check.
        check_validity: toggle for the expiry check.
    """

    store: RootStore
    hostname: str
    at_time: Timestamp
    check_hostname: bool = True
    check_validity: bool = True


#: Failure reasons that depend on the validation time and therefore must
#: never be served from the cache (a chain expired *now* may have been
#: fine an hour ago, and vice versa).
_TIME_DEPENDENT_REASONS = frozenset({"expired", "not_yet_valid"})


def validate_chain(chain: CertificateChain, ctx: ValidationContext) -> Certificate:
    """Validate a served chain; return the trust anchor used.

    Performs, in order: link-name consistency, per-certificate validity
    windows, CA flags on non-leaf links, simulated signature verification,
    hostname match on the leaf, and anchoring in the store
    (either the terminal certificate is itself trusted, or its issuer is
    found in the store and verifies it).

    Results are memoized on the chain object.  The same chain is validated
    many times during a study (every connection to a destination re-serves
    the same chain), and everything except the validity-window checks is
    independent of ``at_time``, so a cached outcome can be replayed for any
    time inside the chain's joint validity window.  Time-dependent failures
    are never cached.

    Raises:
        ChainValidationError: with a machine-readable ``reason`` on the
            first failed check (``bad_link``, ``expired``, ``not_yet_valid``,
            ``not_ca``, ``bad_signature``, ``hostname_mismatch``,
            ``untrusted_root``).
    """
    cache = chain.__dict__.get("_validation_cache")
    if cache is None:
        cache = {}
        object.__setattr__(chain, "_validation_cache", cache)
    # The store participates in the key by identity (default object
    # hash/eq), which also keeps it alive so the id cannot be recycled.
    key = (
        ctx.store,
        ctx.store.generation,
        ctx.hostname,
        ctx.check_hostname,
        ctx.check_validity,
    )
    hit = cache.get(key)
    if hit is not None:
        anchor, message, reason, window_lo, window_hi = hit
        if not ctx.check_validity or window_lo <= ctx.at_time.unix <= window_hi:
            obs.cache_event("validate_chain", hit=True)
            if reason is None:
                return anchor
            raise ChainValidationError(message, reason=reason)

    obs.cache_event("validate_chain", hit=False)
    window_lo = max(cert.not_before.unix for cert in chain)
    window_hi = min(cert.not_after.unix for cert in chain)
    try:
        anchor = _validate_chain_checks(chain, ctx)
    except ChainValidationError as exc:
        if exc.reason not in _TIME_DEPENDENT_REASONS:
            cache[key] = (None, str(exc), exc.reason, window_lo, window_hi)
        raise
    cache[key] = (anchor, None, None, window_lo, window_hi)
    return anchor


def _validate_chain_checks(
    chain: CertificateChain, ctx: ValidationContext
) -> Certificate:
    """The actual checks behind :func:`validate_chain`, uncached."""
    if not chain.links_consistent():
        raise ChainValidationError(
            "issuer/subject names do not link", reason="bad_link"
        )

    for cert in chain:
        if ctx.check_validity:
            if ctx.at_time.unix > cert.not_after.unix:
                raise ChainValidationError(
                    f"{cert.common_name!r} expired {cert.not_after}",
                    reason="expired",
                )
            if ctx.at_time.unix < cert.not_before.unix:
                raise ChainValidationError(
                    f"{cert.common_name!r} not valid before {cert.not_before}",
                    reason="not_yet_valid",
                )

    for cert in chain.certificates[1:]:
        if not cert.is_ca:
            raise ChainValidationError(
                f"{cert.common_name!r} used as an issuer but is not a CA",
                reason="not_ca",
            )

    # Verify each link's signature under its parent's key.
    for child, parent in zip(chain.certificates, chain.certificates[1:]):
        if not parent.key.verify(child.tbs_bytes(), child.signature):
            raise ChainValidationError(
                f"signature on {child.common_name!r} does not verify under "
                f"{parent.common_name!r}",
                reason="bad_signature",
            )

    if ctx.check_hostname and ctx.hostname:
        if not chain.leaf.matches_hostname(ctx.hostname):
            raise ChainValidationError(
                f"leaf does not match hostname {ctx.hostname!r}",
                reason="hostname_mismatch",
            )

    terminal = chain.terminal
    if ctx.store.trusts(terminal):
        if not terminal.key.verify(terminal.tbs_bytes(), terminal.signature):
            raise ChainValidationError(
                "trusted terminal certificate fails self-verification",
                reason="bad_signature",
            )
        return terminal

    anchor = ctx.store.find_issuer(terminal)
    if anchor is None:
        raise ChainValidationError(
            f"no trust anchor for issuer {terminal.issuer.render()!r}",
            reason="untrusted_root",
        )
    if not anchor.key.verify(terminal.tbs_bytes(), terminal.signature):
        raise ChainValidationError(
            f"signature on {terminal.common_name!r} does not verify under "
            f"anchor {anchor.common_name!r}",
            reason="bad_signature",
        )
    return anchor


def chain_is_valid(chain: CertificateChain, ctx: ValidationContext) -> bool:
    """Boolean convenience wrapper around :func:`validate_chain`."""
    try:
        validate_chain(chain, ctx)
    except ChainValidationError:
        return False
    return True


def classify_pki(
    chain: CertificateChain, mozilla_store: RootStore, at_time: Timestamp
) -> str:
    """Classify a served chain as ``"default"`` or ``"custom"`` PKI.

    Mirrors Section 5.3.1: validate the chain with OpenSSL configured with
    the Mozilla CA store (no hostname check — the paper validates chains,
    not connections).  Chains that anchor in Mozilla's store are "default
    PKI"; everything else is "custom".
    """
    ctx = ValidationContext(
        store=mozilla_store, hostname="", at_time=at_time, check_hostname=False
    )
    return "default" if chain_is_valid(chain, ctx) else "custom"
