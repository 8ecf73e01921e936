"""Certificate authorities and hierarchy construction.

:class:`CertificateAuthority` issues certificates; :class:`PKIHierarchy`
builds a realistic default PKI (root CAs + intermediates, as found in public
root stores) and also mints *custom* PKIs for apps that pin their own roots
(Table 6 distinguishes the two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CertificateError
from repro.pki.certificate import Certificate, DistinguishedName
from repro.pki.chain import CertificateChain
from repro.pki.keys import KeyPair
from repro.util.rng import DeterministicRng
from repro.util.simtime import Timestamp, STUDY_START

# Names modelled after (but distinct from) the operators that dominate real
# root programs; used to label the simulated default PKI.
DEFAULT_ROOT_OPERATORS = [
    "Simulated Global Root CA",
    "TrustAnchor Root R1",
    "TrustAnchor Root R3",
    "Baltimore-Sim CyberTrust Root",
    "DigiSign Global Root G2",
    "LetsSimulate Root X1",
    "Sectigo-Sim AAA Root",
    "GoTrust Root CA 2",
    "AmazonSim Root CA 1",
    "QuadSSL Root CA",
    "EntrustSim Root G4",
    "GlobalSim ECC Root R5",
]


class CertificateAuthority:
    """A certificate authority: a key, a CA certificate and a serial counter."""

    def __init__(self, certificate: Certificate, key: KeyPair, rng: DeterministicRng):
        if not certificate.is_ca:
            raise CertificateError(
                f"{certificate.common_name!r} is not a CA certificate"
            )
        self.certificate = certificate
        self.key = key
        self._rng = rng
        self._serial = 0

    @property
    def name(self) -> DistinguishedName:
        return self.certificate.subject

    def _next_serial(self) -> str:
        self._serial += 1
        return f"{self._serial:08d}-{self._rng.hex_string(8)}"

    def stateless_serial(self, *labels: object) -> str:
        """A serial derived from labels instead of the issuance counter.

        Issuing with a stateless serial (and a caller-supplied RNG) makes
        the certificate a pure function of the CA plus the labels —
        independent of how many certificates were issued before it.  The
        execution engine relies on this for on-demand issuance (proxy
        forgeries) that must not depend on which apps ran before, so a
        retried or solo re-run app forges what it forged in its unit.
        """
        from repro.util.rng import derive_seed

        seed = derive_seed(self._rng.seed, "stateless-serial", *labels)
        return f"{seed & 0xFFFFFFFF:08x}-{DeterministicRng(seed).hex_string(8)}"

    @classmethod
    def self_signed_root(
        cls,
        common_name: str,
        rng: DeterministicRng,
        not_before: Timestamp = STUDY_START.plus_years(-10),
        lifetime_years: float = 25.0,
        organization: str = "",
    ) -> "CertificateAuthority":
        """Create a root CA with a self-signed certificate."""
        key = KeyPair.generate(rng.child("root-key", common_name))
        name = DistinguishedName(
            common_name=common_name, organization=organization or common_name
        )
        certificate = Certificate.signed_by(
            key,
            subject=name,
            issuer=name,
            serial="00000001-root",
            not_before=not_before,
            not_after=not_before.plus_years(lifetime_years),
            key=key,
            is_ca=True,
        )
        return cls(certificate, key, rng.child("root-ca", common_name))

    def issue(
        self,
        common_name: str,
        *,
        is_ca: bool = False,
        san: Sequence[str] = (),
        not_before: Optional[Timestamp] = None,
        lifetime_days: float = 398.0,
        key: Optional[KeyPair] = None,
        organization: str = "",
        rng: Optional[DeterministicRng] = None,
        serial: Optional[str] = None,
    ) -> Tuple[Certificate, KeyPair]:
        """Issue a certificate signed by this authority.

        Args:
            common_name: subject CN.
            is_ca: issue an intermediate CA certificate.
            san: subject alternative names (leaf certificates only, usually).
            not_before: start of validity (defaults to this CA's not_before
                plus a year, keeping children inside the parent window).
            lifetime_days: validity length; the modern default for leaves is
                398 days.
            key: reuse an existing subject key.  Passing the previous leaf's
                key models certificate renewal with key reuse, which is what
                makes SPKI pins survive renewals (Section 5.3.3).
            organization: subject O attribute.
            rng: key-generation randomness.  Defaults to this CA's own
                stream; passing an explicit child stream (plus ``serial``)
                makes the issued certificate independent of issuance order.
            serial: serial override; see :meth:`stateless_serial`.

        Returns:
            ``(certificate, subject_key)``.
        """
        start = not_before or self.certificate.not_before.plus_years(1)
        if start.unix < self.certificate.not_before.unix:
            raise CertificateError(
                "child certificate cannot start before its issuer"
            )
        key_rng = rng if rng is not None else self._rng
        subject_key = key or KeyPair.generate(key_rng.child("issued-key", common_name))
        certificate = Certificate.signed_by(
            self.key,
            subject=DistinguishedName(
                common_name=common_name, organization=organization
            ),
            issuer=self.name,
            serial=serial if serial is not None else self._next_serial(),
            not_before=start,
            not_after=start.plus_days(lifetime_days),
            key=subject_key,
            san=tuple(san),
            is_ca=is_ca,
        )
        return certificate, subject_key

    def issue_intermediate(
        self, common_name: str, lifetime_years: float = 10.0
    ) -> "CertificateAuthority":
        """Issue and wrap an intermediate CA."""
        cert, key = self.issue(
            common_name,
            is_ca=True,
            lifetime_days=lifetime_years * 365,
            organization=self.certificate.subject.organization,
        )
        return CertificateAuthority(cert, key, self._rng.child("intermediate", common_name))


@dataclass
class IssuedChain:
    """A leaf chain plus the authorities that produced it."""

    chain: CertificateChain
    leaf_key: KeyPair
    intermediate: Optional[CertificateAuthority]
    root: CertificateAuthority


class PKIHierarchy:
    """Builds and owns the simulated default PKI.

    The hierarchy mints one intermediate per root and issues leaf chains on
    demand.  It also creates standalone *custom* roots for services that run
    their own PKI (Table 6's "Custom PKI" column).
    """

    def __init__(self, rng: DeterministicRng, operators: Sequence[str] = ()):
        self._rng = rng
        self.roots: List[CertificateAuthority] = []
        self.intermediates: Dict[str, CertificateAuthority] = {}
        for operator in operators or DEFAULT_ROOT_OPERATORS:
            root = CertificateAuthority.self_signed_root(
                operator, rng.child("root", operator)
            )
            self.roots.append(root)
            self.intermediates[operator] = root.issue_intermediate(
                f"{operator} Intermediate CA"
            )

    def root_certificates(self) -> List[Certificate]:
        return [root.certificate for root in self.roots]

    def pick_root(self, rng: DeterministicRng) -> CertificateAuthority:
        """Pick an issuing root with a skew toward the first operators,
        mirroring real-world CA market concentration."""
        rank = rng.zipf_rank(len(self.roots), exponent=1.2)
        return self.roots[rank - 1]

    def issue_leaf_chain(
        self,
        hostname: str,
        rng: DeterministicRng,
        *,
        include_root: bool = False,
        lifetime_days: float = 398.0,
        key: Optional[KeyPair] = None,
        wildcard: bool = False,
    ) -> IssuedChain:
        """Issue a default-PKI chain for ``hostname``.

        Args:
            hostname: leaf subject / SAN.
            rng: source of randomness for CA selection and key generation.
            include_root: also serve the root (some servers do).
            lifetime_days: leaf validity.
            key: reuse an existing leaf key (renewal with key reuse).
            wildcard: issue for ``*.<registrable domain>`` as many CDNs do.

        Leaf validity is anchored to the study clock: ``not_before`` falls
        10–250 days before :data:`~repro.util.simtime.STUDY_START`, so the
        chain is valid during dynamic testing.
        """
        root = self.pick_root(rng)
        intermediate = self.intermediates[root.name.common_name]
        not_before = STUDY_START.plus_days(-rng.randint(10, 250))
        san: Tuple[str, ...]
        if wildcard:
            parts = hostname.split(".")
            base = ".".join(parts[-2:]) if len(parts) >= 2 else hostname
            san = (f"*.{base}", base)
        else:
            san = (hostname,)
        leaf, leaf_key = intermediate.issue(
            hostname,
            san=san,
            not_before=not_before,
            lifetime_days=lifetime_days,
            key=key,
        )
        certs: List[Certificate] = [leaf, intermediate.certificate]
        if include_root:
            certs.append(root.certificate)
        return IssuedChain(
            chain=CertificateChain(tuple(certs)),
            leaf_key=leaf_key,
            intermediate=intermediate,
            root=root,
        )

    def mint_custom_root(self, owner: str) -> CertificateAuthority:
        """Create a private root CA not present in any public store."""
        return CertificateAuthority.self_signed_root(
            f"{owner} Private Root CA", self._rng.child("custom-root", owner)
        )

    def authority_for_certificate(
        self, certificate: Certificate
    ) -> Optional[CertificateAuthority]:
        """Find the CA object behind a CA certificate in this hierarchy.

        Used by the Spinner-style probe (Stone et al.): to test whether a
        CA-pinning client checks hostnames, one needs a *legitimately
        issued* certificate for an attacker hostname from the same CA.
        Returns None for certificates outside this hierarchy (custom
        roots minted elsewhere, leaves).
        """
        fingerprint = certificate.fingerprint_sha256()
        for root in self.roots:
            if root.certificate.fingerprint_sha256() == fingerprint:
                return root
        for intermediate in self.intermediates.values():
            if intermediate.certificate.fingerprint_sha256() == fingerprint:
                return intermediate
        return None
