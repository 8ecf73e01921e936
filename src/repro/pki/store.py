"""Root certificate stores.

Android and iOS ship default root stores; Android OEMs may extend theirs
with extra roots ([50] in the paper); Mozilla's store is the reference the
paper validates against with OpenSSL to classify pinned destinations as
default-PKI vs custom-PKI (Section 5.3.1).  All simulated stores are built
from one :class:`repro.pki.authority.PKIHierarchy` with realistic overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from repro.pki.authority import PKIHierarchy
from repro.pki.certificate import Certificate


class RootStore:
    """A named collection of trusted root certificates, indexed by subject."""

    def __init__(self, name: str, roots: Iterable[Certificate] = ()):
        self.name = name
        self._by_subject: Dict[str, Certificate] = {}
        #: Bumped on every mutation; validation results cached against a
        #: store are keyed on ``(store, generation)`` so they expire when
        #: the trust set changes (e.g. a device store gaining a proxy CA).
        self.generation = 0
        for root in roots:
            self.add(root)

    def add(self, root: Certificate) -> None:
        """Add a trusted root (must be a CA certificate)."""
        if not root.is_ca:
            raise ValueError(f"{root.common_name!r} is not a CA certificate")
        self._by_subject[root.subject.render()] = root
        self.generation += 1

    def remove(self, root: Certificate) -> None:
        self._by_subject.pop(root.subject.render(), None)
        self.generation += 1

    def trusts(self, cert: Certificate) -> bool:
        """Is this exact certificate a trust anchor here?"""
        anchored = self._by_subject.get(cert.subject.render())
        return anchored is not None and anchored.to_der() == cert.to_der()

    def find_issuer(self, cert: Certificate) -> Optional[Certificate]:
        """Find the anchor whose subject matches ``cert``'s issuer."""
        return self._by_subject.get(cert.issuer.render())

    def copy(self, name: Optional[str] = None) -> "RootStore":
        clone = RootStore(name or self.name)
        clone._by_subject = dict(self._by_subject)
        return clone

    def __len__(self) -> int:
        return len(self._by_subject)

    def __iter__(self) -> Iterator[Certificate]:
        return iter(self._by_subject.values())

    def __contains__(self, cert: Certificate) -> bool:
        return self.trusts(cert)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RootStore({self.name!r}, {len(self)} roots)"


@dataclass
class StoreCatalog:
    """The root stores relevant to the study, built from one hierarchy.

    Attributes:
        mozilla: the reference store used for default-vs-custom PKI
            classification.
        android_aosp: AOSP system store (== mozilla minus a couple of roots,
            modelling imperfect overlap).
        ios: Apple's store (mozilla minus a different couple).
        android_oem: an OEM-extended Android store with extra roots
            (the "tangled mass" effect).
    """

    mozilla: RootStore
    android_aosp: RootStore
    ios: RootStore
    android_oem: RootStore

    @classmethod
    def build(cls, hierarchy: PKIHierarchy) -> "StoreCatalog":
        """Derive all four stores from the default hierarchy.

        Every store contains all *issuing* roots (real server operators
        chain to CAs trusted everywhere); the stores differ in their tails
        of extra, never-issuing roots — the expired/obscure entries prior
        work found in mobile stores, and the OEM preloads of [50].
        """
        roots = hierarchy.root_certificates()
        mozilla = RootStore("mozilla", roots)
        android_aosp = RootStore("android-aosp", roots)
        ios = RootStore("ios", roots)
        legacy = hierarchy.mint_custom_root("Legacy Obscure Authority")
        mozilla.add(legacy.certificate)
        android_aosp.add(legacy.certificate)
        apple_only = hierarchy.mint_custom_root("Apple Ecosystem Services")
        ios.add(apple_only.certificate)
        android_oem = android_aosp.copy("android-oem")
        oem_extra = hierarchy.mint_custom_root("OEM Preload")
        android_oem.add(oem_extra.certificate)
        return cls(
            mozilla=mozilla,
            android_aosp=android_aosp,
            ios=ios,
            android_oem=android_oem,
        )
