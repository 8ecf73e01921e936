"""Property-based tests on validation-policy invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.pki.authority import PKIHierarchy
from repro.pki.store import StoreCatalog
from repro.tls.policy import (
    CompositePolicy,
    PinnedCertificatePolicy,
    SpkiPinPolicy,
    SystemValidationPolicy,
    TrustAllPolicy,
)
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START

# A module-level world: hypothesis drives the *choices*, not the PKI.
_HIERARCHY = PKIHierarchy(DeterministicRng(777))
_CATALOG = StoreCatalog.build(_HIERARCHY)
_CHAINS = [
    _HIERARCHY.issue_leaf_chain(f"host{i}.prop.example", DeterministicRng(1000 + i)).chain
    for i in range(8)
]
_BASE = SystemValidationPolicy(_CATALOG.mozilla)

chain_indices = st.integers(min_value=0, max_value=len(_CHAINS) - 1)


class TestSpkiPinProperties:
    @given(chain_indices, chain_indices)
    def test_pin_accepts_iff_pin_present(self, pin_from, served):
        pin_chain = _CHAINS[pin_from]
        served_chain = _CHAINS[served]
        policy = SpkiPinPolicy([pin_chain.leaf.spki_pin()], base=None)
        accepted = policy.accepts(served_chain, "irrelevant", STUDY_START)
        assert accepted == served_chain.contains_spki(pin_chain.leaf.spki_pin())

    @given(chain_indices)
    def test_own_leaf_pin_always_accepts(self, index):
        chain = _CHAINS[index]
        hostname = chain.leaf.common_name
        policy = SpkiPinPolicy([chain.leaf.spki_pin()], base=_BASE)
        assert policy.accepts(chain, hostname, STUDY_START)

    @given(chain_indices, st.sets(chain_indices, min_size=1, max_size=5))
    def test_adding_pins_is_monotone(self, served, pin_set):
        """A superset of pins never rejects what a subset accepted."""
        served_chain = _CHAINS[served]
        pins = [_CHAINS[i].leaf.spki_pin() for i in pin_set]
        small = SpkiPinPolicy(pins[:1], base=None)
        large = SpkiPinPolicy(pins + [served_chain.leaf.spki_pin()], base=None)
        if small.accepts(served_chain, "x", STUDY_START):
            assert large.accepts(served_chain, "x", STUDY_START)

    @given(chain_indices)
    def test_pin_with_base_is_stricter_than_base(self, index):
        chain = _CHAINS[index]
        hostname = chain.leaf.common_name
        other = _CHAINS[(index + 1) % len(_CHAINS)]
        policy = SpkiPinPolicy([other.leaf.spki_pin()], base=_BASE)
        if policy.accepts(chain, hostname, STUDY_START):
            assert _BASE.accepts(chain, hostname, STUDY_START)


class TestCertPinProperties:
    @given(chain_indices, chain_indices)
    def test_fingerprint_pin_exact(self, pin_from, served):
        policy = PinnedCertificatePolicy(
            [_CHAINS[pin_from].leaf.fingerprint_sha256()], base=None
        )
        accepted = policy.accepts(_CHAINS[served], "x", STUDY_START)
        assert accepted == (pin_from == served)


class TestCompositeProperties:
    @given(
        st.sets(chain_indices, min_size=0, max_size=4),
        chain_indices,
    )
    def test_routing_always_defined(self, override_set, probe):
        overrides = {
            _CHAINS[i].leaf.common_name: TrustAllPolicy() for i in override_set
        }
        policy = CompositePolicy(default=_BASE, overrides=overrides)
        hostname = _CHAINS[probe].leaf.common_name
        routed = policy.policy_for(hostname)
        if hostname in overrides:
            assert isinstance(routed, TrustAllPolicy)
        else:
            assert routed is _BASE

    @given(st.sets(chain_indices, min_size=1, max_size=4))
    def test_is_pinning_reflects_overrides(self, override_set):
        overrides = {
            _CHAINS[i].leaf.common_name: SpkiPinPolicy(
                [_CHAINS[i].leaf.spki_pin()], base=_BASE
            )
            for i in override_set
        }
        policy = CompositePolicy(default=_BASE, overrides=overrides)
        assert policy.is_pinning()
