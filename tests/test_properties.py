"""Property-based tests (hypothesis) on core invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.nsc import NSCConfig, NSCDomainConfig, NSCPin
from repro.appmodel.package import obfuscate_token
from repro.pki.validation import hostname_matches
from repro.util.encoding import (
    b64decode,
    b64encode,
    pem_unwrap,
    pem_wrap,
)
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.stats import jaccard_index

LABELS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))

HOSTNAMES = st.lists(LABELS, min_size=1, max_size=4).map(".".join)


class TestEncodingProperties:
    @given(st.binary(max_size=2048))
    def test_pem_roundtrip(self, payload):
        assert pem_unwrap(pem_wrap(payload)) == [payload]

    @given(st.binary(max_size=1024))
    def test_b64_roundtrip(self, payload):
        assert b64decode(b64encode(payload)) == payload

    @given(st.lists(st.binary(min_size=1, max_size=256), max_size=5))
    def test_pem_multi_block_order(self, payloads):
        text = "\n".join(pem_wrap(p) for p in payloads)
        assert pem_unwrap(text) == payloads


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_derive_seed_range(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**63

    @given(st.integers(min_value=0, max_value=2**32))
    def test_stream_reproducibility(self, seed):
        a = DeterministicRng(seed)
        b = DeterministicRng(seed)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    @given(
        st.integers(min_value=0, max_value=1000),
        st.lists(st.integers(), min_size=1, max_size=20),
    )
    def test_shuffled_is_permutation(self, seed, items):
        out = DeterministicRng(seed).shuffled(items)
        assert sorted(out) == sorted(items)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.lists(st.integers(), min_size=1, max_size=20, unique=True),
        st.integers(min_value=0, max_value=25),
    )
    def test_weighted_sample_distinct(self, seed, items, k):
        rng = DeterministicRng(seed)
        out = rng.weighted_sample(items, [1.0] * len(items), k)
        assert len(out) == len(set(out)) == min(k, len(items))


class TestJaccardProperties:
    @given(st.sets(st.integers()), st.sets(st.integers()))
    def test_bounds(self, a, b):
        value = jaccard_index(a, b)
        assert 0.0 <= value <= 1.0

    @given(st.sets(st.integers()), st.sets(st.integers()))
    def test_symmetry(self, a, b):
        assert jaccard_index(a, b) == jaccard_index(b, a)

    @given(st.sets(st.integers()))
    def test_identity(self, a):
        assert jaccard_index(a, a) == 1.0

    @given(st.sets(st.integers(), min_size=1), st.sets(st.integers(), min_size=1))
    def test_disjoint_iff_zero(self, a, b):
        value = jaccard_index(a, b)
        assert (value == 0.0) == (not (a & b))


class TestHostnameProperties:
    @given(HOSTNAMES)
    def test_exact_match_reflexive(self, hostname):
        assert hostname_matches(hostname, hostname)

    @given(HOSTNAMES)
    def test_case_insensitive(self, hostname):
        assert hostname_matches(hostname.upper(), hostname)

    @given(LABELS, HOSTNAMES)
    def test_wildcard_covers_one_label(self, label, base):
        assert hostname_matches(f"*.{base}", f"{label}.{base}")

    @given(LABELS, LABELS, HOSTNAMES)
    def test_wildcard_not_two_labels(self, one, two, base):
        assert not hostname_matches(f"*.{base}", f"{one}.{two}.{base}")


class TestObfuscationProperties:
    @given(st.text(min_size=1, max_size=100))
    def test_roundtrip(self, token):
        blob = obfuscate_token(token)
        assert bytes.fromhex(blob.removeprefix("enc:")).decode()[::-1] == token

    @given(st.text(min_size=1, max_size=100))
    def test_hides_pin_prefix(self, suffix):
        token = "sha256/" + suffix
        assert "sha256/" not in obfuscate_token(token)


PIN_BODIES = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    min_size=28,
    max_size=43,
)


class TestNSCProperties:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(HOSTNAMES, st.lists(PIN_BODIES, max_size=3), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    def test_xml_roundtrip(self, configs):
        config = NSCConfig(
            domain_configs=[
                NSCDomainConfig(
                    domain=domain,
                    include_subdomains=include,
                    pins=[NSCPin("SHA-256", body) for body in pins],
                )
                for domain, pins, include in configs
            ]
        )
        parsed = NSCConfig.from_xml(config.to_xml())
        assert len(parsed.domain_configs) == len(config.domain_configs)
        for original, roundtripped in zip(
            config.domain_configs, parsed.domain_configs
        ):
            assert roundtripped.domain == original.domain
            assert roundtripped.include_subdomains == original.include_subdomains
            assert [p.value for p in roundtripped.pins] == [
                p.value for p in original.pins
            ]


class TestHashRegexProperties:
    @given(st.sampled_from(["sha1", "sha256"]), PIN_BODIES)
    def test_pin_shape_always_matches(self, algorithm, body):
        from repro.core.static.search import HASH_PATTERN

        assert HASH_PATTERN.search(f"{algorithm}/{body}")
