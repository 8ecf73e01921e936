"""Tests for repro.core.static.search, nsc_analysis, ctlookup, decompile."""

import pytest

from repro.appmodel.filetree import FileTree
from repro.core.static.ctlookup import resolve_pins
from repro.core.static.decompile import decompile_android, decrypt_ios
from repro.core.static.nsc_analysis import analyze_nsc
from repro.core.static.search import (
    CERT_EXTENSIONS,
    HASH_PATTERN,
    PinFinding,
    scan_tree,
)
from repro.errors import DeviceError
from repro.pki.authority import PKIHierarchy
from repro.pki.ctlog import CTLog
from repro.util.encoding import b64encode
from repro.util.rng import DeterministicRng


@pytest.fixture(scope="module")
def issued():
    hierarchy = PKIHierarchy(DeterministicRng(101))
    return hierarchy.issue_leaf_chain("scan.example.com", DeterministicRng(102))


class TestHashRegex:
    def test_matches_base64_pin(self):
        assert HASH_PATTERN.search("sha256/WW91IGZvdW5kIHRoZSBwaW4hISE=")

    def test_matches_sha1(self):
        assert HASH_PATTERN.search("sha1/" + "a" * 28)

    def test_matches_hex_digest(self):
        assert HASH_PATTERN.search("sha256/" + "ab" * 32)

    def test_rejects_short_token(self):
        assert not HASH_PATTERN.search("sha256/short")

    def test_rejects_other_algorithms(self):
        assert not HASH_PATTERN.search("sha512/" + "a" * 40)

    def test_quoted_pin_matches_whole_token(self):
        pin = "sha256/" + "b" * 43 + "="
        match = HASH_PATTERN.search(f'const-string v1, "{pin}"')
        assert match and match.group(0) == pin

    def test_no_truncated_match_inside_longer_base64_run(self):
        """The pre-anchoring bug: a digest-class run longer than 64 chars
        used to yield a silently truncated 64-char 'pin'.  An overlong run
        is not a pin at all and must not match."""
        assert not HASH_PATTERN.search("sha256/" + "c" * 65)
        assert not HASH_PATTERN.search("sha256/" + "ab" * 40)

    def test_no_match_when_preceded_by_base64_char(self):
        token = "sha256/" + "a" * 43 + "="
        assert not HASH_PATTERN.search("AAAA" + token)
        # A non-digest separator restores the match.
        assert HASH_PATTERN.search("AAAA." + token)

    def test_boundary_characters_do_not_block(self):
        token = "sha1/" + "a" * 28
        for context in (token, f"({token})", f"x={token};", f"pin:{token}\n"):
            match = HASH_PATTERN.search(context)
            assert match and match.group(0) == token, context

    def test_token_after_base64_padding_matches(self):
        # Padding terminates the preceding run, so a token right after
        # "==" is cleanly delimited.
        token = "sha1/" + "a" * 28
        match = HASH_PATTERN.search("QUJD==" + token)
        assert match and match.group(0) == token


class TestDedupKeys:
    """Dedup keys must be tuples: concatenating subject and serial makes
    ``("CN=A", "BC")`` collide with ``("CN=AB", "C")`` and silently drop a
    distinct certificate."""

    @pytest.fixture()
    def colliding_pem(self):
        from repro.pki.certificate import Certificate, DistinguishedName
        from repro.pki.keys import KeyPair
        from repro.util.simtime import Timestamp

        def cert(common_name, serial, label):
            name = DistinguishedName(common_name=common_name)
            key = KeyPair.generate(DeterministicRng(hash(label) & 0xFFFF))
            return Certificate(
                subject=name,
                issuer=name,
                serial=serial,
                not_before=Timestamp(0),
                not_after=Timestamp(10**9),
                key=key,
            )

        first = cert("A", "BC", "first")
        second = cert("AB", "C", "second")
        assert first.subject.render() + first.serial == (
            second.subject.render() + second.serial
        )
        return first.to_pem() + "\n" + second.to_pem()

    def test_extension_channel_keeps_both_certificates(self, colliding_pem):
        tree = FileTree()
        tree.add("assets/bundle.pem", colliding_pem)
        result = scan_tree(tree)
        assert len(result.certificates) == 2

    def test_pem_channel_keeps_both_certificates(self, colliding_pem):
        tree = FileTree()
        tree.add("res/raw/pins.txt", colliding_pem)
        result = scan_tree(tree)
        assert len(result.certificates) == 2
        assert {c.channel for c in result.certificates} == {"pem"}


class TestScanTree:
    def test_finds_pem_file_by_extension(self, issued):
        tree = FileTree()
        tree.add("assets/server.pem", issued.chain.leaf.to_pem())
        result = scan_tree(tree)
        assert len(result.certificates) == 1
        assert result.certificates[0].channel == "extension"
        assert (
            result.certificates[0].certificate.common_name
            == "scan.example.com"
        )

    def test_finds_base64_der_cer_file(self, issued):
        tree = FileTree()
        tree.add("cert.cer", b64encode(issued.chain.leaf.to_der()))
        result = scan_tree(tree)
        assert len(result.certificates) == 1

    def test_finds_base64_wrapped_pem_cer(self, issued):
        tree = FileTree()
        tree.add(
            "cert2.cer", b64encode(issued.chain.leaf.to_pem().encode("utf-8"))
        )
        result = scan_tree(tree)
        assert len(result.certificates) == 1

    def test_finds_pem_delimiter_in_code(self, issued):
        tree = FileTree()
        tree.add(
            "src/Pinner.java",
            f'String CERT = """{issued.chain.leaf.to_pem()}""";',
        )
        result = scan_tree(tree)
        assert any(f.channel == "pem" for f in result.certificates)

    def test_finds_pin_strings_in_text(self, issued):
        pin = issued.chain.leaf.spki_pin()
        tree = FileTree()
        tree.add("smali/X.smali", f'const-string v1, "{pin}"')
        result = scan_tree(tree)
        assert pin in result.unique_pins()
        assert result.pins[0].channel == "text"

    def test_finds_pins_in_native_binary(self, issued):
        pin = issued.chain.leaf.spki_pin()
        tree = FileTree()
        tree.add("lib/arm64/libpin.so", pin, binary=True)
        result = scan_tree(tree)
        assert result.pins and result.pins[0].channel == "native-strings"

    def test_native_pass_can_be_disabled(self, issued):
        pin = issued.chain.leaf.spki_pin()
        tree = FileTree()
        tree.add("lib/arm64/libpin.so", pin, binary=True)
        result = scan_tree(tree, include_native=False)
        assert not result.has_material()

    def test_obfuscated_material_missed(self, issued):
        from repro.appmodel.package import obfuscate_token

        tree = FileTree()
        tree.add("code.smali", obfuscate_token(issued.chain.leaf.spki_pin()))
        assert not scan_tree(tree).has_material()

    def test_junk_cert_file_ignored(self):
        tree = FileTree()
        tree.add("data/notes.pem", "just some text, not a certificate")
        tree.add("data/junk.der", "!!!! not base64 !!!!")
        assert not scan_tree(tree).has_material()

    def test_deduplicates_same_pin_same_file(self, issued):
        pin = issued.chain.leaf.spki_pin()
        tree = FileTree()
        tree.add("a.txt", f"{pin}\n{pin}\n")
        result = scan_tree(tree)
        assert len(result.pins) == 1

    def test_finding_paths(self, issued):
        tree = FileTree()
        tree.add("a.pem", issued.chain.leaf.to_pem())
        tree.add("b.txt", issued.chain.leaf.spki_pin())
        assert scan_tree(tree).finding_paths() == {"a.pem", "b.txt"}

    def test_all_paper_extensions_covered(self):
        assert set(CERT_EXTENSIONS) == {".der", ".pem", ".crt", ".cert", ".cer"}


class TestNSCAnalysis:
    def _tree_with_nsc(self, pins=True, override=False):
        from repro.appmodel.manifest import AndroidManifest
        from repro.appmodel.nsc import NSCConfig, NSCDomainConfig, NSCPin

        tree = FileTree()
        manifest = AndroidManifest(
            package="com.x",
            network_security_config="@xml/network_security_config",
        )
        tree.add("AndroidManifest.xml", manifest.to_xml())
        dc = NSCDomainConfig(domain="api.x.com", override_pins=override)
        if pins:
            dc.pins.append(NSCPin("SHA-256", "UGlubmVkIQ=="))
        config = NSCConfig(domain_configs=[dc])
        tree.add("res/xml/network_security_config.xml", config.to_xml())
        return tree

    def test_detects_pins(self):
        analysis = analyze_nsc(self._tree_with_nsc())
        assert analysis.uses_nsc and analysis.has_pins
        assert analysis.pins == ["sha256/UGlubmVkIQ=="]
        assert analysis.domains == ["api.x.com"]

    def test_nsc_without_pins(self):
        analysis = analyze_nsc(self._tree_with_nsc(pins=False))
        assert analysis.uses_nsc and not analysis.has_pins

    def test_override_misconfiguration_flagged(self):
        analysis = analyze_nsc(self._tree_with_nsc(override=True))
        assert analysis.misconfigured_override

    def test_no_manifest(self):
        assert not analyze_nsc(FileTree()).uses_nsc

    def test_manifest_without_nsc(self):
        from repro.appmodel.manifest import AndroidManifest

        tree = FileTree()
        tree.add("AndroidManifest.xml", AndroidManifest(package="com.x").to_xml())
        assert not analyze_nsc(tree).uses_nsc

    def test_dangling_nsc_reference(self):
        from repro.appmodel.manifest import AndroidManifest

        tree = FileTree()
        tree.add(
            "AndroidManifest.xml",
            AndroidManifest(
                package="com.x", network_security_config="@xml/missing"
            ).to_xml(),
        )
        assert not analyze_nsc(tree).uses_nsc

    def test_malformed_config_treated_as_unused(self):
        from repro.appmodel.manifest import AndroidManifest

        tree = FileTree()
        tree.add(
            "AndroidManifest.xml",
            AndroidManifest(
                package="com.x", network_security_config="@xml/broken"
            ).to_xml(),
        )
        tree.add("res/xml/broken.xml", "<broken")
        assert not analyze_nsc(tree).uses_nsc


class TestCTLookup:
    def test_resolves_public_pins(self, issued):
        log = CTLog()
        log.log_chain(issued.chain)
        findings = [
            PinFinding("a", issued.chain.leaf.spki_pin(), "text"),
            PinFinding("b", "sha256/" + "A" * 43 + "=", "text"),
        ]
        resolution = resolve_pins(findings, log)
        assert len(resolution.resolved) == 1
        assert len(resolution.unresolved) == 1
        assert resolution.certificates()

    def test_empty_input(self):
        resolution = resolve_pins([], CTLog())
        assert not resolution.resolved and not resolution.unresolved


class TestDecompileDecrypt:
    def test_decompile_android(self, small_corpus):
        packaged = small_corpus.dataset("android", "popular")[0]
        tree = decompile_android(packaged)
        assert "AndroidManifest.xml" in tree

    def test_decrypt_requires_jailbreak(self, small_corpus):
        packaged = small_corpus.dataset("ios", "popular")[0]
        with pytest.raises(DeviceError):
            decrypt_ios(packaged, jailbroken_device_available=False)

    def test_decrypt_tool_choice(self, small_corpus):
        packaged = small_corpus.dataset("ios", "popular")[1]
        outcome = decrypt_ios(packaged, prefer_flexdecrypt=False)
        assert outcome.tool == "frida-ios-dump"
        assert len(outcome.tree) > 0
