"""Tests for capture serialization."""

import pytest

from repro.core.dynamic import DynamicPipeline
from repro.core.dynamic.classify import connection_failed, connection_used
from repro.errors import EncodingError
from repro.netsim.export import dump_capture, flow_to_dict, load_capture


@pytest.fixture(scope="module")
def pinner(small_corpus):
    return next(
        p
        for p in small_corpus.dataset("ios", "popular")
        if p.app.pins_at_runtime()
    )


@pytest.fixture(scope="module")
def sample_result(small_corpus, pinner):
    return DynamicPipeline(small_corpus).run_app(pinner)


@pytest.fixture(scope="module")
def captures(small_corpus, pinner):
    """The direct and MITM captures of ``sample_result``'s run."""
    return DynamicPipeline(small_corpus).captures(pinner)


class TestRoundtrip:
    def test_capture_roundtrip_preserves_flows(self, captures):
        for capture in captures:
            restored = load_capture(dump_capture(capture))
            assert len(restored) == len(capture)
            for original, loaded in zip(capture, restored):
                assert loaded.sni == original.sni
                assert loaded.version == original.version
                assert loaded.trace.teardown == original.trace.teardown
                assert len(loaded.trace.records) == len(original.trace.records)
                assert loaded.gt_pinned == original.gt_pinned

    def test_classifiers_agree_after_roundtrip(self, captures):
        capture = captures[1]
        restored = load_capture(dump_capture(capture))
        for original, loaded in zip(capture, restored):
            assert connection_used(loaded) == connection_used(original)
            assert connection_failed(loaded) == connection_failed(original)

    def test_detector_agrees_after_roundtrip(self, sample_result, captures):
        from repro.core.dynamic.detector import detect_pinned_destinations

        direct, mitm = (load_capture(dump_capture(capture)) for capture in captures)
        verdicts = detect_pinned_destinations(
            direct, mitm, sample_result.excluded_destinations
        )
        pinned = {d for d, v in verdicts.items() if v.pinned}
        assert pinned == sample_result.pinned_destinations

    def test_payloads_only_for_decrypted_flows(self, captures):
        for flow in captures[1]:
            data = flow_to_dict(flow)
            if not flow.plaintext_visible:
                assert data["payloads"] == []
            else:
                restored_fields = [p["fields"] for p in data["payloads"]]
                assert len(restored_fields) == len(flow.decrypted_payloads())

    def test_decrypted_payloads_survive(self, captures):
        capture = captures[1]
        restored = load_capture(dump_capture(capture))
        for original, loaded in zip(capture, restored):
            if original.plaintext_visible:
                assert (
                    loaded.decrypted_payloads()[0].fields
                    == original.decrypted_payloads()[0].fields
                )


class TestErrors:
    def test_garbage_rejected(self):
        with pytest.raises(EncodingError):
            load_capture("not json at all")

    def test_wrong_format_version(self):
        with pytest.raises(EncodingError):
            load_capture('{"format": 99, "flows": []}')

    def test_malformed_flow(self):
        with pytest.raises(EncodingError):
            load_capture('{"format": 1, "flows": [{"sni": "x"}]}')
