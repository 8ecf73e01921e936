"""Behaviour without a jailbroken iOS device.

The jailbreak gates two things: IPA decryption (static analysis and
entitlement reading) and Frida (circumvention).  The Apple-domain
exclusion needs neither.
"""

import pytest

from repro.core.dynamic.pipeline import DynamicPipeline
from repro.corpus import CorpusConfig, CorpusGenerator


@pytest.fixture(scope="module")
def locked_world():
    """A corpus plus a pipeline whose iPhone is NOT jailbroken."""
    corpus = CorpusGenerator(CorpusConfig(seed=31337).scaled(0.02)).generate()
    pipeline = DynamicPipeline(corpus)
    pipeline.ios_device.jailbroken = False
    return corpus, pipeline


class TestWithoutJailbreak:
    def test_apple_domains_still_excluded(self, locked_world):
        corpus, pipeline = locked_world
        packaged = corpus.dataset("ios", "popular")[0]
        result = pipeline.run_app(packaged)
        assert "icloud.com" in result.excluded_destinations
        # No entitlement access: associated domains are not excluded.
        for domain in packaged.app.associated_domains:
            assert domain not in result.excluded_destinations

    def test_associated_domains_become_false_positives(self, locked_world):
        """Without the entitlements, OS verification traffic to associated
        domains is indistinguishable from pinning — the §4.5 problem."""
        corpus, pipeline = locked_world
        false_positives = 0
        for packaged in corpus.dataset("ios", "popular"):
            app = packaged.app
            if not app.associated_domains:
                continue
            result = pipeline.run_app(packaged)
            for destination in result.pinned_destinations:
                if not app.pins_domain(destination):
                    false_positives += 1
        # Some associated-domain traffic is resolvable and verifies,
        # looking pinned.
        assert false_positives > 0

    def test_rerun_methodology_still_works(self, locked_world):
        """The 2-minute-wait re-run avoids the problem without needing
        entitlements at all."""
        corpus, pipeline = locked_world
        for packaged in corpus.dataset("ios", "popular"):
            app = packaged.app
            if not app.associated_domains:
                continue
            result = pipeline.run_app(packaged, pre_launch_wait_s=120.0)
            for destination in result.pinned_destinations:
                assert app.pins_domain(destination), destination

    def test_static_analysis_blocked(self, locked_world):
        from repro.core.static.pipeline import StaticPipeline
        from repro.errors import DeviceError

        corpus, _ = locked_world
        pipeline = StaticPipeline(
            corpus.registry, jailbroken_device_available=False
        )
        with pytest.raises(DeviceError):
            pipeline.analyze_app(corpus.dataset("ios", "popular")[1])

    def test_frida_blocked(self, locked_world):
        from repro.core.circumvent import FridaSession
        from repro.errors import InstrumentationError

        _, pipeline = locked_world
        with pytest.raises(InstrumentationError):
            FridaSession(pipeline.ios_device)
