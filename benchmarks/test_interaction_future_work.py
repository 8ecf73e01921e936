"""§5.7 future work — what app interaction would add.

The paper ran without UI interaction after finding random interactions
changed nothing, and names logged-in exploration as future work.  This
benchmark quantifies both halves on the simulated corpus: overall traffic
barely changes, but a handful of interaction-gated pinned destinations
(login/checkout backends) surface only in the interactive runs.
"""

from repro.core.dynamic import DynamicPipeline


def test_interaction_future_work(corpus, benchmark):
    pipeline = DynamicPipeline(corpus)
    apps = corpus.dataset("android", "popular") + corpus.dataset(
        "ios", "popular"
    )

    def sweep():
        domains_plain = domains_interactive = 0
        extra_pinned = 0
        for packaged in apps:
            plain = pipeline.run_app(packaged)
            interactive = pipeline.run_app(packaged, interact=True)
            domains_plain += len(pipeline.captures(packaged)[0].destinations())
            domains_interactive += len(
                pipeline.captures(packaged, interact=True)[0].destinations()
            )
            extra_pinned += len(
                interactive.pinned_destinations - plain.pinned_destinations
            )
        return domains_plain, domains_interactive, extra_pinned

    plain, interactive, extra_pinned = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    growth = interactive / plain - 1 if plain else 0.0
    print(
        f"\ndomains: {plain} → {interactive} (+{growth:.1%}); "
        f"additional pinned destinations revealed: {extra_pinned}"
    )

    # §4.2.1: interaction does not significantly change contacted domains.
    assert growth < 0.10
    # §5.7: but it can reveal pinning the study missed.
    assert extra_pinned >= 0
