#!/usr/bin/env python
"""Cross-platform consistency audit (the paper's Section 5.1 / Figures 2–4).

The Common dataset holds the same product on Android and iOS.  One entity
controls both builds, so you would expect identical pinning policies —
the paper found fewer than half of both-platform pinners are consistent.
This script reproduces the audit: it runs the dynamic pipeline over the
Common pairs, classifies every pair, and prints Figures 2, 3 and 4.

Run:
    python examples/cross_platform_audit.py [--scale 0.15]
"""

import argparse

from repro.cli import _scale
from repro.core.analysis import Study
from repro.core.analysis.consistency import summarize_pairs
from repro.corpus import CorpusConfig, CorpusGenerator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=_scale, default=0.15)
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args()

    corpus = CorpusGenerator(CorpusConfig(seed=args.seed).scaled(args.scale)).generate()
    print(
        f"Common dataset: {len(corpus.common_pairs())} app pairs "
        f"(paper: 575)\n"
    )
    results = Study(corpus).run()

    print(results.figure2().render())
    print()
    print(results.figure3().render())
    print()
    figure4a, figure4b = results.figure4()
    print(figure4a.render())
    print()
    print(figure4b.render())

    classifications = [c for _, c in results.pair_classifications()]
    summary = summarize_pairs(classifications)

    from repro.reporting.figures import stacked_bar

    print("\nConsistency mix among both-platform pinners:")
    print(
        stacked_bar(
            "both-platform",
            [
                ("consistent", summary.both_consistent),
                ("inconsistent", summary.both_inconsistent),
                ("inconclusive", summary.both_inconclusive),
            ],
        )
    )
    if summary.pins_both:
        consistent_share = summary.both_consistent / summary.pins_both
        print(
            f"\nOf the {summary.pins_both} apps pinning on both platforms, "
            f"{summary.both_consistent} ({consistent_share:.0%}) are fully "
            "consistent — the paper found 15/27 (56%), with only 13 pinning "
            "identical domain sets."
        )


if __name__ == "__main__":
    main()
