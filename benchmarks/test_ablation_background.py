"""Ablation — iOS associated-domains exclusion (Section 4.5).

Without the exclusion, OS-initiated associated-domain verification (which
distrusts the user-installed proxy CA) is indistinguishable from app
pinning and produces false positives.
"""

from repro.core.dynamic.detector import detect_pinned_destinations
from repro.device.ios import APPLE_BACKGROUND_DOMAINS


def test_exclusion_prevents_false_positives(results, corpus, captures, benchmark):
    def evaluate():
        with_fp = without_fp = 0
        apps = {
            p.app.app_id: p for p in corpus.dataset("ios", "common")
        }
        for result in results.dynamic_results[("ios", "common")]:
            app = apps[result.app_id].app
            gt = {
                u.hostname
                for u in app.behavior.usages_within(30)
                if app.pins_domain(u.hostname)
            }
            # Re-detect without any exclusions (Apple domains kept out so
            # we isolate the associated-domains effect).
            direct, mitm = captures[("ios", "common", result.app_id)]
            verdicts = detect_pinned_destinations(
                direct, mitm, excluded_domains=APPLE_BACKGROUND_DOMAINS
            )
            no_exclusion = {d for d, v in verdicts.items() if v.pinned}
            without_fp += len(no_exclusion - gt)
            with_fp += len(result.pinned_destinations - gt)
        return with_fp, without_fp

    with_fp, without_fp = benchmark(evaluate)
    print(
        f"\nfalse positives — with exclusion: {with_fp}, "
        f"without: {without_fp}"
    )
    assert with_fp == 0
    # Apps that were not re-run with the 2-minute wait and declare
    # associated domains would be falsely flagged.
    assert without_fp >= with_fp
