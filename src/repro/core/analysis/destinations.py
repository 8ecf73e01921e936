"""Pinned-destination structure (Section 5.2, Figure 5).

For every pinning app in the Popular and Random sets, split the contacted
destinations four ways: pinned/not-pinned × first/third party.  Party
attribution uses the whois-style directory with the served certificate's
subject organisation as fallback — the paper's "various points of
information".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.dynamic.pipeline import DynamicAppResult
from repro.corpus.datasets import AppCorpus
from repro.reporting.tables import Table, percent


@dataclass
class AppDestinationProfile:
    """One Figure 5 bar."""

    app_id: str
    platform: str
    dataset: str
    pinned_first: int = 0
    pinned_third: int = 0
    unpinned_first: int = 0
    unpinned_third: int = 0

    @property
    def total(self) -> int:
        return (
            self.pinned_first
            + self.pinned_third
            + self.unpinned_first
            + self.unpinned_third
        )

    @property
    def pinned_fraction(self) -> float:
        return (
            (self.pinned_first + self.pinned_third) / self.total
            if self.total
            else 0.0
        )

    def pins_all_contacted(self) -> bool:
        return self.total > 0 and self.unpinned_first + self.unpinned_third == 0

    def pins_all_first_party(self) -> bool:
        contacted_first = self.pinned_first + self.unpinned_first
        return contacted_first > 0 and self.unpinned_first == 0


def build_destination_profiles(
    corpus: AppCorpus,
    results_by_dataset: Dict[Tuple[str, str], List[DynamicAppResult]],
    datasets: Sequence[str] = ("popular", "random"),
) -> List[AppDestinationProfile]:
    """Figure 5 bars for every pinning app in the given datasets."""
    parties = corpus.registry.parties
    profiles: List[AppDestinationProfile] = []
    for (platform, dataset), results in sorted(results_by_dataset.items()):
        if dataset not in datasets:
            continue
        apps_by_id = {
            p.app.app_id: p for p in corpus.dataset(platform, dataset)
        }
        for result in results:
            if not result.pins():
                continue
            app = apps_by_id[result.app_id].app
            profile = AppDestinationProfile(
                app_id=result.app_id, platform=platform, dataset=dataset
            )
            for destination, verdict in result.verdicts.items():
                if verdict.excluded:
                    continue
                chain = None
                if corpus.registry.knows(destination):
                    chain = corpus.registry.resolve(destination).chain
                party = parties.classify(destination, app.owner, chain)
                if verdict.pinned:
                    if party == "first":
                        profile.pinned_first += 1
                    else:
                        profile.pinned_third += 1
                else:
                    if party == "first":
                        profile.unpinned_first += 1
                    else:
                        profile.unpinned_third += 1
            profiles.append(profile)
    return profiles


def figure5_table(profiles: List[AppDestinationProfile]) -> Table:
    """Figure 5's data as rows (one per pinning app)."""
    table = Table(
        title=(
            "Figure 5: Pinned vs not-pinned destinations per pinning app "
            "(first/third party split)"
        ),
        headers=[
            "App",
            "Platform",
            "Dataset",
            "Pinned 1st",
            "Pinned 3rd",
            "Unpinned 1st",
            "Unpinned 3rd",
            "% pinned",
        ],
    )
    for p in sorted(profiles, key=lambda x: -x.pinned_fraction):
        table.add_row(
            p.app_id,
            p.platform,
            p.dataset,
            p.pinned_first,
            p.pinned_third,
            p.unpinned_first,
            p.unpinned_third,
            percent(p.pinned_fraction, 0),
        )
    return table


@dataclass
class DestinationSummary:
    """Section 5.2's aggregate claims about Figure 5."""

    pinning_apps: int = 0
    apps_pinning_all_domains: int = 0
    pinned_destinations_first: int = 0
    pinned_destinations_third: int = 0
    apps_with_first_party_pins: int = 0
    apps_pinning_all_first_party: int = 0
    apps_with_third_party_pins: int = 0


def summarize_destinations(
    profiles: List[AppDestinationProfile],
) -> DestinationSummary:
    summary = DestinationSummary()
    for p in profiles:
        summary.pinning_apps += 1
        summary.pinned_destinations_first += p.pinned_first
        summary.pinned_destinations_third += p.pinned_third
        if p.pins_all_contacted():
            summary.apps_pinning_all_domains += 1
        if p.pinned_first:
            summary.apps_with_first_party_pins += 1
            if p.pins_all_first_party():
                summary.apps_pinning_all_first_party += 1
        if p.pinned_third:
            summary.apps_with_third_party_pins += 1
    return summary
