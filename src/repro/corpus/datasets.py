"""Corpus containers.

An :class:`AppCorpus` is the generated world: the PKI, the server side,
and the six app datasets.  ``PackagedApp`` is whichever platform wrapper
applies (:class:`~repro.appmodel.android.AndroidApp` or
:class:`~repro.appmodel.ios.IOSApp`); both expose ``.app`` (the ground
truth) and the platform package.

The result store keeps a corpus in two parts (DESIGN.md §10): its
**catalogue** (:meth:`AppCorpus.catalogue`), everything the tables, the
auditor and the verify oracle read, and its **detached part**
(:meth:`AppCorpus.detached_parts`): every package's file tree, which only
the analyses of a computed unit read, and the CT log, which only static
analysis reads.  A corpus read back from the catalogue holds None in
their place until :meth:`AppCorpus.attach` reads them back.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.appmodel.android import AndroidApp
from repro.appmodel.ios import IOSApp
from repro.errors import CorpusError
from repro.pki.authority import PKIHierarchy
from repro.pki.store import StoreCatalog
from repro.servers.registry import EndpointRegistry

PackagedApp = Union[AndroidApp, IOSApp]

#: (platform, dataset) pairs in the study.
DatasetKey = Tuple[str, str]


#: What a catalogue leaves out: the CT log, and per dataset the file tree
#: of each app, in dataset order.
DetachedParts = Tuple[object, Dict[DatasetKey, List[object]]]


def _tree(packaged: PackagedApp):
    if isinstance(packaged, AndroidApp):
        return packaged.package
    return packaged.ipa._payload


def _set_tree(packaged: PackagedApp, tree) -> None:
    if isinstance(packaged, AndroidApp):
        packaged.package = tree
    else:
        packaged.ipa._payload = tree


def _without_tree(packaged: PackagedApp) -> PackagedApp:
    """A shallow copy of ``packaged`` whose file tree is None."""
    shell = copy.copy(packaged)
    if isinstance(packaged, IOSApp):
        shell.ipa = copy.copy(packaged.ipa)
    _set_tree(shell, None)
    return shell


@dataclass
class AppCorpus:
    """Everything one seed generates.

    Attributes:
        load_detached: on a corpus read back from a stored catalogue,
            what reads its detached part (:meth:`attach`); None on a
            whole corpus.
    """

    seed: int
    hierarchy: PKIHierarchy
    stores: StoreCatalog
    registry: EndpointRegistry
    datasets: Dict[DatasetKey, List[PackagedApp]] = field(default_factory=dict)
    load_detached: Optional[Callable[[], DetachedParts]] = field(
        default=None, repr=False, compare=False
    )

    def catalogue(self) -> "AppCorpus":
        """A shallow copy of this corpus whose file trees and CT log are
        None; this corpus is left whole."""
        datasets = {
            key: [_without_tree(packaged) for packaged in apps]
            for key, apps in self.datasets.items()
        }
        registry = copy.copy(self.registry)
        registry.ctlog = None
        return replace(self, registry=registry, datasets=datasets)

    def detached_parts(self) -> DetachedParts:
        """What :meth:`catalogue` leaves out, as :meth:`attach` puts it
        back."""
        trees = {key: [_tree(packaged) for packaged in apps] for key, apps in self.datasets.items()}
        return self.registry.ctlog, trees

    def attach(self) -> None:
        """Make a corpus read back from a catalogue whole: read its file
        trees and CT log back, once.  A whole corpus is left as it is.

        Until then every file tree and the CT log are None, so analysis
        that reads one fails with a programming error, never on an empty
        package.
        """
        if self.load_detached is None:
            return
        ctlog, trees = self.load_detached()
        self.registry.ctlog = ctlog
        for key, apps in self.datasets.items():
            for packaged, tree in zip(apps, trees[key]):
                _set_tree(packaged, tree)
        self.load_detached = None

    def dataset(self, platform: str, name: str) -> List[PackagedApp]:
        """One dataset, e.g. ``corpus.dataset("ios", "popular")``.

        Raises:
            CorpusError: for an unknown key.
        """
        key = (platform, name)
        if key not in self.datasets:
            raise CorpusError(f"no dataset {key!r} in this corpus")
        return self.datasets[key]

    def all_apps(self, platform: Optional[str] = None) -> List[PackagedApp]:
        """Unique apps, optionally filtered by platform."""
        seen = set()
        out: List[PackagedApp] = []
        for (plat, _), apps in sorted(self.datasets.items()):
            if platform is not None and plat != platform:
                continue
            for packaged in apps:
                if packaged.app.app_id not in seen:
                    seen.add(packaged.app.app_id)
                    out.append(packaged)
        return out

    def common_pairs(self) -> List[Tuple[AndroidApp, IOSApp]]:
        """Matched (Android, iOS) pairs of the Common dataset."""
        android = {
            a.app.cross_platform_id: a
            for a in self.dataset("android", "common")
            if a.app.cross_platform_id
        }
        pairs: List[Tuple[AndroidApp, IOSApp]] = []
        for ios_app in self.dataset("ios", "common"):
            match = android.get(ios_app.app.cross_platform_id)
            if match is not None:
                pairs.append((match, ios_app))
        return pairs

    def find_app(self, app_id: str) -> PackagedApp:
        """Locate an app anywhere in the corpus.

        Raises:
            CorpusError: if absent.
        """
        for apps in self.datasets.values():
            for packaged in apps:
                if packaged.app.app_id == app_id:
                    return packaged
        raise CorpusError(f"app {app_id!r} not in corpus")

    def total_unique_apps(self) -> int:
        """The headline corpus size (the paper's 5,079)."""
        return len(self.all_apps())
