"""Static-pipeline orchestration.

Runs decompilation/decryption, content scans, NSC analysis and CT
resolution over packaged apps, producing :class:`StaticAppReport` per app
and corpus-level aggregates (attribution input, unique-certificate
inventories).

The per-app flow is the declarative :data:`STATIC_GRAPH` stage graph
(DESIGN.md §15): decompile → scan → ct_lookup → report, with per-stage
telemetry, fault points, and content-addressed stage fingerprints derived
from the declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.appmodel.android import AndroidApp
from repro.appmodel.filetree import FileTree
from repro.appmodel.ios import IOSApp
from repro.core.pipeline import Artifact, Stage, StageGraph
from repro.core.static.attribution import AttributionResult, attribute_findings
from repro.core.static.ctlookup import resolve_pins
from repro.core.static.nsc_analysis import NSCAnalysis, analyze_nsc
from repro.core.static.report import StaticAppReport
from repro.core.static.search import scan_tree
from repro.errors import AnalysisError
from repro.pki.ctlog import CTLog
from repro.servers.registry import EndpointRegistry

#: Tool sentinel for the simulated apktool decompilation path.  Android
#: apps need no decryption, but report rows must never carry an empty
#: tool field (the audit catalogue asserts this).
ANDROID_DECOMPILER = "apktool-sim"


@dataclass(frozen=True)
class DecompiledApp:
    """The ``decompile`` stage's artifact: a file tree plus provenance.

    NSC extraction rides along because it reads the same manifest pass
    the Android decompiler produces (and is structurally empty on iOS).
    """

    tree: FileTree
    tool: str
    nsc: NSCAnalysis


def _decompile(ctx, a):
    from repro.core.static.decompile import decompile_android, decrypt_ios

    packaged = a["packaged"]
    if isinstance(packaged, AndroidApp):
        tree = decompile_android(packaged)
        return DecompiledApp(
            tree=tree, tool=ANDROID_DECOMPILER, nsc=analyze_nsc(tree)
        )
    if isinstance(packaged, IOSApp):
        outcome = decrypt_ios(packaged, ctx.jailbroken_device_available)
        # NSC is not an iOS concept; an empty analysis keeps report rows
        # uniform.
        return DecompiledApp(
            tree=outcome.tree, tool=outcome.tool, nsc=NSCAnalysis()
        )
    raise AnalysisError(  # pragma: no cover - defensive
        f"unknown package type {type(packaged).__name__}"
    )


def _scan(ctx, a):
    return scan_tree(a["decompile"].tree, include_native=ctx.include_native)


def _ct_lookup(ctx, a):
    return resolve_pins(a["scan"].pins, ctx.ctlog)


def _report(ctx, a):
    return StaticAppReport(
        app_id=a["app_id"],
        platform=a["platform"],
        scan=a["scan"],
        nsc=a["decompile"].nsc,
        ct=a["ct_lookup"],
        decryption_tool=a["decompile"].tool,
    )


STATIC_GRAPH = StageGraph(
    kind="static",
    seeds=(Artifact("packaged", "the packaged app under analysis"),),
    stages=(
        Stage(
            name="decompile",
            fn=_decompile,
            config=("jailbroken_device_available",),
            persist=True,
        ),
        Stage(
            name="scan",
            fn=_scan,
            inputs=("decompile",),
            config=("include_native",),
            persist=True,
        ),
        Stage(
            name="ct_lookup",
            fn=_ct_lookup,
            inputs=("scan",),
            persist=True,
        ),
        Stage(
            name="report",
            fn=_report,
            inputs=("decompile", "scan", "ct_lookup"),
            span=False,
        ),
    ),
)


class StaticPipeline:
    """Static analysis over a corpus.

    Args:
        registry: the endpoint registry whose CT log resolves hashes.
        jailbroken_device_available: gates iOS decryption.
        include_native: run the native-strings pass (ablation knob).
        fault_predicate: injectable per-app failure hook (see
            :mod:`repro.core.exec.faults`); fires before any work on an
            app so no partial state is left behind.
    """

    graph = STATIC_GRAPH

    def __init__(
        self,
        registry: EndpointRegistry,
        jailbroken_device_available: bool = True,
        include_native: bool = True,
        fault_predicate=None,
    ):
        self.registry = registry
        self.jailbroken_device_available = jailbroken_device_available
        self.include_native = include_native
        self.fault_predicate = fault_predicate

    @property
    def ctlog(self) -> CTLog:
        """The registry's CT log, read at each lookup: a corpus read back
        from the result store attaches it after its pipelines are built
        (:meth:`~repro.corpus.datasets.AppCorpus.attach`)."""
        return self.registry.ctlog

    def analyze_app(self, packaged, cache=None, dataset=None) -> StaticAppReport:
        """Analyze one packaged app (Android or iOS).

        With a ``cache`` (stage-granular result store) and a ``dataset``
        name, warm stages are served from the store and only invalidated
        stages recompute.
        """
        return STATIC_GRAPH.run(self, packaged, cache=cache, dataset=dataset)

    @staticmethod
    def attribute(reports: Iterable[StaticAppReport]) -> AttributionResult:
        """Corpus-level third-party attribution over finding paths."""
        return attribute_findings(
            {r.app_id: r.finding_paths() for r in reports}
        )
