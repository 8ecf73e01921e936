"""Dynamic-pipeline orchestration (Figure 1, steps 4–6).

One shared proxy and one device per platform; each app runs twice
(baseline and interception) through the automation harness, then the
differential detector produces per-destination verdicts.

The per-app flow is the declarative :data:`DYNAMIC_GRAPH` stage graph
(DESIGN.md §15): run_direct → run_mitm → exclusions → detect → facts →
result, with per-stage telemetry, fault points, and content-addressed stage
fingerprints derived from the declaration.  The install-to-launch wait
and the interaction flag are per-app parameters (``@wait`` / ``@interact``
config knobs), so the Common-iOS re-run keys differently from the
first pass.  The ``facts`` stage reduces both captures to the per-flow
rows the analysis reads (Tables 8 and 9), scanning decrypted flows for the
device's PII once.  A result carries its rows and verdicts, not the
captures: :meth:`DynamicPipeline.captures` makes them again.

The Common-iOS re-run (Section 4.5) is available via
:meth:`DynamicPipeline.run_dataset` with ``rerun_ios_wait=True``: after an
initial pass, apps found pinning are re-measured with a two-minute
install-to-launch wait so associated-domain verification traffic never
enters the capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.appmodel.ios import IOSApp
from repro.core.dynamic.detector import (
    DETECTOR_VARIANTS,
    DestinationVerdict,
    detect_verdicts,
)
from repro.core.pii.detector import PIIDetector
from repro.core.pipeline import Artifact, Stage, StageGraph
from repro.corpus.datasets import AppCorpus
from repro.device.android import AndroidDevice
from repro.device.ios import IOSDevice
from repro.netsim.capture import TrafficCapture
from repro.netsim.flow import FlowFacts
from repro.netsim.proxy import MITMProxy
from repro.util.rng import DeterministicRng

# The automation harness pulls in the flow simulator and the TLS
# handshake; only an app run needs them, so the harnesses are built on
# the first run (a study served from the result store never runs one).
if TYPE_CHECKING:
    from repro.device.automation import AutomationHarness, RunConfig


@dataclass
class DynamicAppResult:
    """Detection outcome for one app.

    ``direct_facts`` and ``mitm_facts`` hold one row per flow of the two
    captures, in capture order; the analysis reads them.  The captures
    themselves are not kept (:meth:`DynamicPipeline.captures`).
    """

    app_id: str
    platform: str
    verdicts: Dict[str, DestinationVerdict] = field(default_factory=dict)
    excluded_destinations: Set[str] = field(default_factory=set)
    reran_with_wait: bool = False
    direct_facts: Tuple[FlowFacts, ...] = ()
    mitm_facts: Tuple[FlowFacts, ...] = ()

    @property
    def pinned_destinations(self) -> Set[str]:
        """Destinations detected pinning, excluded ones filtered.

        The detector never marks an excluded destination pinned (its
        verdict short-circuits before the differential), so the
        ``not v.excluded`` guard changes no output today — it exists for
        symmetry with :attr:`not_pinned_destinations`, which applies the
        same filter, and protects the invariant against future verdict
        sources that might set both flags.
        """
        return {
            d
            for d, v in self.verdicts.items()
            if v.pinned and not v.excluded
        }

    @property
    def not_pinned_destinations(self) -> Set[str]:
        """Destinations observed (and not excluded) but not pinned."""
        return {
            d
            for d, v in self.verdicts.items()
            if not v.pinned and not v.excluded
        }

    def pins(self) -> bool:
        """Table 3's per-app predicate: at least one pinned destination
        (:attr:`pinned_destinations` is not empty), found without building
        the set."""
        for verdict in self.verdicts.values():
            if verdict.pinned and not verdict.excluded:
                return True
        return False


def _run_config(ctx, a, mitm: bool) -> RunConfig:
    from repro.device.automation import RunConfig

    return RunConfig(
        mitm=mitm,
        sleep_s=ctx.sleep_s,
        pre_launch_wait_s=a["wait"],
        transient_failure_prob=ctx.transient_failure_prob,
        interact=a["interact"],
    )


def _run_direct(ctx, a):
    harness = ctx._harnesses[a["platform"]]
    return harness.run_app(a["packaged"], _run_config(ctx, a, mitm=False))


def _run_mitm(ctx, a):
    harness = ctx._harnesses[a["platform"]]
    return harness.run_app(a["packaged"], _run_config(ctx, a, mitm=True))


def _exclusions(ctx, a):
    packaged = a["packaged"]
    if a["wait"] >= 120.0 and isinstance(packaged, IOSApp):
        # The re-run methodology: verification traffic finished before
        # the capture, so only the Apple domains need excluding.
        from repro.device.ios import APPLE_BACKGROUND_DOMAINS

        return set(APPLE_BACKGROUND_DOMAINS)
    return ctx._exclusions_for(packaged)


def _detect(ctx, a):
    return detect_verdicts(
        a["run_direct"], a["run_mitm"], a["exclusions"], detector=ctx.detector
    )


def _facts(ctx, a):
    detector = ctx._pii_detectors[a["platform"]]
    return (
        detector.capture_facts(a["run_direct"]),
        detector.capture_facts(a["run_mitm"]),
    )


def _result(ctx, a):
    direct_facts, mitm_facts = a["facts"]
    return DynamicAppResult(
        app_id=a["app_id"],
        platform=a["platform"],
        verdicts=a["detect"],
        excluded_destinations=a["exclusions"],
        reran_with_wait=a["wait"] >= 120.0,
        direct_facts=direct_facts,
        mitm_facts=mitm_facts,
    )


DYNAMIC_GRAPH = StageGraph(
    kind="dynamic",
    seeds=(
        Artifact("packaged", "the packaged app under test"),
        Artifact("wait", "install-to-launch delay (per-app parameter)"),
        Artifact("interact", "drive the UI during runs (per-app parameter)"),
    ),
    stages=(
        Stage(
            name="run_direct",
            fn=_run_direct,
            config=(
                "sleep_s",
                "transient_failure_prob",
                "@wait",
                "@interact",
            ),
            persist=True,
        ),
        Stage(
            name="run_mitm",
            fn=_run_mitm,
            config=(
                "sleep_s",
                "transient_failure_prob",
                "@wait",
                "@interact",
            ),
            persist=True,
        ),
        Stage(
            name="exclusions",
            fn=_exclusions,
            config=("@wait",),
            persist=True,
            span=False,
        ),
        Stage(
            name="detect",
            fn=_detect,
            inputs=("run_direct", "run_mitm", "exclusions"),
            config=("detector",),
            persist=True,
        ),
        Stage(
            name="facts",
            fn=_facts,
            inputs=("run_direct", "run_mitm"),
        ),
        Stage(
            name="result",
            fn=_result,
            inputs=("exclusions", "detect", "facts"),
            span=False,
        ),
    ),
    params_from_extra=lambda extra: {
        "wait": float(extra or 0.0),
        "interact": False,
    },
)


class DynamicPipeline:
    """Runs the two-setting experiment over corpus datasets.

    Args:
        corpus: the app corpus (devices/proxy are seeded from it).
        sleep_s: capture window per run.
        transient_failure_prob: simulated per-connection flakiness.
        fault_predicate: injectable per-app failure hook.
        detector: which :data:`DETECTOR_VARIANTS` member the ``detect``
            stage runs; the stage-graph config knob behind ``repro study
            --detector``.
    """

    graph = DYNAMIC_GRAPH

    def __init__(
        self,
        corpus: AppCorpus,
        sleep_s: float = 30.0,
        transient_failure_prob: float = 0.015,
        fault_predicate=None,
        detector: str = "full",
    ):
        if detector not in DETECTOR_VARIANTS:
            raise ValueError(
                f"unknown detector {detector!r}; expected one of "
                f"{DETECTOR_VARIANTS}"
            )
        self.corpus = corpus
        self.sleep_s = sleep_s
        self.transient_failure_prob = transient_failure_prob
        self.fault_predicate = fault_predicate
        self.detector = detector
        rng = self._rng = DeterministicRng(corpus.seed).child("dynamic")
        self.proxy = MITMProxy(rng.child("proxy"))
        self.android_device = AndroidDevice(
            corpus.stores.android_aosp,
            rng.child("pixel3"),
            proxy_ca=self.proxy.ca_certificate,
        )
        self.ios_device = IOSDevice(
            corpus.stores.ios,
            rng.child("iphonex"),
            proxy_ca=self.proxy.ca_certificate,
        )

    @cached_property
    def _harnesses(self) -> Dict[str, AutomationHarness]:
        """The per-platform automation harnesses, built on first use."""
        from repro.device.automation import AutomationHarness

        return {
            "android": AutomationHarness(
                self.android_device,
                self.corpus.registry,
                self.proxy,
                self._rng.child("harness", "android"),
            ),
            "ios": AutomationHarness(
                self.ios_device,
                self.corpus.registry,
                self.proxy,
                self._rng.child("harness", "ios"),
            ),
        }

    @cached_property
    def _pii_detectors(self) -> Dict[str, PIIDetector]:
        """Per platform, the PII detector for its device's identifiers."""
        return {
            "android": PIIDetector(self.android_device.identifiers),
            "ios": PIIDetector(self.ios_device.identifiers),
        }

    def _exclusions_for(self, packaged) -> Set[str]:
        if isinstance(packaged, IOSApp):
            if packaged.ipa.encrypted:
                # Reading entitlements needs the decrypted payload; the
                # jailbroken device makes that possible on demand.  Without
                # one, the Apple-domain exclusion (which needs no package
                # access) still applies — only the associated-domains list
                # is unavailable.
                if not self.ios_device.jailbroken:
                    from repro.device.ios import APPLE_BACKGROUND_DOMAINS

                    return set(APPLE_BACKGROUND_DOMAINS)
                packaged.ipa.decrypt()
            from repro.core.dynamic.background import ios_excluded_destinations

            return ios_excluded_destinations(packaged)
        return set()

    def run_app(
        self,
        packaged,
        pre_launch_wait_s: float = 0.0,
        interact: bool = False,
        cache=None,
        dataset=None,
    ) -> DynamicAppResult:
        """Run one app in both settings and detect pinned destinations.

        Args:
            packaged: the app.
            pre_launch_wait_s: install-to-launch delay (the Common-iOS
                re-run uses 120 s).
            interact: drive the UI so interaction-gated destinations fire
                (the §5.7 future-work variant; the paper's runs use
                False).
            cache / dataset: stage-granular result store and dataset
                name; warm stages are served from the store.
        """
        return DYNAMIC_GRAPH.run(
            self,
            packaged,
            params={
                "wait": float(pre_launch_wait_s),
                "interact": bool(interact),
            },
            cache=cache,
            dataset=dataset,
        )

    def captures(
        self, packaged, wait: float = 0.0, interact: bool = False
    ) -> Tuple[TrafficCapture, TrafficCapture]:
        """The direct and MITM captures of one app's run, made again by
        the graph's ``run_direct`` and ``run_mitm`` stage functions.

        A capture is a function of the app and the run config alone, so
        these are the captures a :meth:`run_app` with the same ``wait``
        and ``interact`` computed its facts and verdicts from.
        """
        artifacts = {
            "packaged": packaged,
            "platform": packaged.app.platform,
            "wait": float(wait),
            "interact": bool(interact),
        }
        return _run_direct(self, artifacts), _run_mitm(self, artifacts)

    def run_dataset(
        self,
        platform: str,
        name: str,
        rerun_ios_wait: bool = False,
    ) -> List[DynamicAppResult]:
        """Run a whole dataset.

        Args:
            platform / name: dataset key.
            rerun_ios_wait: after the initial pass, re-run apps found
                pinning with the 120 s install-to-launch wait (the paper's
                Common-iOS methodology) and use the re-run results.
        """
        results = [
            self.run_app(packaged)
            for packaged in self.corpus.dataset(platform, name)
        ]
        if rerun_ios_wait and platform == "ios":
            packaged_by_id = {
                p.app.app_id: p for p in self.corpus.dataset(platform, name)
            }
            for index, result in enumerate(results):
                if result.pins():
                    results[index] = self.run_app(
                        packaged_by_id[result.app_id], pre_launch_wait_s=120.0
                    )
        return results
