"""Circumvention pipeline: hook, re-run under MITM, collect plaintext.

For each app dynamic analysis found pinning, attach Frida, disable every
hookable check, and repeat the MITM experiment.  Traffic to bypassed
pinned destinations decrypts; traffic to resistant (custom-TLS) pinned
destinations still fails — the paper's ~51.5 % / ~66.2 % per-destination
success rates are an emergent property of the mechanism mix.

The per-app flow is the declarative :data:`CIRCUMVENT_GRAPH` stage graph
(DESIGN.md §15): hook_inject → hooked_run → verdict.  The pinned set is
a per-app parameter consumed only by the final (non-persisted) verdict
stage, so a detector flip that changes an app's pinned set still reuses
its cached hooked capture — the expensive stage keys on the hook set and
the run knobs alone.  The verdict stage also reduces the hooked capture to
its per-flow facts rows, which Table 9 reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.dynamic.pipeline import DynamicAppResult, DynamicPipeline
from repro.core.pipeline import Artifact, Stage, StageGraph
from repro.netsim.capture import TrafficCapture
from repro.netsim.flow import FlowFacts


@dataclass
class CircumventionResult:
    """Outcome for one pinning app.

    Attributes:
        app_id / platform: identity.
        bypassed_destinations: pinned destinations whose traffic now
            decrypts.
        resistant_destinations: pinned destinations that still reject the
            proxy.
        hooked_capture: the MITM capture of the instrumented run,
            deferred in a finished result: decoded from the result
            store's pack, or re-run with the patched policy, on first
            read.
        hooked_facts: one facts row per flow of ``hooked_capture``;
            Table 9 reads these, not the capture.
    """

    app_id: str
    platform: str
    bypassed_destinations: Set[str] = field(default_factory=set)
    resistant_destinations: Set[str] = field(default_factory=set)
    hooked_capture: TrafficCapture = field(default_factory=TrafficCapture)
    hooked_facts: Tuple[FlowFacts, ...] = ()

    def decrypted_pinned_flows(self) -> List:
        """Flows to pinned destinations that the proxy decrypted."""
        return [
            f
            for f in self.hooked_capture
            if f.sni in self.bypassed_destinations and f.plaintext_visible
        ]


def _hook_inject(ctx, a):
    from repro.core.circumvent.frida import FridaSession

    device = ctx._device_for(a["platform"])
    session = FridaSession(device, hook_set=ctx.hook_set)
    return session.instrument(
        a["packaged"].app.runtime_policy(device.system_store)
    )


def _hooked_run(ctx, a):
    from repro.device.automation import RunConfig

    harness = ctx.dynamic._harnesses[a["platform"]]
    return harness.run_app(
        a["packaged"],
        RunConfig(
            mitm=True,
            sleep_s=ctx.sleep_s,
            transient_failure_prob=ctx.transient_failure_prob,
            policy_override=a["hook_inject"].patched_policy,
        ),
    )


def _verdict(ctx, a):
    pinned = set(a["pinned"])
    capture = a["hooked_run"]
    facts = ctx.dynamic._pii_detectors[a["platform"]].capture_facts(capture)
    # A destination counts as circumvented when its pinned traffic
    # actually decrypted in the hooked run.
    decrypted = {f.sni for f in facts if f.plaintext and f.sni in pinned}
    return CircumventionResult(
        app_id=a["app_id"],
        platform=a["platform"],
        bypassed_destinations=decrypted,
        resistant_destinations=pinned - decrypted,
        hooked_capture=capture,
        hooked_facts=facts,
    )


CIRCUMVENT_GRAPH = StageGraph(
    kind="circumvent",
    seeds=(
        Artifact("packaged", "the pinning app under instrumentation"),
        Artifact("pinned", "its pinned destinations (per-app parameter)"),
    ),
    stages=(
        Stage(
            name="hook_inject",
            fn=_hook_inject,
            config=("hook_set",),
        ),
        Stage(
            name="hooked_run",
            fn=_hooked_run,
            inputs=("hook_inject",),
            config=("sleep_s", "transient_failure_prob"),
            persist=True,
            derive=lambda r: r.hooked_capture,
        ),
        Stage(
            name="verdict",
            fn=_verdict,
            inputs=("hooked_run",),
            config=("@pinned",),
            span=False,
        ),
    ),
    defaults={
        "hook_set": None,
        "sleep_s": 30.0,
        "transient_failure_prob": 0.015,
    },
    params_from_extra=lambda extra: {"pinned": tuple(sorted(extra))},
)


class CircumventionPipeline:
    """Runs hook-and-recapture over dynamic results.

    Args:
        dynamic: the dynamic pipeline whose devices/harnesses to reuse.
        fault_predicate: injectable per-app failure hook (see
            :mod:`repro.core.exec.faults`).
        hook_set: restrict Frida hooking to these library names
            (``None`` = the full catalogue); the stage graph's
            circumvention ablation knob.
    """

    graph = CIRCUMVENT_GRAPH

    def __init__(
        self,
        dynamic: DynamicPipeline,
        fault_predicate=None,
        hook_set: Optional[Iterable[str]] = None,
    ):
        self.dynamic = dynamic
        self.corpus = dynamic.corpus
        self.fault_predicate = fault_predicate
        self.hook_set: Optional[FrozenSet[str]] = (
            None if hook_set is None else frozenset(hook_set)
        )

    @property
    def sleep_s(self) -> float:
        return self.dynamic.sleep_s

    @property
    def transient_failure_prob(self) -> float:
        return self.dynamic.transient_failure_prob

    def _device_for(self, platform: str):
        return (
            self.dynamic.android_device
            if platform == "android"
            else self.dynamic.ios_device
        )

    def circumvent_app(
        self, packaged, result: DynamicAppResult
    ) -> Optional[CircumventionResult]:
        """Hook one pinning app and re-capture under MITM.

        Returns None for apps with no pinned destinations (nothing to
        circumvent).
        """
        return self.circumvent_app_pins(packaged, result.pinned_destinations)

    def circumvent_app_pins(
        self, packaged, pinned: Set[str], cache=None, dataset=None
    ) -> Optional[CircumventionResult]:
        """Like :meth:`circumvent_app`, from a bare pinned-destination set.

        The engine's circumvention units carry just the pinned sets
        instead of full dynamic results: they are all a unit, and its
        store key, needs.  Without a ``cache``, the hooked capture is
        deferred to its ``rerun`` like the dynamic ones
        (:meth:`DynamicPipeline.run_app`).
        """
        if not pinned:
            return None
        result = CIRCUMVENT_GRAPH.run(
            self,
            packaged,
            params={"pinned": tuple(sorted(pinned))},
            cache=cache,
            dataset=dataset,
        )
        if cache is None:
            result.hooked_capture = TrafficCapture.deferred(
                result.hooked_capture.rerun
            )
        return result

    def circumvent_dataset(
        self, packaged_apps: List, results: List[DynamicAppResult]
    ) -> List[CircumventionResult]:
        out: List[CircumventionResult] = []
        by_id = {p.app.app_id: p for p in packaged_apps}
        for result in results:
            if not result.pins():
                continue
            circ = self.circumvent_app(by_id[result.app_id], result)
            if circ is not None:
                out.append(circ)
        return out

    @staticmethod
    def destination_bypass_rate(results: List[CircumventionResult]) -> float:
        """Unique pinned destinations circumvented / all unique pinned."""
        bypassed: Set[str] = set()
        all_pinned: Set[str] = set()
        for r in results:
            bypassed |= r.bypassed_destinations
            all_pinned |= r.bypassed_destinations | r.resistant_destinations
        return len(bypassed) / len(all_pinned) if all_pinned else 0.0
