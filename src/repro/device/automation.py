"""The dynamic-test automation harness.

Reproduces the paper's loop (Section 4.2.1): install one app at a time for
traffic isolation, collect traffic for a sleep window (30 s by default,
after their 15/30/60 s calibration), uninstall, move on.  No UI
interaction — the paper found random interactions changed nothing.

The harness produces a :class:`~repro.netsim.capture.TrafficCapture` per
app run; running with and without the proxy gives the two settings the
differential detector compares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from repro.appmodel.behavior import DestinationUsage
from repro.device.base import Device
from repro.device.ios import APPLE_BACKGROUND_HOSTS, IOSDevice
from repro.errors import DeviceError
from repro.netsim.capture import TrafficCapture
from repro.netsim.flow import Payload
from repro.netsim.proxy import MITMProxy
from repro.netsim.simulate import Destination, simulate_flow
from repro.servers.registry import EndpointRegistry
from repro.tls.handshake import ClientProfile
from repro.tls.policy import CompositePolicy, SystemValidationPolicy
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.simtime import SECONDS_PER_DAY, SimClock, Timestamp

#: Length of the simulated measurement campaign.  Every app is assigned a
#: deterministic install time inside this window (derived from the harness
#: seed and the app id), so timestamps do not depend on the order in which
#: apps are processed.  The window must stay well inside the shortest leaf
#: validity (not_before up to 250 days before the study epoch, 398-day
#: lifetime ⇒ expiry at epoch + 148 days at the earliest).
STUDY_WINDOW_DAYS = 60


@dataclass
class RunConfig:
    """One app-run configuration.

    Attributes:
        mitm: intercept TLS (the second experiment setting).
        sleep_s: capture window after launch.
        pre_launch_wait_s: delay between install and launch.  The paper's
            Common-iOS re-run waits 120 s so OS associated-domain
            verification finishes before capture (Section 4.5).
        transient_failure_prob: server-side failure injection rate.
        policy_override: replace the app's own validation policy — how a
            Frida-patched process runs (Section 4.3).
        interact: drive the app's UI (log in, tap around) so
            interaction-gated destinations fire — the §5.7 future-work
            harness; the study itself runs with False.
    """

    mitm: bool = False
    sleep_s: float = 30.0
    pre_launch_wait_s: float = 0.0
    transient_failure_prob: float = 0.015
    policy_override: Optional[CompositePolicy] = None
    interact: bool = False


class AutomationHarness:
    """Drives one device against one corpus world."""

    def __init__(
        self,
        device: Device,
        registry: EndpointRegistry,
        proxy: MITMProxy,
        rng: DeterministicRng,
        clock: Optional[SimClock] = None,
    ):
        self.device = device
        self.registry = registry
        self.proxy = proxy
        self._rng = rng
        self.clock = clock or SimClock()
        # Anchor of the per-app timeline; install times are deterministic
        # offsets from here (see :meth:`_install_time`).
        self._epoch = self.clock.now

    # -- internals -----------------------------------------------------------

    def _install_time(self, app_id: str) -> Timestamp:
        """Deterministic install time for one app.

        Derived from the harness seed and the app id alone, so a given app
        sees the same timeline whether it runs first or last in its unit,
        or alone in a retry or solo re-run.  Both experiment
        settings (baseline and MITM) share the anchor, as the paper ran
        them back-to-back.
        """
        window_s = STUDY_WINDOW_DAYS * SECONDS_PER_DAY
        offset_s = derive_seed(self._rng.seed, "install-window", app_id) % window_s
        return self._epoch.plus_seconds(offset_s)

    def _emit_usage_flows(
        self,
        capture: TrafficCapture,
        packaged_app,
        usage: DestinationUsage,
        policy: CompositePolicy,
        config: RunConfig,
        launch_time: Timestamp,
        rng: DeterministicRng,
    ) -> None:
        app = packaged_app.app
        hostname = usage.hostname
        if not self.registry.knows(hostname):
            raise DeviceError(
                f"{app.app_id}: behaviour references unknown host {hostname!r}"
            )
        destination = Destination(
            ClientProfile(
                sni=hostname,
                policy=policy,
                offered_versions=app.offered_versions(),
                offered_suites=app.suites_for_destination(hostname),
            ),
            self.registry.resolve(hostname),
            proxy=self.proxy if config.mitm else None,
            gt_pinned=app.pins_domain(hostname),
        )
        meta = dict(
            app_id=app.app_id,
            platform=app.platform,
            transient_failure_prob=config.transient_failure_prob,
        )
        when = launch_time.plus_seconds(usage.start_offset_s)
        # Every used connection sends the template, device PII substituted.
        payloads = [usage.payload(self.device.identifiers.substitute)]
        for index in range(usage.used_connections):
            flow = simulate_flow(
                destination,
                when,
                rng.child("used", hostname, index),
                payloads=payloads,
                **meta,
            )
            capture.add(flow)
            # HTTP stacks retry a request whose connection died before the
            # response; the paper observed exactly these retries in its
            # MITM experiments.  A transient failure is usually recovered
            # by the retry; a pinning rejection fails again.
            if not flow.handshake_completed and not flow.trace.client_app_data_records():
                capture.add(
                    simulate_flow(
                        destination,
                        when.plus_seconds(1),
                        rng.child("retry", hostname, index),
                        payloads=payloads,
                        **meta,
                    )
                )
        for index in range(usage.redundant_connections):
            capture.add(
                simulate_flow(
                    destination,
                    when,
                    rng.child("idle", hostname, index),
                    **meta,
                )
            )

    def _emit_ios_background(
        self,
        capture: TrafficCapture,
        packaged_app,
        config: RunConfig,
        install_time: Timestamp,
        rng: DeterministicRng,
    ) -> None:
        """Apple-service traffic plus associated-domain verification."""
        device = self.device
        assert isinstance(device, IOSDevice)
        app = packaged_app.app
        os_policy = CompositePolicy(
            default=SystemValidationPolicy(
                device.os_services_store, library="securetransport"
            )
        )
        proxy = self.proxy if config.mitm else None

        # Continuous Apple-domain chatter during the whole window.
        for host in APPLE_BACKGROUND_HOSTS:
            if not self.registry.knows(host):
                continue
            capture.add(
                simulate_flow(
                    Destination(
                        ClientProfile(sni=host, policy=os_policy),
                        self.registry.resolve(host),
                        proxy=proxy,
                    ),
                    install_time.plus_seconds(rng.uniform(0, config.sleep_s)),
                    rng.child("apple-bg", host),
                    payloads=[Payload(method="GET", path="/keepalive")],
                    app_id=app.app_id,
                    platform="ios",
                    os_initiated=True,
                )
            )

        # Associated-domain verification fires at install; waiting two
        # minutes before launch (the re-run methodology) keeps it out of
        # the capture window.
        if config.pre_launch_wait_s >= 120.0:
            return
        for domain in app.associated_domains:
            host = domain if self.registry.knows(domain) else f"www.{domain}"
            if not self.registry.knows(host):
                continue
            capture.add(
                simulate_flow(
                    Destination(
                        ClientProfile(sni=host, policy=os_policy),
                        self.registry.resolve(host),
                        proxy=proxy,
                    ),
                    install_time.plus_seconds(rng.uniform(0, 20)),
                    rng.child("assoc", host),
                    payloads=[
                        Payload(
                            method="GET",
                            path="/.well-known/apple-app-site-association",
                        )
                    ],
                    app_id=app.app_id,
                    platform="ios",
                    os_initiated=True,
                )
            )

    # -- public API ------------------------------------------------------------

    def run_app(self, packaged_app, config: RunConfig) -> TrafficCapture:
        """Install, capture for the sleep window, uninstall.

        Returns the per-app capture (the paper's traffic isolation: one app
        installed at a time).  A capture is a function of the app and
        ``config`` alone, so its ``rerun`` is this call again, with a
        copy of ``config``.

        Raises:
            DeviceError: platform mismatch or unknown destination.
        """
        app = packaged_app.app
        if app.platform != self.device.platform:
            raise DeviceError(
                f"cannot run {app.platform} app {app.app_id!r} on a "
                f"{self.device.platform} device"
            )

        capture = TrafficCapture()
        rng = self._rng.child("run", app.app_id, config.mitm, config.sleep_s)
        install_time = self._install_time(app.app_id)

        if self.device.platform == "ios":
            self._emit_ios_background(capture, packaged_app, config, install_time, rng)

        launch_time = install_time.plus_seconds(config.pre_launch_wait_s)
        policy = config.policy_override or app.runtime_policy(
            self.device.system_store
        )

        for usage in app.behavior.usages_within(
            config.sleep_s, with_interaction=config.interact
        ):
            self._emit_usage_flows(
                capture, packaged_app, usage, policy, config, launch_time, rng
            )
        capture.rerun = partial(self.run_app, packaged_app, replace(config))
        return capture

    def handshake_count(self, packaged_app, sleep_s: float) -> int:
        """TLS handshakes a window of ``sleep_s`` observes (the Section
        4.2.1 calibration metric), without running the full capture."""
        return packaged_app.app.behavior.expected_handshakes(sleep_s)
