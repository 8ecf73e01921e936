"""Frida instrumentation sessions.

A :class:`FridaSession` attaches to a running app (needs the jailbreak on
iOS) and rewrites its validation policy: every hookable per-domain
override becomes :class:`~repro.tls.policy.TrustAllPolicy`; custom TLS
stacks keep their pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.core.circumvent.hooks import is_hookable
from repro.device.base import Device
from repro.errors import InstrumentationError
from repro.tls.policy import CompositePolicy, TrustAllPolicy


@dataclass
class InstrumentationOutcome:
    """What the hooks achieved for one app.

    Attributes:
        patched_policy: the policy with hookable checks disabled.
        bypassed_domains: pinned domains whose checks are now disabled.
        resistant_domains: pinned domains using unhookable (custom) TLS.
    """

    patched_policy: CompositePolicy
    bypassed_domains: Set[str] = field(default_factory=set)
    resistant_domains: Set[str] = field(default_factory=set)


class FridaSession:
    """One attach-and-hook session against one app process.

    Args:
        device: the target device (jailbreak required on iOS).
        hook_set: restrict hooking to these library names; ``None``
            loads the full hook catalogue.  The circumvention pipeline's
            ablation knob: a library outside the set keeps its pins even
            when a catalogue script exists for it.
    """

    def __init__(
        self, device: Device, hook_set: Optional[FrozenSet[str]] = None
    ):
        if device.platform == "ios" and not device.jailbroken:
            raise InstrumentationError(
                "Frida needs a jailbroken iOS device to attach"
            )
        self.device = device
        self.hook_set = hook_set

    def _hookable(self, library: str, platform: str) -> bool:
        if self.hook_set is not None and library not in self.hook_set:
            return False
        return is_hookable(library, platform)

    def instrument(self, policy: CompositePolicy) -> InstrumentationOutcome:
        """Disable every hookable pinning check in the app's policy.

        The default (system) validation is also neutralised — Frida
        scripts for circumvention disable the platform validator wholesale
        so the proxy certificate is accepted everywhere it can be.
        """
        platform = self.device.platform
        overrides: Dict[str, object] = {}
        bypassed: Set[str] = set()
        resistant: Set[str] = set()

        for domain, override in policy.overrides.items():
            if self._hookable(override.library, platform):
                overrides[domain] = TrustAllPolicy(library=override.library)
                if override.is_pinning():
                    bypassed.add(domain)
            else:
                overrides[domain] = override
                if override.is_pinning():
                    resistant.add(domain)

        if self._hookable(policy.default.library, platform):
            default = TrustAllPolicy(library=policy.default.library)
        else:
            default = policy.default

        return InstrumentationOutcome(
            patched_policy=CompositePolicy(default=default, overrides=overrides),
            bypassed_domains=bypassed,
            resistant_domains=resistant,
        )
