"""Fault injection and the study error ledger.

A week-long campaign over thousands of real apps fails in app-specific
ways — crashes on launch, store timeouts, devices wedging mid-install —
and none of those may abort the run.  The execution engine therefore
treats per-app failure as a first-class outcome: it retries, quarantines,
and records a structured :class:`UnitFailure` per app it had to give up
on, instead of raising.

Real flakiness is not testable, so every pipeline accepts an *injectable
per-app failure predicate* — a callable ``(phase, app_id) -> bool``
consulted before any work on an app (phases: ``static``, ``dynamic``,
``circumvent``).  When it fires, the pipeline raises
:class:`InjectedFault`, which travels through the engine exactly like a
genuine crash.  :class:`SeededFaults` provides the deterministic predicate
the tests and the CI fault-injection job use; :class:`TransientFaults`
makes a predicate stop firing after N attempts so retry recovery is
testable too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.exec.resultstore import StoreWriteError
from repro.util.rng import derive_seed

#: Pipeline phases a fault predicate may be consulted for.
PHASES: Tuple[str, ...] = ("static", "dynamic", "circumvent")

#: ``(phase, app_id) -> should this app's unit of work fail?``
FaultPredicate = Callable[[str, str], bool]

#: Exception types a retry can never cure.  These are programming errors
#: — a detector dereferencing an attribute that does not exist, a moved
#: module, a broken assertion — and they are deterministic: every
#: attempt, every quarantined solo re-run, would fail the same way.
#: Retrying them wastes the retry budget; quarantining them disguises a
#: code bug as per-app flakiness and buries it in the error ledger.  The
#: engine therefore propagates them immediately, so the run fails
#: loudly instead.  Deliberately narrow:
#: ``ValueError`` / ``KeyError`` / ``OSError`` can be data- or
#: environment-dependent and stay retryable.  One environment error is
#: listed: a failed result-store write (:class:`StoreWriteError`), which
#: recomputing the app cannot cure and must not cost its result.
NON_RETRYABLE_ERRORS = (
    AttributeError,
    TypeError,
    NameError,
    AssertionError,
    ImportError,
    StoreWriteError,
)


def is_retryable(exc: BaseException) -> bool:
    """Whether the engine may retry/quarantine a unit that raised ``exc``.

    The narrowing policy (DESIGN.md §8): transient faults — injected
    faults, timeouts, crashes the environment can produce — earn the
    retry/quarantine ladder; programming errors
    (:data:`NON_RETRYABLE_ERRORS`) propagate so they surface as a failed
    run instead of being masked as per-app losses.
    """
    return not isinstance(exc, NON_RETRYABLE_ERRORS)


class InjectedFault(RuntimeError):
    """Raised by a pipeline when its fault predicate fires for an app."""

    def __init__(self, phase: str, app_id: str):
        super().__init__(f"injected fault: phase={phase} app={app_id}")
        self.phase = phase
        self.app_id = app_id


def maybe_inject(
    predicate: Optional[FaultPredicate], phase: str, app_id: str
) -> None:
    """Raise :class:`InjectedFault` if ``predicate`` fires for this app.

    Pipelines call this before doing any per-app work, so an injected
    fault never leaves partially computed state behind.
    """
    if predicate is not None and predicate(phase, app_id):
        raise InjectedFault(phase, app_id)


@dataclass(frozen=True)
class SeededFaults:
    """Deterministically fail ~``rate`` of apps, derived from a seed.

    A pure function of ``(seed, phase, app_id)``: the same apps fail on
    every attempt, in every run, under every execution plan — which is
    exactly what exercising quarantine and the error ledger needs.
    """

    rate: float
    seed: int = 0
    phases: Tuple[str, ...] = PHASES

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    def __call__(self, phase: str, app_id: str) -> bool:
        if self.rate <= 0.0 or phase not in self.phases:
            return False
        draw = derive_seed(self.seed, "fault", phase, app_id) % 1_000_000
        return draw < int(self.rate * 1_000_000)


class TransientFaults:
    """Make an inner predicate fire only for its first ``attempts`` calls.

    Models transient failures that a retry cures: the attempt counter is
    per-instance, so a retry of the same app sees the fault gone.
    """

    def __init__(self, inner: FaultPredicate, attempts: int = 1):
        self.inner = inner
        self.attempts = attempts
        self._calls: Dict[Tuple[str, str], int] = {}

    def __call__(self, phase: str, app_id: str) -> bool:
        if not self.inner(phase, app_id):
            return False
        seen = self._calls.get((phase, app_id), 0)
        self._calls[(phase, app_id)] = seen + 1
        return seen < self.attempts


@dataclass(frozen=True)
class UnitFailure:
    """One app the engine gave up on — an entry in the study error ledger.

    Attributes:
        app_id: the app whose work unit failed.
        phase: unit kind (``static`` / ``dynamic`` / ``circumvent``).
        platform / dataset: the dataset the app belongs to.
        index: the app's position inside that dataset.
        attempts: how many times its unit was attempted in total.
        error: ``repr()`` of the last exception.
        quarantined: True when the failure was isolated by a solo re-run
            of a multi-app unit (the other apps' results survived).
    """

    app_id: str
    phase: str
    platform: str
    dataset: str
    index: int
    attempts: int
    error: str
    quarantined: bool = False

    def describe(self) -> str:
        """One human-readable ledger line."""
        tag = " [quarantined]" if self.quarantined else ""
        return (
            f"{self.phase} {self.platform}/{self.dataset} {self.app_id} "
            f"attempts={self.attempts}{tag}: {self.error}"
        )
