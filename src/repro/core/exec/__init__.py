"""Fault-tolerant study execution.

Public API: :class:`~repro.core.exec.plan.ExecutionPlan` configures the
fault-tolerance envelope (retries, backoff, deadline, quarantine);
:class:`~repro.core.exec.engine.ExecutionEngine` runs study work units
(one per dataset and kind) in-process under a plan, degrading per-app
failures into a :class:`~repro.core.exec.faults.UnitFailure` ledger;
:class:`~repro.core.exec.resultstore.ResultStore` is the one persistence
layer — a content-addressed, on-disk store of per-app results that makes
repeated runs warm-start, recomputing only fingerprint misses, and lets
an interrupted run resume from the units it already published.
:mod:`repro.core.exec.faults` provides deterministic fault injection for
testing all of it without real flakiness.
"""

from repro.core.exec.engine import ExecutionEngine, ExecutionOutcome
from repro.core.exec.faults import (
    NON_RETRYABLE_ERRORS,
    InjectedFault,
    SeededFaults,
    TransientFaults,
    UnitFailure,
    is_retryable,
)
from repro.core.exec.plan import ExecutionPlan
from repro.core.exec.resultstore import (
    CorpusStore,
    ResultStore,
    StoreStats,
    StoreWriteError,
)

__all__ = [
    "CorpusStore",
    "ExecutionEngine",
    "ExecutionOutcome",
    "ExecutionPlan",
    "InjectedFault",
    "NON_RETRYABLE_ERRORS",
    "ResultStore",
    "SeededFaults",
    "StoreStats",
    "StoreWriteError",
    "TransientFaults",
    "UnitFailure",
    "is_retryable",
]
