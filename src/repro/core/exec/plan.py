"""Execution plans: how hard a study run fights per-app failures.

An :class:`ExecutionPlan` is pure configuration — the fault-tolerance
envelope (retries, backoff, deadline, quarantine) — with no influence on
*what* is computed: it only decides how hard the engine fights before
recording a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Upper bound on any single backoff sleep, however many retries doubled it.
RETRY_BACKOFF_CAP_S = 30.0


@dataclass(frozen=True)
class ExecutionPlan:
    """Fault-tolerance configuration for one study run.

    Attributes:
        max_retries: additional attempts for a failed work unit (and for
            each quarantined solo re-run) before it is recorded in the
            error ledger.
        retry_backoff_s: wait before the first retry; doubles per retry,
            bounded by :data:`RETRY_BACKOFF_CAP_S`.  ``0`` retries
            immediately.
        retry_deadline_s: wall-clock budget for one unit's retry loop;
            once exceeded, no further retries are attempted.  ``0`` means
            no deadline.
        quarantine: when a multi-app unit exhausts its retries, re-run its
            apps solo so one crashing app cannot take the rest of its
            dataset's results down with it.
    """

    max_retries: int = 1
    retry_backoff_s: float = 0.0
    retry_deadline_s: float = 0.0
    quarantine: bool = True

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.retry_deadline_s < 0:
            raise ValueError(
                f"retry_deadline_s must be >= 0, got {self.retry_deadline_s}"
            )

    def backoff_for(self, retry_index: int) -> float:
        """Seconds to sleep before retry ``retry_index`` (0-based)."""
        if self.retry_backoff_s <= 0:
            return 0.0
        return min(self.retry_backoff_s * (2.0 ** retry_index), RETRY_BACKOFF_CAP_S)
