"""Execution plans: how a study run is sharded and how it fails.

An :class:`ExecutionPlan` is pure configuration — worker count, chunk
size, and the fault-tolerance envelope (retries, backoff, deadline,
quarantine) — with no influence on *what* is computed.  The engine
guarantees bit-for-bit identical study results for every plan; the plan
only decides how the per-app work units are distributed and how hard
the engine fights before recording a failure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Union

#: Upper bound on any single backoff sleep, however many retries doubled it.
RETRY_BACKOFF_CAP_S = 30.0

#: The sentinel worker count: size the pool to the machine.
AUTO_WORKERS = "auto"


@dataclass(frozen=True)
class ExecutionPlan:
    """Sharding and fault-tolerance configuration for one study run.

    Attributes:
        workers: worker processes; ``1`` (the default) runs everything
            serially in the parent process, through the same code path
            the workers use.  ``"auto"`` sizes the pool to
            ``os.cpu_count()``.  A ``bool`` is rejected, not read as 0 or 1.
        chunk_size: apps per work unit.  ``0`` splits each dataset into
            one unit per worker (``ceil(n / workers)`` apps each).
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
            apps solo so one crashing app cannot take its chunk-mates'
            results down with it.
    """

    workers: Union[int, str] = 1
    chunk_size: int = 0
    max_retries: int = 1
    retry_backoff_s: float = 0.0
    retry_deadline_s: float = 0.0
    quarantine: bool = True

    def __post_init__(self):
        if self.workers != AUTO_WORKERS and (
            isinstance(self.workers, bool) or not isinstance(self.workers, int) or self.workers < 1
        ):
            raise ValueError(
                f"workers must be >= 1 or 'auto', got {self.workers!r}"
            )
        if self.chunk_size < 0:
            raise ValueError(f"chunk_size must be >= 0, got {self.chunk_size}")
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

    @property
    def worker_count(self) -> int:
        """The concrete pool size (resolves ``"auto"`` to the machine)."""
        if self.workers == AUTO_WORKERS:
            return os.cpu_count() or 1
        return self.workers

    @property
    def serial(self) -> bool:
        """True when the plan runs in-process without a worker pool."""
        return self.worker_count <= 1

    def chunk_for(self, n_items: int) -> int:
        """Apps per unit when sharding ``n_items`` apps under this plan."""
        if self.chunk_size:
            return self.chunk_size
        return max(1, math.ceil(n_items / self.worker_count))

    def backoff_for(self, retry_index: int) -> float:
        """Seconds to sleep before retry ``retry_index`` (0-based)."""
        if self.retry_backoff_s <= 0:
            return 0.0
        return min(self.retry_backoff_s * (2.0 ** retry_index), RETRY_BACKOFF_CAP_S)

    @classmethod
    def for_workers(cls, workers: Union[int, str]) -> "ExecutionPlan":
        """Plan with default chunking for a given worker count."""
        return cls(workers=workers)
