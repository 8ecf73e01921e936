"""Shared utilities: deterministic RNG, encodings, statistics, simulated time.

Everything stochastic in the library flows through :class:`DeterministicRng`
so a single seed reproduces an entire study run bit-for-bit.
"""

from repro.util.encoding import pem_unwrap, pem_wrap
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.simtime import SimClock, Timestamp
from repro.util.stats import chi_square_independence, jaccard_index

__all__ = [
    "DeterministicRng",
    "derive_seed",
    "SimClock",
    "Timestamp",
    "pem_unwrap",
    "pem_wrap",
    "chi_square_independence",
    "jaccard_index",
]
