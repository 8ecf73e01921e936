"""Deterministic random number generation.

The whole simulation must be reproducible from a single integer seed.  Two
rules keep that true:

1. Never touch the global :mod:`random` state — every component owns a
   :class:`DeterministicRng`.
2. Child generators are derived with :func:`derive_seed` from a parent seed
   plus a stable label, so adding a new consumer never perturbs the stream
   seen by existing ones.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, TypeVar

from repro.util.digest import sha256

T = TypeVar("T")

_HEX = "0123456789abcdef"


def derive_seed(parent_seed: int, *labels: object) -> int:
    """Derive a child seed from ``parent_seed`` and a sequence of labels.

    The derivation hashes the parent seed together with the labels, so the
    child stream is statistically independent of the parent and of siblings
    derived with different labels.

    Args:
        parent_seed: the seed of the owning component.
        labels: any hashable, ``str()``-able values identifying the child
            (e.g. ``("app", 17, "behavior")``).

    Returns:
        A 63-bit non-negative integer seed.
    """
    # ``repr(parent_seed)`` and each ``str(label)``, 0x1f-separated; with
    # no labels the material still ends in a separator.
    if labels:
        material = "\x1f".join([repr(parent_seed), *map(str, labels)])
    else:
        material = f"{parent_seed!r}\x1f"
    digest = sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


class DeterministicRng:
    """A seeded random source with convenience draws used across the library.

    Thin wrapper around :class:`random.Random` that adds child derivation and
    a few domain-specific helpers (weighted choice without replacement,
    hex/identifier strings).

    The Mersenne Twister is seeded on the first draw, not at construction:
    seeding costs more than most draws, and generators that only derive
    children never need one.  Every stream is the one ``random.Random(seed)``
    would produce, and a generator pickled before its first draw resumes
    from the top of its stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def __getattr__(self, name: str):
        # Reached only while ``_random`` is unset; once set, attribute
        # lookup finds it directly.
        if name != "_random":
            raise AttributeError(name)
        generator = self._random = random.Random(self.seed)
        return generator

    def child(self, *labels: object) -> "DeterministicRng":
        """Return an independent generator derived from this one's seed."""
        return DeterministicRng(derive_seed(self.seed, *labels))

    # -- primitive draws ---------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        if type(low) is int and type(high) is int and high >= low:
            # ``random.randint``'s own draw (see :meth:`_below`), minus its
            # argument handling.
            n = high - low + 1
            getrandbits = self._random.getrandbits
            bits = n.bit_length()
            value = getrandbits(bits)
            while value >= n:
                value = getrandbits(bits)
            return low + value
        return self._random.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, lambd: float) -> float:
        return self._random.expovariate(lambd)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    # -- collection draws --------------------------------------------------

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct items (``k`` is clamped to ``len(items)``)."""
        k = min(k, len(items))
        return self._random.sample(list(items), k)

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """Return a new shuffled list; the input is not modified."""
        out = list(items)
        self._random.shuffle(out)
        return out

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def weighted_sample(
        self, items: Sequence[T], weights: Sequence[float], k: int
    ) -> List[T]:
        """Weighted sampling *without* replacement via sequential draws."""
        pool = list(items)
        pool_weights = list(weights)
        out: List[T] = []
        k = min(k, len(pool))
        for _ in range(k):
            # Draw the position, not the item: equal items must not be
            # confused with each other (or their weights).
            idx = self._random.choices(range(len(pool)), weights=pool_weights)[0]
            out.append(pool.pop(idx))
            pool_weights.pop(idx)
        return out

    def zipf_rank(self, n: int, exponent: float = 1.0) -> int:
        """Draw a 1-based rank in [1, n] with Zipf-like probability."""
        if n < 1:
            raise ValueError("n must be >= 1")
        weights = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
        total = sum(weights)
        target = self._random.random() * total
        acc = 0.0
        for rank, weight in enumerate(weights, start=1):
            acc += weight
            if target <= acc:
                return rank
        return n

    # -- string draws ------------------------------------------------------

    def _below(self, n: int, count: int) -> List[int]:
        """``count`` uniform draws from ``range(n)``.

        Consumes the stream exactly as ``count`` calls of ``randrange(n)``
        or ``choice`` over ``n`` items do on CPython 3.9-3.12: ``k =
        n.bit_length()`` bits per attempt, rejecting values ``>= n``.
        """
        getrandbits = self._random.getrandbits
        bits = n.bit_length()
        out = []
        for _ in range(count):
            value = getrandbits(bits)
            while value >= n:
                value = getrandbits(bits)
            out.append(value)
        return out

    def hex_string(self, length: int) -> str:
        """Random lowercase hex string of the given length."""
        return "".join([_HEX[i] for i in self._below(16, length)])

    def token(self, length: int, alphabet: Optional[str] = None) -> str:
        """Random identifier-ish token."""
        alphabet = alphabet or "abcdefghijklmnopqrstuvwxyz0123456789"
        return "".join([alphabet[i] for i in self._below(len(alphabet), length)])

    def random_bytes(self, length: int) -> bytes:
        return bytes(self._below(256, length))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeterministicRng(seed={self.seed})"
