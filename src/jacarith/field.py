"""The field context, primality, square roots and reproducible randomness.

Everything downstream computes with canonical residues in [0, p), stored as
plain Python ints (or packed into numpy arrays by the linear algebra layer).
A ``PrimeField`` is the field context: the modulus p and the sampling subset
Sigma = {0, 1, ..., sigma_size - 1} used for randomized section draws.

Randomness is deterministic and splittable: every randomized routine takes a
``RandomStream``, and identical seeds replay identical runs bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

SIGMA_CAP = 1 << 16
MAX_MODULUS_BITS = 62


class CompositeModulus(ValueError):
    """The requested field modulus is not prime."""


# Deterministic Miller-Rabin base set, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p and its sampling subset Sigma.

    Elements are canonical residues (ints in [0, p)); ``linalg`` computes
    with them in arrays and ``poly`` in polynomials.  Instances are
    immutable and safe to share across threads.
    """

    p: int
    sigma_size: int


def make_prime_field(p: int, sigma_size: int | None = None) -> PrimeField:
    """Build a field context, rejecting composite or oversized moduli.

    Sigma defaults to all of F_p for p <= 2^16 and to the first 2^16
    residues otherwise; the igs size formulas shrink as |Sigma| grows, so a
    large Sigma is always at least as good.
    """
    if not is_probable_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    if p.bit_length() > MAX_MODULUS_BITS:
        raise ValueError(f"modulus must fit in {MAX_MODULUS_BITS} bits")
    if sigma_size is None:
        sigma_size = min(p, SIGMA_CAP)
    if not 2 <= sigma_size <= p:
        raise ValueError(f"sigma_size must lie in [2, p], got {sigma_size}")
    return PrimeField(p, sigma_size)


def sqrt_mod(a: int, p: int) -> int | None:
    """Square root mod an odd prime (Tonelli-Shanks); None for non-residues."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _seed_digest(seed: str) -> int:
    return int.from_bytes(hashlib.sha256(seed.encode()).digest()[:16], "big")


class RandomStream:
    """Deterministic, seedable, splittable pseudo-random stream.

    Each stream is owned by one logical task; ``split`` derives an
    independent child stream, so parallel trials stay replayable from the
    master seed.
    """

    def __init__(self, seed: int | str):
        self.seed = str(seed)
        self._rng = random.Random(_seed_digest(self.seed))

    def split(self, label: int | str) -> "RandomStream":
        return RandomStream(f"{self.seed}/{label}")

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def shuffle(self, xs: list) -> None:
        self._rng.shuffle(xs)

    def choice(self, xs):
        return xs[self._rng.randrange(len(xs))]

    def __repr__(self) -> str:
        return f"RandomStream({self.seed!r})"


def stream_from_bytes(*chunks: bytes) -> RandomStream:
    """Stream keyed by content, for Las Vegas steps inside pure functions."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "big"))
        h.update(c)
    return RandomStream(h.hexdigest())
