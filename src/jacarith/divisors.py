"""Divisor representations and the Las Vegas conversion algorithms.

An effective divisor D is held either in full form, W_D itself (the
canonical subspace of the sections of V that vanish on D, whose codimension
is deg D: ``degree``), or in brief form (an ideal generating set: a few
sections whose common zero divisor is exactly D).
Random candidates for brief form succeed with probability >= 1/2 at the
advertised size h, and success is verifiable by a dimension count, so every
conversion loop terminates with verified output.  Every retry runs through
one capped loop, and every candidate headed by its own section s (deflate,
flip, divide_by) is judged by one rule: r, the rank of its blocks
K*(t_i*W), equals Delta - deg D.  A flip is the division (s*V)/D.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import curverep, linalg
from .linalg import Subspace

_LOOP_CAP = 200  # failure probability per attempt is <= 1/2; this is unreachable


class EmptySpace(ValueError):
    """A nonzero space of sections was required."""


class PreconditionDegree(ValueError):
    """Divisor degree outside the range required by the algorithm."""


class PreconditionCodim(ValueError):
    """Subspace codimension outside the range required by the membership test."""


class LasVegasExhausted(RuntimeError):
    """A retry loop exceeded its iteration cap (astronomically unlikely)."""


@dataclass(frozen=True)
class DivisorBrief:
    """Brief representation: an ideal generating set for D (for the zero
    divisor, a generating set of V)."""

    sections: tuple


@dataclass
class RetryStats:
    """Las Vegas retry bookkeeping, surfaced in CLI reports.

    ``histogram[k]`` counts the calls that took k attempts; k never exceeds
    the loop cap, so memory stays bounded however long the stats live.
    """

    calls: int = 0
    attempts: int = 0
    histogram: Counter = dc_field(default_factory=Counter)

    def record(self, attempts: int) -> None:
        self.calls += 1
        self.attempts += attempts
        self.histogram[attempts] += 1

    @property
    def mean_attempts(self) -> float:
        return self.attempts / self.calls if self.calls else 0.0


def degree(rep, w: Subspace) -> int:
    """deg D for the full form w = W_D: its codimension in V."""
    return rep.delta - w.dim


def require_degree(rep, w: Subspace, expected: int, what: str) -> Subspace:
    """w itself, once its degree is the one the theory guarantees."""
    if (got := degree(rep, w)) != expected:
        raise curverep.DegreeLawViolation(f"{what} has degree {got}, expected {expected}")
    return w


def _ceil_log(base: int, target: int) -> int:
    """Smallest m >= 0 with base**m >= target (exact integer arithmetic)."""
    m, value = 0, 1
    while value < target:
        value *= base
        m += 1
    return m


def igs_size_h(Delta: int, deg_d: int, sigma_size: int) -> int:
    """Candidate size h = 1 + ceil(log(2*(Delta - deg_d)) / log |Sigma|)."""
    if sigma_size < 2:
        raise ValueError("sigma_size must be at least 2")
    if deg_d >= Delta:
        raise ValueError("deg_d must be smaller than Delta")
    return 1 + _ceil_log(sigma_size, 2 * (Delta - deg_d))


def sigma_random_element(field, space: Subspace, rng) -> np.ndarray:
    """Sigma-random combination of the canonical basis of the space."""
    coeffs = np.array([rng.randrange(field.sigma_size) for _ in range(space.dim)],
                      dtype=linalg.dtype_for(field))
    return linalg.mat_mul(field, space.basis, coeffs)


def igs_candidate(rep, space: Subspace, h: int, rng) -> list[np.ndarray]:
    """The space's head (``rep.head``) plus h-1 Sigma-random elements."""
    if space.dim == 0:
        raise EmptySpace("cannot draw sections from the zero space")
    return [rep.head(space)] + [sigma_random_element(rep.field, space, rng)
                                for _ in range(h - 1)]


def random_igs_candidate(rep, wd: Subspace, rng) -> DivisorBrief:
    """Unverified brief-representation candidate for D (verify with is_igs)."""
    h = igs_size_h(rep.Delta, degree(rep, wd), rep.field.sigma_size)
    return DivisorBrief(tuple(igs_candidate(rep, wd, h, rng)))


def is_igs(rep, brief: DivisorBrief, expected_codim: int) -> bool:
    """Whether the sections generate exactly a divisor of the expected degree.

    The sum of products s_1*V + ... + s_h*V always lands inside W'_D, so for
    2g-1 <= deg D the test reduces to comparing codimensions in V'.
    ``deflate``, ``flip`` and ``divide_by`` decide the same question on
    smaller blocks instead: with K the left kernel of s*W for the
    candidate's head s, the stacked blocks K*(t_i*W) have rank
    Delta - deg D exactly when the candidate generates D
    (``_own_section_loop``).  This function stays as their reference.
    """
    dim = curverep.sum_of_products_dim(rep, brief.sections, rep.full_v())
    return rep.delta_prime - dim == expected_codim


def deflate(rep, wd: Subspace, rng, stats: RetryStats | None = None,
            s: np.ndarray | None = None) -> DivisorBrief:
    """Las Vegas full-to-brief conversion; output is always verified.

    Runs the candidate loop of ``flip`` (``_own_section_loop`` on V) and
    judges each candidate (s, t_2, ..., t_h) by the rank of its blocks
    K*(t_i*V) alone (``curverep.own_rank``), with no quotient built.
    s is W_D's head (``rep.head``) or the given nonzero section of W_D.
    It serves brief forms that are kept (D_0, 2*D_0) or not divided by.
    """
    return _own_section_loop(rep, wd, rep.full_v(), rng, stats, s, "deflation", _ranked)


def _ranked(rep, w: Subspace, brief: DivisorBrief, blocks):
    """``deflate``'s judge: r is the rank alone, and the candidate the result."""
    return curverep.own_rank(rep, w, blocks), brief


def _divided(rep, w: Subspace, brief: DivisorBrief, blocks):
    """The judge of ``flip`` and ``divide_by``: r is dim W less the
    quotient's dimension, and the quotient the result."""
    space = curverep.divide_own(rep, w, blocks)
    return w.dim - space.dim, space


def _retry(what: str, stats: RetryStats | None, attempt):
    """The one Las Vegas loop: calls ``attempt`` until it returns something
    other than None (a redraw), at most _LOOP_CAP times, and records the
    attempts taken in stats."""
    for n in range(1, _LOOP_CAP + 1):
        out = attempt()
        if out is not None:
            if stats is not None:
                stats.record(n)
            return out
    raise LasVegasExhausted(f"{what} failed repeatedly; data is likely inconsistent")


def _own_section_loop(rep, wd: Subspace, w: Subspace, rng,
                      stats: RetryStats | None, s: np.ndarray | None,
                      what: str, judge):
    """The one candidate loop of ``deflate``, ``flip`` and ``divide_by``,
    with the one verdict.

    s is W_D's head (``rep.head``) or the given nonzero section of W_D, and
    K, the left kernel of s*W, is built once.  Each candidate is
    (s, t_2, ..., t_h), the t_i the Sigma-random elements of W_D that
    ``random_igs_candidate`` draws, and ``judge`` maps rep, W, it and its
    blocks K*(t_i*W) to (r, out), r the rank of the stacked blocks.
    r = Delta - deg D - deg B (``curverep``'s own-section paragraph), so
    r = Delta - deg D accepts out, a smaller r >= 0 is a redraw, and
    anything else breaks the degree law.
    """
    deg = degree(rep, wd)
    if not 2 * rep.g - 1 <= deg <= rep.Delta - 2 * rep.g:
        raise PreconditionDegree(
            f"{what} needs 2g-1 <= deg D <= Delta-2g, got deg D = {deg}")
    if wd.dim == 0:
        raise EmptySpace(f"{what} needs a nonzero space W_D")
    kw = curverep.own_kernel(rep, rep.head(wd) if s is None else s, w)
    low, want = degree(rep, w), rep.Delta - deg

    def attempt():
        brief = random_igs_candidate(rep, wd, rng)
        if s is not None:
            brief = DivisorBrief((s.copy(),) + brief.sections[1:])
        r, out = judge(rep, w, brief, curverep.own_blocks(rep, w, brief.sections, kw))
        if r == want:
            return out
        if 0 <= r < want:
            return None
        raise curverep.DegreeLawViolation(
            f"{what} of a degree-{low} space by a degree-{deg} divisor:"
            f" the quotient has degree {low + r}, expected {low + want}")

    return _retry(what, stats, attempt)


def igs_for_v(rep, star_matrix, rng, stats: RetryStats | None = None) -> DivisorBrief:
    """Verified generating set for the zero divisor (Las Vegas), judged by
    ``verify_igs_v``.  ``star_matrix(s)`` is multiplication by s from V' to
    V'', so rep is the table form.  Its one engine caller is
    ``CurveBundle.precomp``, whose ``with_cubic`` means "find this set"."""
    h = igs_size_h(rep.Delta, 0, rep.field.sigma_size)
    full = rep.full_v()

    def attempt():
        sections = igs_candidate(rep, full, h, rng)
        return DivisorBrief(tuple(sections)) if verify_igs_v(rep, star_matrix, sections) else None

    return _retry("the search for a generating set of V", stats, attempt)


def verify_igs_v(rep, star_matrix, sections) -> bool:
    """Whether the sections' products with V' fill V'' (dim 3*Delta + 1 - g)."""
    stacked = np.hstack([star_matrix(s) for s in sections])
    return linalg.matrix_rank(rep.field, stacked) == 3 * rep.Delta + 1 - rep.g


def inflate(rep, brief: DivisorBrief, defl_v: DivisorBrief) -> Subspace:
    """Deterministic brief-to-full conversion (needs deg D >= 2g-1);
    defl_v is a generating set of V."""
    wprime = curverep.sum_of_products(rep, brief.sections, rep.full_v())
    return curverep.divide(rep, wprime, defl_v.sections)


def flip(rep, wd: Subspace, rng, s: np.ndarray | None = None,
         stats: RetryStats | None = None) -> Subspace:
    """Complementary divisor: for s in W_D with (s) = D + E, compute W_E.

    s is W_D's head (``rep.head``) or the given nonzero section of W_D, and
    the result satisfies deg E = Delta - deg D.  W_E is (s*V)/D, the
    division of ``divide_by`` on W = V: (s*V)/{s, t_2, ..., t_h} =
    {u in V : t_i*u in s*V} for a generating set of D headed by s, drawn and
    verified as it divides.  s also lies in W_E, so a caller can go on to
    divide s*W by E at s (``divide_by``).
    """
    return _own_section_loop(rep, wd, rep.full_v(), rng, stats, s, "flip", _divided)


def divide_by(rep, w: Subspace, wd: Subspace, rng, s: np.ndarray | None = None,
              stats: RetryStats | None = None) -> Subspace:
    """(s*W)/D for s in W_D, by a generating set of D that the division
    verifies: the candidate loop on W (``_own_section_loop``) divides each
    candidate (s, t_2, ..., t_h) at once, and the quotient has degree
    deg W + Delta - deg D exactly when the candidate generates D, as long as
    that is at most Delta - 2g + 1, where degree is codimension.  s is W_D's
    head (``rep.head``) or the given nonzero section of W_D.
    """
    target = degree(rep, w) + rep.Delta - degree(rep, wd)
    if target > rep.Delta - 2 * rep.g + 1:
        raise PreconditionDegree(
            f"division needs deg W + Delta - deg D <= Delta-2g+1, got {target}")
    return _own_section_loop(rep, wd, w, rng, stats, s, "division", _divided)


def membership_test(rep, w: Subspace, defl_v: DivisorBrief, rng,
                    stats: RetryStats | None = None) -> bool:
    """Whether W equals W_D for D its own common-zero divisor (Las Vegas).

    Draws candidate generating sets from W; a deficient sum-of-products
    codimension certifies W != W_D, an excessive one triggers a redraw, and
    on an exact match the division by the generating set of V reconstructs
    W_D for a bit-exact comparison.
    """
    c = degree(rep, w)
    if not 2 * rep.g <= c <= rep.Delta - 2 * rep.g:
        raise PreconditionCodim(
            f"membership test needs 2g <= codim <= Delta-2g, got codim = {c}")
    h = igs_size_h(rep.Delta, 0, rep.field.sigma_size)

    def attempt():
        sections = igs_candidate(rep, w, h, rng)
        u_prime = curverep.sum_of_products(rep, sections, rep.full_v())
        c_prime = rep.delta_prime - u_prime.dim
        if c_prime > c:
            return None
        return c_prime == c and curverep.divide(rep, u_prime, defl_v.sections) == w

    return _retry("membership test", stats, attempt)
