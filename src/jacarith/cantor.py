"""Independent ground truth: Mumford arithmetic on hyperelliptic Jacobians.

A class is a reduced pair (u, v) with u monic, deg u <= g, deg v < deg u and
u | v^2 - f; composition and reduction are the classical gcd-based steps.
None of this shares code with the linear-algebra engine, so agreement
between the two is a genuine cross-check.

``mumford_to_point`` bridges a reduced pair to the section space W_D used by
the engine, where D is the affine divisor of (u, y - v) padded with the
point at infinity up to degree d.  Both vanishing conditions are linear:
ideal membership reduces to (a + b v) mod u = 0, and vanishing at infinity
kills the basis monomials of highest pole order (pole orders are pairwise
distinct in the odd-degree model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import divisors, jacobian, linalg, poly
from .field import RandomStream
from .hyperelliptic import BadCharacteristic, HyperellipticCurve
from .jacobian import LARGE, SMALL, JacobianPoint, LargeModel


_MUMFORD_TRIES = 500  # draws of u before random_mumford gives up


class CurveMismatch(ValueError):
    """Mumford data does not belong to the model's curve."""


@dataclass(frozen=True)
class MumfordDivisor:
    u: tuple
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", poly.trim(self.u))
        object.__setattr__(self, "v", poly.trim(self.v))


def neutral() -> MumfordDivisor:
    return MumfordDivisor((1,), ())


def is_reduced(curve: HyperellipticCurve, m: MumfordDivisor) -> bool:
    p = curve.p
    if not m.u or m.u[-1] != 1 or poly.deg(m.u) > curve.g:
        return False
    if poly.deg(m.v) >= poly.deg(m.u) and m.v:
        return False
    rem = poly.mod(poly.sub(poly.mul(m.v, m.v, p), curve.f, p), m.u, p)
    return not rem


def _require_odd(curve: HyperellipticCurve) -> None:
    if curve.p == 2 or curve.h:
        raise BadCharacteristic("the Mumford oracle covers odd characteristic only")


def cantor_add(curve: HyperellipticCurve, a: MumfordDivisor,
               b: MumfordDivisor) -> MumfordDivisor:
    """Composition followed by reduction; both inputs must be reduced
    classes of this curve, or an inexact division raises CurveMismatch."""
    _require_odd(curve)
    p, f, g = curve.p, curve.f, curve.g
    u1, v1, u2, v2 = a.u, a.v, b.u, b.v
    d1, e1, e2 = poly.xgcd(u1, u2, p)
    d, c1, c2 = poly.xgcd(d1, poly.add(v1, v2, p), p)
    s1, s2, s3 = poly.mul(c1, e1, p), poly.mul(c1, e2, p), c2
    u, rem = poly.divmod_poly(poly.mul(u1, u2, p), poly.mul(d, d, p), p)
    if rem:
        raise CurveMismatch("composition degree bookkeeping failed")
    num = poly.add(
        poly.add(poly.mul(poly.mul(s1, u1, p), v2, p),
                 poly.mul(poly.mul(s2, u2, p), v1, p), p),
        poly.mul(s3, poly.add(poly.mul(v1, v2, p), f, p), p), p)
    vq, vrem = poly.divmod_poly(num, d, p)
    if vrem:
        raise CurveMismatch("composition numerator not divisible by gcd")
    v = poly.mod(vq, u, p)
    while poly.deg(u) > g:
        u_next, rem = poly.divmod_poly(poly.sub(f, poly.mul(v, v, p), p), u, p)
        if rem:
            raise CurveMismatch("reduction step not exact: v^2 != f mod u")
        u_next = poly.monic(u_next, p)
        v = poly.mod(poly.neg(v, p), u_next, p)
        u = u_next
    return MumfordDivisor(poly.monic(u, p), v)


def cantor_negate(curve: HyperellipticCurve, a: MumfordDivisor) -> MumfordDivisor:
    _require_odd(curve)
    return MumfordDivisor(a.u, poly.mod(poly.neg(a.v, curve.p), a.u, curve.p))


def cantor_scalar(curve: HyperellipticCurve, n: int, a: MumfordDivisor) -> MumfordDivisor:
    """n*a by double-and-add over ``cantor_add``."""
    if n < 0:
        return cantor_scalar(curve, -n, cantor_negate(curve, a))
    acc = neutral()
    while n:
        if n & 1:
            acc = cantor_add(curve, acc, a)
        n >>= 1
        if n:
            a = cantor_add(curve, a, a)
    return acc


def _sqrt_f_mod_u(curve: HyperellipticCurve, u: tuple, rng: RandomStream) -> tuple | None:
    """Solve v^2 = f (mod u), factoring u and lifting per prime power."""
    p, f = curve.p, curve.f
    residues, moduli = [], []
    for q, e in poly.factor_monic(u, p, rng):
        fq = poly.mod(f, q, p)
        if not fq:
            # ramification point; a multiple copy has no semi-reduced lift
            if e > 1:
                return None
            residues.append(poly.ZERO)
            moduli.append(q)
            continue
        r = poly.sqrt_mod_irreducible(fq, q, p, rng)
        if r is None:
            return None
        if e > 1:
            r = poly.sqrt_lift(r, f, q, e, p)
        if rng.randrange(2):
            r = poly.neg(r, p)
        residues.append(r)
        moduli.append(poly.power(q, e, p))
    v = residues[0] if len(residues) == 1 else poly.crt(residues, moduli, p)
    v = poly.mod(v, u, p)
    if poly.mod(poly.sub(poly.mul(v, v, p), f, p), u, p):
        raise CurveMismatch("square root of f mod u failed its check")
    return v


def random_mumford(curve: HyperellipticCurve, rng: RandomStream) -> MumfordDivisor:
    """Random reduced divisor with deg u = g; retries until v^2 = f mod u
    is solvable.  The distribution is not exactly uniform, which is fine
    for testing."""
    _require_odd(curve)
    for _ in range(_MUMFORD_TRIES):
        u = poly.random_monic(curve.g, curve.p, rng)
        v = _sqrt_f_mod_u(curve, u, rng)
        if v is not None:
            return MumfordDivisor(u, v)
    raise RuntimeError("no solvable u found; is the curve data consistent?")


def mumford_to_point(model: LargeModel, m: MumfordDivisor,
                     tag: str = SMALL) -> JacobianPoint:
    """Engine representative of the class of D - D_0 (or D - 2 D_0), where
    D = (affine divisor of (u, y - v)) + (d - deg u) * infinity."""
    rep = model.rep
    info = getattr(rep, "bridge_info", None)
    if info is None:
        raise CurveMismatch("model carries no curve metadata for the bridge")
    curve = info.curve
    _require_odd(curve)
    p = curve.p
    if poly.deg(m.u) > curve.g or not is_reduced(curve, m):
        raise CurveMismatch("Mumford pair is not reduced for this curve")

    if tag == LARGE:
        small = mumford_to_point(model, cantor_negate(curve, m), SMALL)
        return JacobianPoint(LARGE, model.flip_of(small.space))
    if tag != SMALL:
        raise jacobian.TagMismatch(f"unknown size tag {tag!r}")
    out = semireduced_space(model, m.u, m.v, model.d)
    return JacobianPoint(SMALL, out)


def semireduced_space(model: LargeModel, u: tuple, v: tuple,
                      degree: int) -> linalg.Subspace:
    """W_D for D = (affine divisor of a semi-reduced pair) + padding at
    infinity up to the given total degree.  Needs u | v^2 + h v - f and
    deg u <= degree <= Delta - 2g."""
    rep = model.rep
    info = rep.bridge_info
    curve = info.curve
    p = curve.p
    u, v = poly.trim(u), poly.trim(v)
    if poly.mod(poly.sub(poly.mul(poly.add(v, curve.h, p), v, p), curve.f, p), u, p):
        raise CurveMismatch("pair does not satisfy u | v^2 + h v - f on this curve")
    deg_u = poly.deg(u)
    if not deg_u <= degree <= rep.Delta - 2 * curve.g:
        raise CurveMismatch(f"total degree {degree} out of range for deg u = {deg_u}")

    field = rep.field
    monomials = info.monomials
    delta = len(monomials)
    rows = []
    if deg_u > 0:
        # ideal-membership block: (a + b v) mod u = 0, one row per residue coeff
        block = linalg.zeros(field, deg_u, delta)
        for j, (xd, yd, _) in enumerate(monomials):
            mono = (0,) * xd + (1,)
            img = poly.mod(poly.mul(mono, v, p) if yd else mono, u, p)
            for r, c in enumerate(img):
                block[r, j] = c
        rows.append(block)
    pad = degree - deg_u
    if pad > 0:
        # vanishing to order pad at infinity kills the top pole orders
        high = [j for j, (_, _, pole) in enumerate(monomials)
                if pole > rep.Delta - pad]
        block = linalg.zeros(field, len(high), delta)
        for r, j in enumerate(high):
            block[r, j] = 1
        rows.append(block)
    space = rep.from_table_space(linalg.kernel_basis(field, np.vstack(rows)))
    if (got := divisors.degree(rep, space)) != degree:
        raise CurveMismatch(f"bridged space has degree {got}, expected {degree}")
    return space


def oracle_compare(model: LargeModel, engine_point: JacobianPoint,
                   expected: MumfordDivisor) -> bool:
    """Whether the engine's output class matches a Cantor-computed class."""
    bridged = mumford_to_point(model, expected, engine_point.tag)
    return jacobian.equal_class(model, engine_point, bridged)
