"""Divisor-class group operations in the large model.

A class x is represented by the section space W_D of an effective divisor D
of degree d ("small", class of D - D_0) or 2d ("large", class of D - 2*D_0),
where D_0 is a fixed degree-d divisor and the curve's line bundle has degree
Delta = 3d.  The primitive group operation is the addflip (x, y) -> -(x+y),
from which negation and addition are derived, and scalar multiplication is
a signed ladder that spends one addflip per doubling and per addition;
equality of classes is a single division with a nonzero-ness check.

Las Vegas steps that the interface does not thread a stream through
(class-equality deflations, ``LargeModel.flip_of`` called without one)
draw from streams keyed by the operand data, so every run is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curverep, divisors, linalg
from .divisors import DivisorBrief, DivisorFull, IgsV, RetryStats
from .field import RandomStream, stream_from_bytes
from .linalg import Subspace

SMALL = "small"
LARGE = "large"


class TagMismatch(ValueError):
    """Operands carry different size tags."""


class InconsistentPrecomp(ValueError):
    """Generator-supplied large-model data fails its consistency checks."""


@dataclass(frozen=True)
class JacobianPoint:
    tag: str
    divisor: DivisorFull

    @property
    def space(self) -> Subspace:
        return self.divisor.space


@dataclass
class LargeModelPrecomp:
    """Generator-supplied inputs for building a large model."""

    d: int
    w_d0: Subspace
    w_2d0: Subspace
    s0: np.ndarray
    defl_v_sections: tuple | None = None  # pre-verified generating set for V


class LargeModel:
    """Immutable precomputation bundle for group operations on one curve."""

    def __init__(self, rep, d: int, w_d0: DivisorFull, w_2d0: DivisorFull,
                 s0: np.ndarray, defl_d0: DivisorBrief, defl_2d0: DivisorBrief,
                 defl_v: IgsV | None, salt: str, stats: RetryStats):
        self.rep = rep
        self.g = rep.g
        self.d = d
        self.Delta = rep.Delta
        self.W_D0 = w_d0
        self.W_2D0 = w_2d0
        self.s0 = s0
        self.defl_D0 = defl_d0
        self.defl_2D0 = defl_2d0
        self._defl_v = defl_v
        self._salt = salt
        self.stats = stats

    @property
    def defl_v(self) -> IgsV:
        """Generating set for V, needed by membership tests and inflation:
        the one ``make_large_model`` was given and kept."""
        if self._defl_v is None:
            raise InconsistentPrecomp("this model was built without a generating set for V")
        return self._defl_v

    def content_stream(self, label: str, *spaces: Subspace) -> RandomStream:
        """Stream keyed by this model's salt, a label and the spaces' bases."""
        return stream_from_bytes(self._salt.encode(), label.encode(),
                                 *(_space_bytes(s) for s in spaces))

    def defl_of(self, d: DivisorFull) -> DivisorBrief:
        """Brief representation of a divisor, reusing the stored ones for
        D_0 and 2*D_0; the draw is keyed by the divisor."""
        if d.space == self.W_D0.space:
            return self.defl_D0
        if d.space == self.W_2D0.space:
            return self.defl_2D0
        return divisors.deflate(self.rep, d, self.content_stream("defl", d.space), self.stats)

    def flip_of(self, d: DivisorFull, rng: RandomStream | None = None) -> DivisorFull:
        """Flip of d at its head, fused with the deflation on the stream
        ``defl_of`` would draw from."""
        rng = rng if rng is not None else self.content_stream("defl", d.space)
        return divisors.flip(self.rep, d, rng, stats=self.stats)

    def divide_by_2d0(self, w: Subspace) -> DivisorFull:
        """(s0*W)/2*D_0, by the stored brief form of 2*D_0 (headed by s0)."""
        blocks = curverep.own_blocks(self.rep, w, self.defl_2D0.sections)
        return divisors.divisor_from_space(self.rep, curverep.divide_own(self.rep, w, blocks))


def make_large_model(rep, precomp: LargeModelPrecomp, rng: RandomStream,
                     compute_defl_v: bool = True) -> LargeModel:
    """Check the generator data and run the one-time precomputations;
    ``compute_defl_v`` keeps the precomputation's generating set for V."""
    d = precomp.d
    if d < 2:
        raise InconsistentPrecomp(f"base degree d must be at least 2, got {d}")
    if rep.Delta != 3 * d:
        raise InconsistentPrecomp(f"Delta must equal 3*d, got {rep.Delta} vs d={d}")
    if 3 * d < 2 * rep.g + 2:
        raise InconsistentPrecomp("Delta = 3d must be at least 2g+2")
    w_d0 = divisors.divisor_from_space(rep, precomp.w_d0)
    w_2d0 = divisors.divisor_from_space(rep, precomp.w_2d0)
    if w_d0.degree != d or w_2d0.degree != 2 * d:
        raise InconsistentPrecomp(
            f"stored spaces have degrees {w_d0.degree}, {w_2d0.degree}; expected {d}, {2 * d}")
    s0 = precomp.s0 % rep.field.p
    if not np.count_nonzero(s0):
        raise InconsistentPrecomp("s0 must be nonzero")
    if not (linalg.contains_vector(w_d0.space, s0)
            and linalg.contains_vector(w_2d0.space, s0)):
        raise InconsistentPrecomp("s0 must lie in both stored spaces")

    stats = RetryStats()
    defl_d0 = divisors.deflate(rep, w_d0, rng.split("defl-d0"), stats)
    # headed by s0, so that addflip_small's shortcut divides by its own section
    defl_2d0 = divisors.deflate(rep, w_2d0, rng.split("defl-2d0"), stats, s=s0)
    keep = compute_defl_v and precomp.defl_v_sections is not None
    defl_v = IgsV(tuple(precomp.defl_v_sections)) if keep else None
    return LargeModel(rep, d, w_d0, w_2d0, s0, defl_d0, defl_2d0, defl_v, rng.seed, stats)


def zero_point(model: LargeModel, tag: str) -> JacobianPoint:
    """The identity class: W_{D_0} (small) or W_{2 D_0} (large)."""
    _check_tag(tag)
    return JacobianPoint(tag, model.W_D0 if tag == SMALL else model.W_2D0)


def _check_tag(tag: str) -> None:
    if tag not in (SMALL, LARGE):
        raise TagMismatch(f"unknown size tag {tag!r}")


def _space_bytes(space: Subspace) -> bytes:
    b = space.basis
    if b.dtype == object:
        return repr(b.tolist()).encode()
    return b.shape[0].to_bytes(4, "big") + b.shape[1].to_bytes(4, "big") + b.tobytes()


def equal_class(model: LargeModel, x: JacobianPoint, y: JacobianPoint) -> bool:
    """Whether x and y are the same divisor class.

    Divides s * W_E by a brief representation of D (s the section that
    heads that brief form: W_D's head, or s0 for 2*D_0); the quotient space is
    nonzero exactly when the classes agree.  The division is the
    own-section one, so the test is rank < dim W_E on the blocks K*(t_i*W_E).
    The intermediate divisor has degree Delta, beyond the usual comfort
    range, but the division is still exact.
    """
    if x.tag != y.tag:
        raise TagMismatch(f"cannot compare {x.tag} with {y.tag}")
    if x.space == y.space:
        return True
    rep = model.rep
    defl_x = model.defl_of(x.divisor)
    blocks = curverep.own_blocks(rep, y.space, defl_x.sections)
    return curverep.own_rank(rep, y.space, blocks) < y.space.dim


def addflip_small(model: LargeModel, x: JacobianPoint, y: JacobianPoint,
                  rng: RandomStream) -> JacobianPoint:
    """addflip on small representatives: flip, divide, flip again.

    With s the head of W_x (``rep.head``) and (s) = D_x + D~, the first
    flip gives W_D~.  s lies in W_D~, so the middle division of s*W_y by D~
    is the own-section one over dim W_y columns, by a generating set of D~
    headed by s that the division verifies by its degree, 2d
    (``divisors.divide_by``).  Each flip is the same kind of division, of s*V.
    """
    _require(model, x, SMALL)
    _require(model, y, SMALL)
    rep = model.rep
    if y.space == model.W_D0.space and x.space != model.W_D0.space:
        x, y = y, x  # the result class is symmetric; favor the stored shortcut
    if x.space == model.W_D0.space:
        # x is the stored identity: s0 flips D_0 to 2*D_0, whose brief
        # representation is precomputed and headed by s0, so the first flip
        # is free.
        w_de = model.divide_by_2d0(y.space)
    else:
        s = rep.head(x.space)
        d_tilde = divisors.flip(rep, x.divisor, rng, s=s, stats=model.stats)
        w_de = divisors.divide_by(rep, y.space, d_tilde, rng, s=s, stats=model.stats)
    divisors.require_degree(w_de, 2 * model.d, "sum divisor")
    out = divisors.flip(rep, w_de, rng, stats=model.stats)
    return JacobianPoint(SMALL, out)


def addflip_large(model: LargeModel, x: JacobianPoint, y: JacobianPoint,
                  rng: RandomStream) -> JacobianPoint:
    """addflip on large representatives: one flip and one divide.

    x is flipped at its head (``LargeModel.flip_of``) to D~, and s*W_D~ is
    divided by y at y's head s, by a generating set of y that the division
    verifies by its degree, 2d (``divisors.divide_by``).  For y = 2*D_0 the
    stored brief form, headed by s0, divides directly.
    """
    _require(model, x, LARGE)
    _require(model, y, LARGE)
    d_tilde = model.flip_of(x.divisor, rng)
    if y.space == model.W_2D0.space:
        out = model.divide_by_2d0(d_tilde.space)
    else:
        out = divisors.divide_by(model.rep, d_tilde.space, y.divisor, rng, stats=model.stats)
    divisors.require_degree(out, 2 * model.d, "addflip of large divisors")
    return JacobianPoint(LARGE, out)


def addflip(model: LargeModel, x: JacobianPoint, y: JacobianPoint,
            rng: RandomStream) -> JacobianPoint:
    if x.tag != y.tag:
        raise TagMismatch(f"cannot addflip {x.tag} with {y.tag}")
    if x.tag == SMALL:
        return addflip_small(model, x, y, rng)
    return addflip_large(model, x, y, rng)


def negate(model: LargeModel, x: JacobianPoint, rng: RandomStream) -> JacobianPoint:
    return addflip(model, x, zero_point(model, x.tag), rng)


def add(model: LargeModel, x: JacobianPoint, y: JacobianPoint,
        rng: RandomStream) -> JacobianPoint:
    return negate(model, addflip(model, x, y, rng), rng)


def scalar_mul(model: LargeModel, n: int, x: JacobianPoint,
               rng: RandomStream) -> JacobianPoint:
    """n*x by a signed ladder of addflips.

    The ladder holds acc = eps*k*x, k the leading bits of |n| and eps a
    sign.  A doubling is addflip(acc, acc) = -2*acc and an addition is
    addflip(acc, eps*x) = -(acc + eps*x), so each step is one addflip and
    flips eps.  -x is one negation, made the first time an addition needs
    it, and the result is negated once at the end only if eps is not n's
    sign.
    """
    if n == 0:
        return zero_point(model, x.tag)
    acc, eps, neg_x = x, 1, None
    for bit in bin(abs(n))[3:]:  # the bits of |n| below its top bit
        acc, eps = addflip(model, acc, acc, rng), -eps
        if bit == "1":
            if eps < 0 and neg_x is None:
                neg_x = negate(model, x, rng)
            acc, eps = addflip(model, acc, x if eps > 0 else neg_x, rng), -eps
    return acc if eps * n > 0 else negate(model, acc, rng)


def _require(model: LargeModel, x: JacobianPoint, tag: str) -> None:
    if x.tag != tag:
        raise TagMismatch(f"expected a {tag} point, got {x.tag}")
    expected = model.d if tag == SMALL else 2 * model.d
    if x.divisor.degree != expected:
        raise TagMismatch(
            f"{tag} point must have degree {expected}, got {x.divisor.degree}")
