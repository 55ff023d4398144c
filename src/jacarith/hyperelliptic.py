"""Hyperelliptic instance generator with ground-truth data.

Curves are in the odd-degree model y^2 + h(x) y = f(x) with f monic of
degree 2g+1 (h = 0 in odd characteristic, h = 1 over F_2), so there is a
single point at infinity and every space of sections with poles only at
infinity has a monomial basis: x^i has pole order 2i there and x^j y has
pole order 2j + 2g + 1, all distinct.  That makes the multiplication tables
and the stored spaces for the large model exact and cheap: products of basis
monomials reduce by the single relation y^2 = f - h y.  The same relation
gives multiplication by a section from V' to V'' (``CurveBundle.star_matrix``)
without tables, for checking the generating set of V.

The generated bundle exposes the curve only through table/value data; the
function-field layer stays in this module (and in the Mumford oracle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import curverep, divisors, linalg, poly
from .curverep import RepA, RepB0, validate_rep
from .field import PrimeField, RandomStream, make_prime_field, sqrt_mod
from .jacobian import LargeModel, LargeModelPrecomp, make_large_model
from .linalg import DimensionMismatch, Subspace

BUNDLE_FORMAT = "curve-bundle"
BUNDLE_VERSION = 2
_BUNDLE_KEYS = {"format", "version", "p", "g", "Delta", "d", "rep", "curve", "points"}

_SMOOTHNESS_RETRIES = 200


class SingularCurve(ValueError):
    """No smooth curve found (bad f, or random retries exhausted)."""


class BadCharacteristic(ValueError):
    """The requested curve model is not available in this characteristic."""


class InsufficientRationalPoints(ValueError):
    """Fewer affine rational points than evaluation slots."""


class MalformedFile(ValueError):
    """A curve-bundle file failed to parse or failed its shape checks."""


class VersionMismatch(ValueError):
    """A curve-bundle file carries an unsupported format version."""


@dataclass(frozen=True)
class HyperellipticCurve:
    """y^2 + h(x) y = f(x), f monic of degree 2g+1, one point at infinity."""

    g: int
    p: int
    f: tuple
    h: tuple


@dataclass(frozen=True)
class BridgeInfo:
    """Metadata linking a representation back to the generating curve."""

    curve: HyperellipticCurve
    monomials: tuple  # V-basis as (xdeg, ydeg, pole_order), sorted by pole


def make_curve(g: int, p: int, f, h=None) -> HyperellipticCurve:
    f = poly.trim(c % p for c in f)
    if poly.deg(f) != 2 * g + 1 or f[-1] != 1:
        raise SingularCurve(f"f must be monic of degree {2 * g + 1}")
    if h is None:
        h = (1,) if p == 2 else ()
    else:
        h = poly.trim(c % p for c in h)
    if p == 2:
        if not h:
            raise BadCharacteristic("y^2 = f(x) is singular over F_2; need h != 0")
        if h != (1,):
            raise BadCharacteristic("only the h = 1 model is supported over F_2")
    else:
        if h:
            raise BadCharacteristic("odd-characteristic model is y^2 = f(x)")
        if not poly.is_squarefree(f, p):
            raise SingularCurve("f has a repeated root; the curve is singular")
    return HyperellipticCurve(g, p, f, h)


def basis_monomials(curve: HyperellipticCurve, bound: int) -> list:
    """Monomials x^a y^e (e <= 1) of pole order <= bound, sorted by pole order."""
    out = [(a, 0, 2 * a) for a in range(bound // 2 + 1)]
    step = 2 * curve.g + 1
    out += [(a, 1, 2 * a + step) for a in range((bound - step) // 2 + 1) if step <= bound]
    out.sort(key=lambda m: m[2])
    return out


def _monomial_product(curve: HyperellipticCurve, m1, m2) -> list:
    """Product of two basis monomials as [(xdeg, ydeg, coeff)], reduced by
    y^2 -> f - h*y."""
    a = m1[0] + m2[0]
    e = m1[1] + m2[1]
    if e <= 1:
        return [(a, e, 1)]
    p = curve.p
    terms = [(a + i, 0, c) for i, c in enumerate(curve.f) if c]
    terms += [(a + j, 1, (-c) % p) for j, c in enumerate(curve.h) if c]
    return terms


def _build_tables(curve: HyperellipticCurve, field: PrimeField,
                  v: list, vp: list) -> np.ndarray:
    """Tables[i][k][j] = coefficient of vp[k] in v[i] * v[j]."""
    index = {(a, e): k for k, (a, e, _) in enumerate(vp)}
    cache: dict = {}
    ii, kk, jj, vv = [], [], [], []
    for i, mi in enumerate(v):
        for j, mj in enumerate(v[i:], i):
            key = (mi[0] + mj[0], mi[1] + mj[1])
            terms = cache.get(key)
            if terms is None:
                terms = [(index[(a, e)], c)
                         for a, e, c in _monomial_product(curve, mi, mj)]
                cache[key] = terms
            for k, c in terms:
                ii += (i, j)
                kk += (k, k)
                jj += (j, i)
                vv += (c, c)
    tables = linalg.zeros(field, len(v) * len(vp), len(v)).reshape(len(v), len(vp), len(v))
    tables[ii, kk, jj] = np.array(vv, dtype=linalg.dtype_for(field))
    return tables


class CurveBundle:
    """A generated curve instance: representations plus ground-truth data.

    ``rep_tag`` is the form a bundle file names ("a" table, "b0"
    point-value), which ``jacarith verify`` runs unless told otherwise."""

    def __init__(self, curve: HyperellipticCurve, field: PrimeField, Delta: int,
                 d: int | None, rep_a: RepA, v_monomials: list, rep_b0: RepB0 | None = None):
        self.curve = curve
        self.field = field
        self.Delta = Delta
        self.d = d
        self.rep_a = rep_a
        self.v_monomials = v_monomials
        self.rep_b0 = rep_b0
        self.rep_tag = "a"

    @property
    def g(self) -> int:
        return self.curve.g

    @property
    def p(self) -> int:
        return self.curve.p

    def star_matrix(self, s: np.ndarray) -> np.ndarray:
        """Multiplication by s in V (table coordinates), from V' to V'', as
        the delta'' x delta' matrix over the monomials of both.

        With s = A(x) + B(x) y and y^2 = f - h y, s * x^j = A x^j + B x^j y
        and s * x^j y = B f x^j + (A - h B) x^j y, so each column holds
        shifted copies of A, B, B*f and A - h*B.
        """
        if len(s) != len(self.v_monomials):
            raise DimensionMismatch(
                f"sections in table coordinates have length {len(self.v_monomials)},"
                f" got {len(s)}")
        p, curve = self.p, self.curve
        coeffs = [[0] * (self.Delta // 2 + 1) for _ in range(2)]
        for (a, e, _), c in zip(self.v_monomials, s):
            coeffs[e][a] = int(c) % p
        a_poly, b_poly = (poly.trim(c) for c in coeffs)
        parts = ((a_poly, b_poly),  # (x-part, y-part) of s * x^j
                 (poly.mul(b_poly, curve.f, p),
                  poly.sub(a_poly, poly.mul(curve.h, b_poly, p), p)))  # of s * x^j y
        vpp = basis_monomials(curve, 3 * self.Delta)
        rows = ([k for k, m in enumerate(vpp) if m[1] == 0],
                [k for k, m in enumerate(vpp) if m[1] == 1])  # ascending in x-degree
        out = linalg.zeros(self.field, len(vpp), self.rep_a.delta_prime)
        for col, (j, e, _) in enumerate(basis_monomials(curve, 2 * self.Delta)):
            for part, at in zip(parts[e], rows):
                out[at[j:j + len(part)], col] = part
        return out

    def _monomial_space(self, pole_bound: int) -> Subspace:
        """Span of the V-monomials of pole order <= pole_bound, in table
        coordinates (unit vectors, so the basis is canonical)."""
        cols = [j for j, (_, _, pole) in enumerate(self.v_monomials) if pole <= pole_bound]
        basis = linalg.zeros(self.field, len(self.v_monomials), len(cols))
        for k, j in enumerate(cols):
            basis[j, k] = 1
        return Subspace(self.field, len(self.v_monomials), basis)

    def precomp(self, tag: str = "a", rng: RandomStream | None = None,
                with_cubic: bool = True) -> tuple:
        """(rep, LargeModelPrecomp) for the requested representation.

        The stored spaces W_D0, W_2D0 and the section s0 = 1 are spans of
        monomials, mapped into the chosen form by ``rep.from_table_space``.
        ``with_cubic`` means "find V's generating set" (the name is older
        than ``star_matrix``; perfbench's sweep passes it): the set is drawn
        on ``rep_a`` from ``rng.split("igs-v")`` and mapped into the form.
        """
        if self.d is None:
            raise ValueError("this bundle has no large-model degree d")
        if tag == "a":
            rep = self.rep_a
        elif tag == "b0":
            if self.rep_b0 is None:
                raise ValueError("bundle has no point-value representation; run gen_rep_b0")
            rep = self.rep_b0
        else:
            raise ValueError(f"unknown representation tag {tag!r}")
        sections = None
        if with_cubic:
            igs_rng = rng.split("igs-v") if rng else RandomStream("igs-v")
            sections = divisors.igs_for_v(self.rep_a, self.star_matrix, igs_rng).sections
            if tag == "b0":
                sections = tuple(self.to_b0_vector(s) for s in sections)
        pre = LargeModelPrecomp(
            d=self.d,
            w_d0=rep.from_table_space(self._monomial_space(self.Delta - self.d)),
            w_2d0=rep.from_table_space(self._monomial_space(self.Delta - 2 * self.d)),
            s0=rep.from_table_space(self._monomial_space(0)).basis[:, 0],
            defl_v_sections=sections)
        return rep, pre

    def large_model(self, rng: RandomStream, tag: str = "a",
                    compute_defl_v: bool = True) -> LargeModel:
        rep, pre = self.precomp(tag, rng, with_cubic=compute_defl_v)
        return make_large_model(rep, pre, rng, compute_defl_v=compute_defl_v)

    def to_b0_vector(self, s: np.ndarray) -> np.ndarray:
        """Map a section from table coordinates to its point-value vector."""
        if self.rep_b0 is None:
            raise ValueError("bundle has no point-value representation")
        return linalg.mat_mul(self.field, self.rep_b0.a_v, s)


def _random_f(g: int, p: int, rng: RandomStream) -> tuple:
    for _ in range(_SMOOTHNESS_RETRIES):
        f = poly.random_monic(2 * g + 1, p, rng)
        if p == 2 or poly.is_squarefree(f, p):
            return f
    raise SingularCurve("no squarefree f found; modulus too small for this genus")


def build_rep_a(curve: HyperellipticCurve, field: PrimeField, Delta: int) -> tuple:
    """(RepA, V-monomials) for the line bundle of degree Delta at infinity,
    checked by ``validate_rep``.  Generation and file loading both come here."""
    v = basis_monomials(curve, Delta)
    vp = basis_monomials(curve, 2 * Delta)
    g = curve.g
    if len(v) != Delta + 1 - g or len(vp) != 2 * Delta + 1 - g:
        raise SingularCurve("monomial basis has unexpected dimension")
    tables = _build_tables(curve, field, v, vp)
    rep = RepA(field, g, Delta, tables,
               bridge_info=BridgeInfo(curve, tuple(v)))
    report = validate_rep(rep)
    if not report.passed:
        raise SingularCurve(
            f"tables built from the curve failed validation: {report.failures()}")
    return rep, v


def gen_hyperelliptic(g: int, p: int, f=None, rng: RandomStream | None = None,
                      d: int | None = None) -> CurveBundle:
    """Generate a genus-g curve bundle over F_p with large-model data.

    Default d = max(2g, 2) and Delta = 3d.  With f omitted, a random
    smooth curve is drawn from the stream.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    field = make_prime_field(p)
    if rng is None:
        rng = RandomStream(0)
    if d is None:
        d = max(2 * g, 2)
    Delta = 3 * d
    curve = make_curve(g, p, f if f is not None else _random_f(g, p, rng))
    rep, v = build_rep_a(curve, field, Delta)
    return CurveBundle(curve, field, Delta, d, rep, v)


def gen_paper_fixture(p: int = 1009) -> CurveBundle:
    """The reference elliptic curve y^2 = x^3 + 1 with a degree-4 bundle.

    Basis {1, x, y, x^2} for V and {1, x, y, x^2, xy, x^3, x^2 y, x^4} for
    V'; used as a golden fixture for the multiplication table.  No
    large-model data (4 is not of the form 3d).
    """
    if p in (2, 3):
        raise BadCharacteristic("fixture needs characteristic away from 2 and 3")
    field = make_prime_field(p)
    curve = make_curve(1, p, (1, 0, 0, 1))
    rep, v = build_rep_a(curve, field, 4)
    return CurveBundle(curve, field, 4, None, rep, v)


def _on_curve(curve: HyperellipticCurve, x: int, y: int) -> bool:
    p = curve.p
    return (y * y + poly.evaluate(curve.h, x, p) * y - poly.evaluate(curve.f, x, p)) % p == 0


def _affine_points(curve: HyperellipticCurve, rng: RandomStream, count: int) -> list:
    """Distinct affine rational points, order seeded by the stream."""
    p = curve.p
    points = []
    if p == 2:
        xs = [0, 1]
        rng.shuffle(xs)
        for x in xs:
            points += [(x, y) for y in (0, 1) if _on_curve(curve, x, y)]
    else:
        xs = list(range(p)) if p <= 1 << 16 else None
        if xs is not None:
            rng.shuffle(xs)
        else:
            seen = set()
            xs = []
            while len(xs) < 4 * count:
                x = rng.randrange(p)
                if x not in seen:
                    seen.add(x)
                    xs.append(x)
        for x in xs:
            fx = poly.evaluate(curve.f, x, p)
            if fx == 0:
                points.append((x, 0))
            else:
                y = sqrt_mod(fx, p)
                if y is not None:
                    points.append((x, y))
                    points.append((x, p - y))
            if len(points) >= count:
                break
    if len(points) < count:
        raise InsufficientRationalPoints(
            f"need {count} affine points, found {len(points)} over F_{p}")
    return points[:count]


def _value_matrix(curve: HyperellipticCurve, field: PrimeField,
                  monomials, points) -> np.ndarray:
    """Values of x^a y^e at the points, from running powers of x."""
    a = linalg.zeros(field, len(points), len(monomials))
    p = field.p
    xs = np.array([x for x, _ in points], dtype=a.dtype)
    ys = np.array([y for _, y in points], dtype=a.dtype)
    powers = [np.ones_like(xs)]
    for _ in range(max(xd for xd, _, _ in monomials)):
        powers.append(powers[-1] * xs % p)
    for j, (xd, yd, _) in enumerate(monomials):
        a[:, j] = powers[xd] * ys % p if yd else powers[xd]
    return a


def _attach_rep_b0(bundle: CurveBundle, points: list, rng: RandomStream) -> CurveBundle:
    """Attach the point-value representation at the given points.

    Checks the value matrix with ``validate_rep``, then cross-checks that
    evaluation intertwines the two multiplication rules.
    """
    a_v = _value_matrix(bundle.curve, bundle.field, bundle.v_monomials, points)
    rep = RepB0(bundle.field, bundle.g, bundle.Delta, a_v, points,
                bridge_info=bundle.rep_a.bridge_info)
    report = validate_rep(rep)
    if not report.passed:
        raise InsufficientRationalPoints(
            f"point-value data failed validation: {report.failures()}")
    # evaluation must turn table products into componentwise products
    vp = basis_monomials(bundle.curve, 2 * bundle.Delta)
    a_vp = _value_matrix(bundle.curve, bundle.field, vp, points)
    for _ in range(8):
        i = rng.randrange(bundle.rep_a.delta)
        j = rng.randrange(bundle.rep_a.delta)
        ti = bundle.rep_a.full_v().basis[:, i]
        tj = bundle.rep_a.full_v().basis[:, j]
        lhs = linalg.mat_mul(bundle.field, a_vp, curverep.product(bundle.rep_a, ti, tj))
        rhs = a_v[:, i] * a_v[:, j] % bundle.field.p
        if np.count_nonzero(lhs - rhs):
            raise InsufficientRationalPoints("evaluation failed the product cross-check")
    bundle.rep_b0 = rep
    return bundle


def gen_rep_b0(bundle: CurveBundle, rng: RandomStream) -> CurveBundle:
    """Attach a point-value representation at N = 2*Delta + 1 affine points."""
    points = _affine_points(bundle.curve, rng, 2 * bundle.Delta + 1)
    return _attach_rep_b0(bundle, points, rng)


# ---------------------------------------------------------------------------
# Bundle files: JSON holding the curve and, for the point-value form, its
# evaluation points.  Tables and value matrices are functions of these, so
# loading rebuilds them through the generators' own checked path, and no
# stored table can disagree with the curve.
# ---------------------------------------------------------------------------


def save_bundle(bundle: CurveBundle, path: str, rep: str | None = None) -> None:
    """Write the bundle file, naming ``rep`` as its form (default: the
    bundle's own ``rep_tag``)."""
    rep = bundle.rep_tag if rep is None else rep
    if rep == "b0" and bundle.rep_b0 is None:
        raise ValueError("bundle has no point-value representation to save")
    points = None
    if bundle.rep_b0 is not None:
        points = [[int(x), int(y)] for x, y in bundle.rep_b0.points]
    doc = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "p": bundle.p,
        "g": bundle.g,
        "Delta": bundle.Delta,
        "d": bundle.d,
        "rep": rep,
        "curve": {"f": list(bundle.curve.f), "h": list(bundle.curve.h)},
        "points": points,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _checked_points(curve: HyperellipticCurve, raw, count: int) -> list:
    """Stored evaluation points: exactly ``count`` distinct affine points of
    the curve with coordinates in [0, p)."""
    points = [(x, y) for x, y in raw]
    if len(points) != count:
        raise MalformedFile(f"expected {count} evaluation points, got {len(points)}")
    if len(set(points)) != count:
        raise MalformedFile("evaluation points are not distinct")
    for x, y in points:
        if not all(type(c) is int and 0 <= c < curve.p for c in (x, y)):  # no bools
            raise MalformedFile(
                f"point ({x!r}, {y!r}) has a coordinate outside the integers in [0, {curve.p})")
        if not _on_curve(curve, x, y):
            raise MalformedFile(f"point ({x}, {y}) is not on the curve")
    return points


def load_bundle(path: str) -> CurveBundle:
    """Read a bundle file and rebuild its representations from the curve
    and the stored points, with the checks generation runs."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"cannot parse bundle file: {exc}") from exc
    try:
        if doc.get("format") != BUNDLE_FORMAT:
            raise MalformedFile("not a curve-bundle file")
        if doc.get("version") != BUNDLE_VERSION:
            raise VersionMismatch(
                f"unsupported bundle version {doc.get('version')} (expected"
                f" {BUNDLE_VERSION}); regenerate the file with `jacarith gen`")
        if unknown := sorted(set(doc) - _BUNDLE_KEYS):
            raise MalformedFile(f"unknown fields {unknown}")
        if unknown := sorted(set(doc["curve"]) - {"f", "h"}):
            raise MalformedFile(f"unknown curve fields {unknown}")
        p, g, Delta, d = doc["p"], doc["g"], doc["Delta"], doc["d"]
        for name, value in (("p", p), ("g", g), ("Delta", Delta), ("d", d)):
            if type(value) is not int and not (name == "d" and value is None):  # no bools
                raise MalformedFile(f"{name} must be an integer, got {value!r}")
        if doc["rep"] not in ("a", "b0"):
            raise MalformedFile(f"unknown representation tag {doc['rep']!r}")
        if doc["rep"] == "b0" and doc["points"] is None:
            raise MalformedFile("a point-value (rep b0) bundle needs its evaluation points")
        if d is not None and Delta != 3 * d:
            raise MalformedFile(f"Delta = {Delta} is not 3d for d = {d}")
        for name in ("f", "h"):
            coeffs = doc["curve"][name]
            if type(coeffs) is not list or any(type(c) is not int for c in coeffs):  # no bools
                raise MalformedFile(f"curve.{name} must be a list of integers, got {coeffs!r}")
        field = make_prime_field(p)
        curve = make_curve(g, p, doc["curve"]["f"], doc["curve"]["h"] or None)
        rep, v = build_rep_a(curve, field, Delta)
        bundle = CurveBundle(curve, field, Delta, d, rep, v)
        bundle.rep_tag = doc["rep"]
        if doc["points"] is not None:
            points = _checked_points(curve, doc["points"], 2 * Delta + 1)
            _attach_rep_b0(bundle, points, RandomStream("load-cross-check"))
        return bundle
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (MalformedFile, VersionMismatch)):
            raise
        raise MalformedFile(f"bundle file is missing or corrupts fields: {exc}") from exc
