"""Curve representations and the primitive section-space operations.

A curve carries spaces V and V' of "linear" and "quadratic" functions with a
multiplication map V x V -> V'.  Two encodings are supported:

* ``RepA`` stores the multiplication table as delta matrices M_i of size
  delta' x delta, so multiplication by a section s with coordinates c is the
  matrix combination M_s = sum_i c_i M_i.
* ``RepB0`` stores value vectors of a V-basis at N = 2*Delta + 1 rational
  points, so multiplication is componentwise.

Both classes share one protocol, and everything above this module uses the
protocol alone, whichever encoding it runs on:

* ``full_v()``: the canonical basis E of V in this form's coordinates;
* ``apply_mul(s, b)``: a raw basis of s * (column span of b);
* ``from_table_space(w)``: a canonical subspace given in table (monomial)
  coordinates, as this form's canonical subspace;
* ``head(w)``: the section of W that heads its brief forms and flips: the
  first canonical column in table form, the sum section W*1 (1 at every
  pivot row of W) in point-value form;
* ``own_kernel(s, w)``: K, the left kernel of s*W, as an ``OwnKernel``
  whose ``block(t)`` is K*(t*W);
* ``add_checks(report)``: the form's own ``validate_rep`` checks.

Division solves for coordinates over E in both forms: K_W' is read off the
canonical W' with no elimination (``linalg.constraint_rows``), the block of
each section s is K_W' * (s*E), a matrix with delta columns, and the kernel
C of the stacked blocks comes back as E*C.  No re-echelon is needed, because
E*C is already canonical: if E has pivot rows r_1 < ... < r_delta and C
pivot rows c_1 < ... < c_d, column k of E*C starts with a 1 at row r_{c_k},
and row r_{c_j} of E*C is row c_j of C, i.e. the unit vector e_j.  In
``RepA`` E is the identity and E*C is C.  The argument holds for any
canonical E, so it also covers W*C for any canonical subspace W.

Own-section division.  When the generating set (s, t_2, ..., t_h) starts
with the dividend's own section s != 0, then
(s*W)/{s, t_2, ..., t_h} = {u in W : t_i*u in s*W}, because s*u lies in s*W
exactly when u lies in W.  With K the left kernel of s*W, the quotient is
W*C for C the canonical kernel of the stacked blocks K*(t_i*W): dim W
columns, and no block for s (it would be K*(s*W) = 0).  Stacked, the
blocks have rank r = dim W - dim of the quotient.  For W = W_{D_W},
(s) = D + D' and (t_i) = D + T_i the quotient is W_{D_W + D' - B},
B = gcd(D', T_2, ..., T_h), whose codimension is its degree while that is
at most Delta - 2g + 1.  So r = Delta - deg D - deg B: r = Delta - deg D
exactly when the candidate generates D, and r is smaller otherwise.

K in table form is the left kernel of M_s*W, by elimination, and each
block is its rows times M_t*W.  In point-value form multiplication is
componentwise, so x kills s*W exactly when x∘s kills W, and K can be read
off W's canonical basis (pivot rows P, free rows F) with no elimination:
for each f in F, row f is e_f - s_f*W[f, :]*diag(s_P)^{-1}, placed at the
P columns.  Then (row∘s)*W = s_f*W[f, :] - s_f*W[f, :] = 0, and the
N - dim W rows have an identity block on F; a zero of s at a free row makes
its row the unit row e_f.  K is never built: W[P, :] is the identity, so
entry (f, j) of K*(t*W) is W[f, j]*(t_f - s_f*t_{P_j}/s_{P_j}), and a block
is |F| x dim W elementwise products, with no matrix product.  The formula
needs s nonzero on P, which is why the point-value head is the sum
section: a flip's s is 1 on the pivot rows of W_D.  On other rows of P (V's
pivot rows outside W_D's, for instance) s can still vanish; then K is the
left kernel of s*W by elimination, as in table form, and its blocks are
products.  Quotients and verdicts depend only on the row space of K, so
every form gives the same quotients.

The own-section users: ``divisors``' one candidate loop, which judges
every candidate by r, in every deflation (the rank alone, ``own_rank``, on
K of s*V), every flip (the division (s*V)/D at its own section s, W_D's
head or a given section of W_D) and the middle division of
``addflip_small`` and the final division of ``addflip_large``
(``divisors.divide_by``, by a brief form headed by the dividend's section),
where r is dim W less the quotient's dimension; the division by the stored
brief form of 2*D_0, headed by s0; and ``equal_class``, whose quotient is
nonzero exactly when ``own_rank`` < dim W.  ``divide`` (``inflate``,
``membership_test``), whose dividend is not a product s*W, hands its
blocks K_W' * (s_i*E) to ``divide_own`` with W = V.

Everything downstream (divisor representations, group operations) is built
from four primitives on these encodings: single products, simple
multiplication s*W, sums of products, and division.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Protocol

import numpy as np

from .field import PrimeField
from . import linalg
from .linalg import DimensionMismatch, Subspace


class ZeroSection(ValueError):
    """A nonzero section was required."""


class AllZeroSections(ValueError):
    """A section list with at least one nonzero element was required."""


class DegreeLawViolation(RuntimeError):
    """An elimination result broke a dimension or degree law that holds on
    consistent curve data (so the data is not what it claims to be)."""


class OwnKernel(Protocol):
    """K, the left kernel of s*W for a nonzero section s, as
    ``rep.own_kernel`` returns it: ``block(t)`` is K*(t*W), one row per row
    of K and dim W columns, in canonical residues."""

    def block(self, t: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class _KernelRows:
    """K held as rows; each block is the product of the rows with t*W."""

    rep: object
    w: Subspace
    rows: np.ndarray

    def block(self, t: np.ndarray) -> np.ndarray:
        return linalg.mat_mul(self.rep.field, self.rows, _apply_mul(self.rep, t, self.w.basis))


@dataclass(frozen=True, eq=False)
class _KernelReadOff:
    """The point-value K for s nonzero on W's pivot rows P, never built:
    entry (f, j) of a block is W[f, j]*(t_f - s_f*t_{P_j}/s_{P_j}) over the
    free rows F (module docstring)."""

    p: int
    free: np.ndarray
    pivots: np.ndarray
    w_free: np.ndarray        # W[F, :]
    s_free: np.ndarray        # s_F as a column
    inv_s_pivots: np.ndarray  # s_P^{-1}

    def block(self, t: np.ndarray) -> np.ndarray:
        p = self.p
        t_over_s = t[self.pivots] * self.inv_s_pivots % p
        return self.w_free * ((t[self.free, None] - self.s_free * t_over_s) % p) % p


class RepA:
    """Multiplication-table form: tables[i] = M_i, size delta' x delta."""

    def __init__(self, field: PrimeField, g: int, Delta: int, tables: np.ndarray,
                 bridge_info=None):
        self.field = field
        self.g = g
        self.Delta = Delta
        self.delta = Delta + 1 - g
        self.delta_prime = 2 * Delta + 1 - g
        if tables.shape != (self.delta, self.delta_prime, self.delta):
            raise DimensionMismatch(
                f"tables must have shape ({self.delta}, {self.delta_prime}, {self.delta}),"
                f" got {tables.shape}")
        self.tables = tables % field.p
        self.n = self.delta            # ambient dimension of V
        self.n_prime = self.delta_prime  # ambient dimension of V'
        self.bridge_info = bridge_info
        self._full_v = None

    def full_v(self) -> Subspace:
        if self._full_v is None:
            self._full_v = linalg.full_subspace(self.field, self.n)
        return self._full_v

    def from_table_space(self, w: Subspace) -> Subspace:
        """Table coordinates are this form's own; w as it stands."""
        return w

    def apply_mul(self, s: np.ndarray, b: np.ndarray) -> np.ndarray:
        """M_s * b; for b = full_v().basis (the identity) M_s itself."""
        m_s = mult_matrix(self, s)
        return m_s if b is self.full_v().basis else linalg.mat_mul(self.field, m_s, b)

    def head(self, space: Subspace) -> np.ndarray:
        """The space's first canonical column."""
        return space.basis[:, 0].copy()

    def own_kernel(self, s: np.ndarray, w: Subspace) -> OwnKernel:
        """K, the left kernel of M_s * W, as rows found by elimination."""
        return _eliminated_kernel(self, s, w)

    def add_checks(self, report: ValidationReport) -> None:
        sym = bool(np.array_equal(self.tables, self.tables.transpose(2, 1, 0)))
        report.add("table symmetry c_ijk = c_jik", sym)
        # surjectivity: the joint left kernel of all M_i must vanish; track
        # it incrementally (it usually dies after a handful of tables)
        f = self.field
        order = [0, self.delta - 1] + list(range(1, self.delta - 1))
        kern = None
        for i in order:
            if kern is None:
                kern = linalg.left_kernel_rows(f, self.tables[i])
            else:
                inside = linalg.left_kernel_rows(f, linalg.mat_mul(f, kern, self.tables[i]))
                kern = linalg.mat_mul(f, inside, kern)
            if kern.shape[0] == 0:
                break
        report.add("multiplication map surjective", kern.shape[0] == 0,
                   f"joint left kernel has dimension {kern.shape[0]}")


class RepB0:
    """Point-value form: a_v columns are value vectors of the table form's
    V-basis (the monomials), so a_v maps table coordinates to values.

    Division works in coordinates over ``full_v()``.
    """

    def __init__(self, field: PrimeField, g: int, Delta: int, a_v: np.ndarray,
                 points=None, bridge_info=None):
        self.field = field
        self.g = g
        self.Delta = Delta
        self.delta = Delta + 1 - g
        self.delta_prime = 2 * Delta + 1 - g
        self.n = 2 * Delta + 1         # number of evaluation points
        self.n_prime = self.n
        if a_v.shape != (self.n, self.delta):
            raise DimensionMismatch(
                f"a_v must have shape ({self.n}, {self.delta}), got {a_v.shape}")
        self.a_v = a_v % field.p
        self.points = list(points) if points is not None else None
        self.bridge_info = bridge_info
        self._full_v = None

    def full_v(self) -> Subspace:
        if self._full_v is None:
            self._full_v = linalg.column_echelon(self.field, self.a_v)
        return self._full_v

    def from_table_space(self, w: Subspace) -> Subspace:
        """Canonical basis of the value vectors a_v * w."""
        return linalg.column_echelon(self.field, linalg.mat_mul(self.field, self.a_v, w.basis))

    def apply_mul(self, s: np.ndarray, b: np.ndarray) -> np.ndarray:
        """s * b row by row: multiplication is componentwise."""
        return s[:, None] * b % self.field.p

    def head(self, space: Subspace) -> np.ndarray:
        """The sum section W*1 of the space: 1 at every pivot row of W."""
        return space.basis.sum(axis=1) % self.field.p

    def own_kernel(self, s: np.ndarray, w: Subspace) -> OwnKernel:
        """K, the left kernel of s*W, read off W's canonical basis (module
        docstring): row f is e_f - s_f*W[f, :]*diag(s_P)^{-1} at the pivot
        rows P, and K is never built; its blocks are elementwise.  Where s
        vanishes on P, K comes by elimination as in table form."""
        pivots = w.pivot_rows
        s_pivots = s[pivots]
        if not s_pivots.all():
            return _eliminated_kernel(self, s, w)
        free = np.delete(np.arange(self.n), pivots)
        return _KernelReadOff(self.field.p, free, pivots, w.basis[free], s[free, None],
                              linalg.inverses(self.field, s_pivots))

    def add_checks(self, report: ValidationReport) -> None:
        report.add("rank A_V = delta",
                   linalg.matrix_rank(self.field, self.a_v) == self.delta)


def mult_matrix(rep: RepA, s: np.ndarray) -> np.ndarray:
    """The table form's M_s: multiplication by s from V- to V'-coordinates."""
    if s.shape[0] != rep.n:
        raise DimensionMismatch(f"section has length {s.shape[0]}, expected {rep.n}")
    return linalg.combine(rep.field, s, rep.tables)


def _apply_mul(rep, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw basis of s * (column span of b): ``rep.apply_mul`` under the one
    name the callers (and a tracer wrapping this module) go through."""
    return rep.apply_mul(s, b)


def product(rep, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One product s*u as a V'-coordinate vector."""
    if s.shape[0] != rep.n or u.shape[0] != rep.n:
        raise DimensionMismatch("sections must have length N")
    return _apply_mul(rep, s, u[:, None])[:, 0]


def simple_mul(rep, s: np.ndarray, w: Subspace) -> Subspace:
    """Canonical basis of s*W; multiplication by nonzero s preserves dim."""
    if not np.count_nonzero(s):
        raise ZeroSection("simple multiplication needs a nonzero section")
    out = linalg.column_echelon(rep.field, _apply_mul(rep, s, w.basis))
    if out.dim != w.dim:
        raise DegreeLawViolation(f"s*W has dimension {out.dim}, expected {w.dim}")
    return out


def _nonzero_sections(sections) -> list[np.ndarray]:
    live = [s for s in sections if np.count_nonzero(s)]
    if not live:
        raise AllZeroSections("need at least one nonzero section")
    return live


def _product_blocks(rep, sections, basis: np.ndarray) -> np.ndarray:
    return np.hstack([_apply_mul(rep, s, basis) for s in _nonzero_sections(sections)])


def sum_of_products(rep, sections, w: Subspace) -> Subspace:
    """Canonical basis of s_1*W + ... + s_h*W."""
    return linalg.column_echelon(rep.field, _product_blocks(rep, sections, w.basis))


def sum_of_products_dim(rep, sections, w: Subspace) -> int:
    """dim(s_1*W + ... + s_h*W) without building the canonical basis."""
    return linalg.matrix_rank(rep.field, _product_blocks(rep, sections, w.basis))


def divide(rep, wp: Subspace, sections) -> Subspace:
    """Canonical basis of {u in V : u * s_i in W' for all i}, from the
    blocks K_W' * (s_i*E) with K_W' read off W' (module docstring)."""
    if wp.ambient != rep.n_prime:
        raise DimensionMismatch("W' must live in V'")
    e = rep.full_v()
    kw = _KernelRows(rep, e, linalg.constraint_rows(rep.field, wp))
    return divide_own(rep, e, [kw.block(s) for s in _nonzero_sections(sections)])


def _eliminated_kernel(rep, s: np.ndarray, w: Subspace) -> _KernelRows:
    """K, the left kernel of s*W, as rows found by elimination."""
    return _KernelRows(rep, w, linalg.left_kernel_rows(rep.field, _apply_mul(rep, s, w.basis)))


def own_kernel(rep, s: np.ndarray, w: Subspace) -> OwnKernel:
    """K, the left kernel of s*W, for a nonzero section s: ``rep.own_kernel``
    under the one name the callers go through."""
    if not np.count_nonzero(s):
        raise ZeroSection("own-section division needs a nonzero first section")
    return rep.own_kernel(s, w)


def own_blocks(rep, w: Subspace, sections, kw: OwnKernel | None = None) -> list[np.ndarray]:
    """The constraint blocks K*(t_i*W) of dividing s*W by (s, t_2, ..., t_h),
    s = sections[0], one block per nonzero t_i.  kw, when given, is K as
    ``rep.own_kernel`` returns it for s and W; otherwise it is built here."""
    if kw is None:
        kw = own_kernel(rep, sections[0], w)
    return [kw.block(t) for t in sections[1:] if np.count_nonzero(t)]


def divide_own(rep, w: Subspace, blocks) -> Subspace:
    """Canonical basis of (s*W)/{s, t_2, ..., t_h} = {u in W : t_i*u in s*W}
    from its ``own_blocks``: W*C, C the canonical kernel of the stacked
    blocks."""
    return _times(w, linalg.kernel_basis(rep.field, _stacked(rep, w, blocks)))


def _times(w: Subspace, c: Subspace) -> Subspace:
    """W*C for C in coordinates over W's canonical basis: canonical as it
    stands, by the E*C lemma in the module docstring."""
    return Subspace(w.field, w.ambient, linalg.mat_mul(w.field, w.basis, c.basis))


def own_rank(rep, w: Subspace, blocks) -> int:
    """Rank of the stacked ``own_blocks``, dim W - dim ``divide_own``,
    without building the quotient."""
    return linalg.matrix_rank(rep.field, _stacked(rep, w, blocks))


def _stacked(rep, w: Subspace, blocks) -> np.ndarray:
    return np.vstack(blocks) if blocks else linalg.zeros(rep.field, 0, w.dim)


@dataclass
class ValidationReport:
    checks: list = dc_field(default_factory=list)  # (name, passed, detail)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c[1]]


def validate_rep(rep) -> ValidationReport:
    """Consistency checks on a representation's data: the form's own checks
    (``rep.add_checks``), which are table symmetry and surjectivity of the
    multiplication map in table form and the rank of A_V in point-value form.
    The dimensions are set by the constructors and not checked again.
    Ideal-saturation/smoothness certification is out of scope; a passing
    report means the data is consistent, not that it provably comes from a
    smooth curve.
    """
    report = ValidationReport()
    rep.add_checks(report)
    return report
