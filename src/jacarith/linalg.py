"""Exact dense linear algebra over F_p.

Matrices are numpy arrays of canonical residues; no floating point anywhere.
For moduli up to 2^20 the arrays are int64; for larger moduli we fall back
to object arrays of Python ints, which are exact at any size.

Every F_p matrix product in the engine is made here: ``mat_mul`` for matrix
and matrix-vector products, ``combine`` for a combination of tables.
``inverses`` inverts a vector entrywise.  An int64 product of inner
dimension k sums k terms below (p-1)^2 each, so it is exact when
k * (p-1)^2 < 2^63, which holds for every p <= 2^20 when k < 2^23.  No
caller comes near that k, so the products do not check it.

One Gaussian elimination loop (``_eliminate``) serves rref, rank and both
kernels; one read-off (``_read_off``) turns an rref, or a canonical basis
as it stands, into its kernel.  The elimination reduces lazily: a pivot
step reduces only the pivot column, the pivot row and the multipliers, and
the rest of the matrix is reduced once at the end.  A step subtracts less
than p^2 from an entry, so entries stay below min(m, n) * (p-1)^2 + p in
absolute value.  For every prime p <= 2^20 that is below 2^63 when
min(m, n) < 8,388,672; each elimination checks it.

Subspaces of F_p^N are always stored canonically: the basis matrix is in
reduced column echelon form (pivot rows strictly increasing, pivots 1, pivot
rows zero elsewhere), so subspace equality is a bit-exact array comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField

_INT64_MODULUS_LIMIT = 1 << 20


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


def dtype_for(field: PrimeField):
    return np.int64 if field.p <= _INT64_MODULUS_LIMIT else object


def zeros(field: PrimeField, m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=dtype_for(field))


def identity(field: PrimeField, n: int) -> np.ndarray:
    return np.eye(n, dtype=dtype_for(field))


def mat_mul(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return a.dot(b) % field.p


def combine(field: PrimeField, c: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """sum_i c_i * tables[i] mod p."""
    return np.tensordot(c, tables, axes=(0, 0)) % field.p


def inverses(field: PrimeField, v: np.ndarray) -> np.ndarray:
    """Entrywise inverses mod p, with 0 where v is 0."""
    return np.array([pow(int(x), -1, field.p) if x else 0 for x in v], dtype=v.dtype)


def _eliminate(field: PrimeField, a: np.ndarray, full: bool) -> tuple[np.ndarray, list[int]]:
    """Gaussian elimination with delayed reduction: (matrix, pivot columns).

    With ``full`` the matrix is the reduced row echelon form; without it
    only entries below the pivots are cleared (enough for the rank) and the
    matrix is left unreduced.  Until the first update the matrix is still
    reduced, so the per-step reductions wait for it: update-free matrices
    pay nothing for them.
    """
    p = field.p
    r = np.array(a, dtype=dtype_for(field)) % p
    m, n = r.shape
    if r.dtype != object and min(m, n) * (p - 1) ** 2 + p >= 1 << 63:
        raise OverflowError(f"{m}x{n} elimination mod {p} could overflow int64")
    pivots: list[int] = []
    dirty = False  # whether some entry may lie outside [0, p)
    row = 0
    for col in range(n):
        if row == m:
            break
        if dirty:
            r[0 if full else row:, col] %= p
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            # left of col both rows are zero (full) or never read again (rank)
            r[[row, i], col:] = r[[i, row], col:]
        prow = r[row, col:]  # a view: the pivot row is reduced and scaled in place
        if dirty:
            prow %= p
        inv = pow(int(prow[0]), -1, p)
        if full:
            if inv != 1:
                prow *= inv
                prow %= p
            factors = r[:, col].copy()
            factors[row] = 0
            top = 0
        else:
            top = row + 1
            factors = r[top:, col] * inv % p
        if np.count_nonzero(factors):
            r[top:, col:] -= factors[:, None] * prow
            dirty = True
        pivots.append(col)
        row += 1
    if dirty and full:
        r %= p
    return r, pivots


def rref(field: PrimeField, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
    return _eliminate(field, a, full=True)


def matrix_rank(field: PrimeField, a: np.ndarray) -> int:
    """Rank by forward elimination only (cheaper than full rref)."""
    return len(_eliminate(field, a, full=False)[1])


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of F_p^N with a canonical reduced-column-echelon basis."""

    field: PrimeField
    ambient: int
    basis: np.ndarray  # ambient x dim, canonical; dim may be 0

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def pivot_rows(self) -> np.ndarray:
        """Row of each column's pivot: its first nonzero entry (a 1)."""
        return np.argmax(self.basis != 0, axis=0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def full_subspace(field: PrimeField, ambient: int) -> Subspace:
    return Subspace(field, ambient, identity(field, ambient))


def column_echelon(field: PrimeField, a: np.ndarray) -> Subspace:
    """Canonical basis of the column space of a."""
    r, pivots = rref(field, a.T)
    basis = r[: len(pivots)].T.copy()
    return Subspace(field, a.shape[0], basis)


def kernel_basis(field: PrimeField, a: np.ndarray) -> Subspace:
    """Canonical basis of {v : a v = 0}; dim = cols - rank.

    One elimination: on a with its columns reversed, the kernel vector of
    free column f has a 1 at f, zeros at the other free columns and nonzero
    entries only at pivot columns before f.  Reflected back, these vectors
    are the reduced column echelon form, with the free columns as pivot rows.
    """
    r, pivots = rref(field, a[:, ::-1])
    k = _read_off(field, r[: len(pivots)].T, pivots)
    return Subspace(field, a.shape[1], k[::-1, ::-1].T.copy())


def left_kernel_rows(field: PrimeField, a: np.ndarray) -> np.ndarray:
    """Rows spanning {w : w a = 0}; shape (rows - rank) x rows."""
    r, pivots = rref(field, a.T)
    return _read_off(field, r[: len(pivots)].T, pivots)


def constraint_rows(field: PrimeField, s: Subspace) -> np.ndarray:
    """A matrix K with ker K = the subspace (K has full row rank): the
    ``left_kernel_rows`` of W, read off its canonical basis."""
    return _read_off(field, s.basis, s.pivot_rows.tolist())


def _read_off(field: PrimeField, basis: np.ndarray, pivots) -> np.ndarray:
    """Left kernel of a reduced column echelon basis with pivot rows
    ``pivots``: for each free row f in turn, e_f - basis[f, :] placed at the
    pivot rows (basis[pivots] is the identity, so each row kills it)."""
    n = basis.shape[0]
    pivot_set = set(pivots)
    free = [f for f in range(n) if f not in pivot_set]
    rows = zeros(field, len(free), n)
    rows[range(len(free)), free] = 1
    rows[:, pivots] = -basis[free] % field.p
    return rows


def contains_vector(s: Subspace, v: np.ndarray) -> bool:
    if v.shape[0] != s.ambient:
        raise DimensionMismatch("vector does not live in the ambient space")
    ks = constraint_rows(s.field, s)
    if ks.shape[0] == 0:
        return True
    return not np.count_nonzero(mat_mul(s.field, ks, v))

