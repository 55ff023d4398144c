import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import jacarith as ja
from jacarith import linalg


def _rand(field, m, n, rng):
    a = linalg.zeros(field, m, n)
    for i in range(m):
        for j in range(n):
            a[i, j] = rng.randrange(field.p)
    return a


def _random_invertible(field, n, rng):
    while True:
        a = _rand(field, n, n, rng)
        if linalg.matrix_rank(field, a) == n:
            return a


def test_mat_mul_against_triple_loop():
    field = ja.make_prime_field(7)
    rng = ja.RandomStream("mm")
    for _ in range(20):
        a = _rand(field, 5, 5, rng)
        b = _rand(field, 5, 5, rng)
        got = ja.mat_mul(field, a, b)
        want = np.zeros((5, 5), dtype=np.int64)
        for i in range(5):
            for j in range(5):
                acc = 0
                for k in range(5):
                    acc = (acc + int(a[i, k]) * int(b[k, j])) % 7
                want[i, j] = acc
        assert np.array_equal(got, want)


def test_mat_mul_identity_zero(f1009):
    rng = ja.RandomStream("idz")
    b = _rand(f1009, 4, 6, rng)
    assert np.array_equal(ja.mat_mul(f1009, linalg.identity(f1009, 4), b), b)
    assert not np.count_nonzero(ja.mat_mul(f1009, b, linalg.zeros(f1009, 6, 3)))


def test_mat_mul_dimension_mismatch(f1009):
    with pytest.raises(ja.DimensionMismatch):
        ja.mat_mul(f1009, linalg.zeros(f1009, 2, 3), linalg.zeros(f1009, 4, 2))


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
def test_combine_against_explicit_sum(p):
    field = ja.make_prime_field(p)
    rng = ja.RandomStream(f"combine-{p}")
    tables = np.stack([_rand(field, 3, 4, rng) for _ in range(5)])
    c = _rand(field, 1, 5, rng)[0]
    got = linalg.combine(field, c, tables)
    assert got.dtype == linalg.dtype_for(field)
    for i in range(3):
        for j in range(4):
            assert got[i, j] == sum(int(c[k]) * int(tables[k, i, j]) for k in range(5)) % p


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
def test_inverses_invert_nonzero_entries_and_keep_zeros(p):
    field = ja.make_prime_field(p)
    v = _rand(field, 1, 40, ja.RandomStream(f"inverses-{p}"))[0]
    v[:4] = [0, 1, 2, p - 1]
    inv = linalg.inverses(field, v)
    assert inv.dtype == v.dtype
    assert list(inv[:4]) == [0, 1, (p + 1) // 2, p - 1]
    for x, y in zip(v, inv):
        assert int(x) * int(y) % p == (1 if x else 0)


def test_column_echelon_idempotent(f1009):
    rng = ja.RandomStream("ech")
    s = ja.column_echelon(f1009, _rand(f1009, 8, 4, rng))
    again = ja.column_echelon(f1009, s.basis)
    assert again == s


def test_duplicated_column_drops_rank(f1009):
    rng = ja.RandomStream("dup")
    a = _rand(f1009, 6, 4, rng)
    doubled = np.hstack([a, a[:, :1]])
    assert ja.column_echelon(f1009, doubled).dim <= 4


def test_echelon_invariant_under_column_operations(f1009):
    rng = ja.RandomStream("gl")
    a = _rand(f1009, 7, 4, rng)
    canon = ja.column_echelon(f1009, a)
    for i in range(100):
        g = _random_invertible(f1009, 4, rng.split(i))
        assert ja.column_echelon(f1009, ja.mat_mul(f1009, a, g)) == canon


def test_kernel_identity_and_zero(f1009):
    assert ja.kernel_basis(f1009, linalg.identity(f1009, 5)).dim == 0
    k = ja.kernel_basis(f1009, linalg.zeros(f1009, 3, 6))
    assert k.dim == 6
    assert np.array_equal(k.basis, linalg.identity(f1009, 6))


def test_kernel_random():
    field = ja.make_prime_field(101)
    rng = ja.RandomStream("ker")
    for i in range(20):
        a = _rand(field, 8, 12, rng.split(i))
        k = ja.kernel_basis(field, a)
        assert not np.count_nonzero(a.dot(k.basis) % field.p)
        assert k.dim == 12 - linalg.matrix_rank(field, a)
        # canonical form: re-echelonizing is a no-op
        assert ja.column_echelon(field, k.basis) == k


def _sum(u, w):
    return ja.column_echelon(u.field, np.hstack([u.basis, w.basis]))


def _intersect(u, w):
    rows = [linalg.constraint_rows(u.field, u), linalg.constraint_rows(w.field, w)]
    return ja.kernel_basis(u.field, np.vstack(rows))


def _contains(u, w):
    ku = linalg.constraint_rows(u.field, u)
    return not np.count_nonzero(ku.dot(w.basis) % u.field.p)


def test_subspace_sum_intersect_grassmann(f1009):
    # sums by column_echelon, intersections by kernel_basis of stacked
    # constraint rows: dimensions and containments must agree
    rng = ja.RandomStream("grassmann")
    for i in range(200):
        r = rng.split(i)
        u = ja.column_echelon(f1009, _rand(f1009, 10, r.randint(1, 5), r))
        w = ja.column_echelon(f1009, _rand(f1009, 10, r.randint(1, 5), r))
        s = _sum(u, w)
        t = _intersect(u, w)
        assert s.dim + t.dim == u.dim + w.dim
        assert _contains(s, u) and _contains(s, w)
        assert _contains(u, t) and _contains(w, t)


def test_subspace_trivial_identities(f1009):
    rng = ja.RandomStream("triv")
    u = ja.column_echelon(f1009, _rand(f1009, 9, 4, rng))
    assert _sum(u, u) == u
    assert _intersect(u, u) == u


def test_left_kernel_rows(f1009):
    rng = ja.RandomStream("lk")
    a = _rand(f1009, 9, 4, rng)
    k = linalg.left_kernel_rows(f1009, a)
    assert k.shape == (9 - linalg.matrix_rank(f1009, a), 9)
    assert not np.count_nonzero(k.dot(a) % f1009.p)


def test_large_modulus_object_path():
    field = ja.make_prime_field(2**61 - 1)
    assert linalg.dtype_for(field) is object
    rng = ja.RandomStream("big")
    a = _rand(field, 4, 4, rng)
    b = _rand(field, 4, 4, rng)
    got = ja.mat_mul(field, a, b)
    for i in range(4):
        for j in range(4):
            acc = sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % field.p
            assert int(got[i, j]) == acc
    canon = ja.column_echelon(field, a)
    g = _random_invertible(field, 4, rng)
    assert ja.column_echelon(field, ja.mat_mul(field, a, g)) == canon
    k = ja.kernel_basis(field, _rand(field, 2, 5, rng))
    assert k.dim >= 3


# --- the elimination kernel against a plain per-entry Gauss-Jordan ---------

PRIMES = (2, 1009, 1048573, 2**31 - 1)  # 1048573: largest int64-path prime


def _reference_rref(rows, n, p):
    """Textbook Gauss-Jordan on lists of Python ints, one entry at a time."""
    r = [[x % p for x in row] for row in rows]
    pivots, row = [], 0
    for col in range(n):
        pick = next((i for i in range(row, len(r)) if r[i][col]), None)
        if pick is None:
            continue
        r[row], r[pick] = r[pick], r[row]
        inv = pow(r[row][col], -1, p)
        r[row] = [x * inv % p for x in r[row]]
        for i in range(len(r)):
            c = r[i][col]
            if i != row and c:
                r[i] = [(x - c * y) % p for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == len(r):
            break
    return r, pivots


def _reference_kernel_vectors(rows, n, p):
    """One vector per free column: 1 there, minus the rref entries at pivots."""
    r, pivots = _reference_rref(rows, n, p)
    vectors = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc] % p
        vectors.append(v)
    return vectors


def _reference_column_echelon(columns, ambient, p):
    r, pivots = _reference_rref(columns, ambient, p)
    return r[: len(pivots)]  # the canonical basis, one column per row


def _transpose(rows, n):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(n)]


def _as_lists(a):
    return [[int(x) for x in row] for row in a]


@st.composite
def _matrices(draw):
    """(p, rows, m, n) covering dense, sparse, zero, rank-deficient,
    zero-column and identity-like shapes, tall and wide."""
    p = draw(st.sampled_from(PRIMES))
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(
        ("dense", "sparse", "zero", "low_rank", "zero_columns", "identity_stack")))
    entry = st.integers(0, p - 1)
    if kind == "sparse":
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    elif kind == "zero":
        entry = st.just(0)
    grid = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    if kind == "low_rank":
        k = draw(st.integers(0, max(min(m, n) - 1, 0)))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                             min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=k, max_size=k))
        rows = [[sum(x * y for x, y in zip(lrow, col)) % p
                 for col in _transpose(right, n)] for lrow in left]
    elif kind == "identity_stack":
        # scaled unit rows in distinct columns plus zero rows: no column
        # ever has a second nonzero entry, so no update runs
        cols = draw(st.permutations(range(n)))[: min(m, n)]
        rows = [[0] * n for _ in range(m)]
        slots = draw(st.permutations(range(m)))
        for slot, col in zip(slots, cols):
            rows[slot][col] = draw(st.integers(1, p - 1))
    else:
        rows = draw(grid)
        if kind == "zero_columns" and n:
            dead = draw(st.sets(st.integers(0, n - 1)))
            rows = [[0 if j in dead else x for j, x in enumerate(row)] for row in rows]
    return p, rows, m, n


def _matrix(field, rows, m, n):
    a = linalg.zeros(field, m, n)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            a[i, j] = x
    return a


_REFERENCE = settings(max_examples=300, deadline=None)


def _check_rref_and_rank(p, rows, m, n):
    field = ja.make_prime_field(p)
    a = _matrix(field, rows, m, n)
    want, want_pivots = _reference_rref(rows, n, p)
    got, pivots = linalg.rref(field, a)
    assert got.shape == (m, n) and got.dtype == linalg.dtype_for(field)
    assert _as_lists(got) == want and pivots == want_pivots
    assert linalg.matrix_rank(field, a) == len(want_pivots)
    assert _as_lists(a) == rows  # the input is left alone


def _check_kernels(p, rows, m, n):
    field = ja.make_prime_field(p)
    a = _matrix(field, rows, m, n)
    vectors = _reference_kernel_vectors(rows, n, p)
    want = _reference_column_echelon(vectors, n, p)
    got = linalg.kernel_basis(field, a)
    assert got.basis.shape == (n, len(want)) and got.ambient == n
    assert _as_lists(got.basis.T) == want
    got_rows = linalg.left_kernel_rows(field, a)
    want_rows = _reference_kernel_vectors(_transpose(rows, n), m, p)
    assert got_rows.shape == (len(want_rows), m)
    assert _as_lists(got_rows) == want_rows


@_REFERENCE
@given(_matrices())
def test_rref_and_rank_match_reference(case):
    _check_rref_and_rank(*case)


@_REFERENCE
@given(_matrices())
def test_kernels_match_reference(case):
    _check_kernels(*case)


def _swaps_after_update(rows, n, p) -> bool:
    """Whether the reference elimination swaps rows at a pivot after some
    earlier pivot step has changed another row."""
    r = [[x % p for x in row] for row in rows]
    row, updated = 0, False
    for col in range(n):
        pick = next((i for i in range(row, len(r)) if r[i][col]), None)
        if pick is None:
            continue
        if pick != row and updated:
            return True
        r[row], r[pick] = r[pick], r[row]
        inv = pow(r[row][col], -1, p)
        for i in range(row + 1, len(r)):
            c = r[i][col] * inv % p
            if c:
                r[i] = [(x - c * y) % p for x, y in zip(r[i], r[row])]
                updated = True
        row += 1
    return False


@st.composite
def _matrices_with_repeats(draw):
    """(p, rows, m, n): a row, a multiple of it, then zero rows, repeated
    multiples of a few base rows and fresh rows, so that after the first
    pivot step some later pivot sits below a row the update made zero."""
    p = draw(st.sampled_from((2, 3, 1009, 2**31 - 1)))
    n = draw(st.integers(2, 9))
    entry = st.integers(0, p - 1)
    nonzero = st.integers(1, p - 1)
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=2, max_size=4))
    base[0][0] = draw(nonzero)
    rows = [base[0], [draw(nonzero) * x % p for x in base[0]]]
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("zero", "repeat", "repeat", "fresh")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat":
            scale = draw(nonzero)
            rows.append([scale * x % p for x in draw(st.sampled_from(base))])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return p, rows, len(rows), n


@_REFERENCE
@given(_matrices_with_repeats())
def test_row_swaps_after_updates_match_reference(case):
    # the pivot step swaps only the columns from the pivot on; left of it
    # the two rows are zero (full elimination) or never read again (rank)
    p, rows, m, n = case
    assume(_swaps_after_update(rows, n, p))
    _check_rref_and_rank(p, rows, m, n)
    _check_kernels(p, rows, m, n)


def test_int64_overflow_bound_is_checked(monkeypatch):
    # with the int64 path stretched to p = 2^31 - 1, two pivot steps fit
    # (2 * (p-1)^2 + p < 2^63) but three could overflow
    monkeypatch.setattr(linalg, "_INT64_MODULUS_LIMIT", 1 << 62)
    field = ja.make_prime_field(2**31 - 1)
    assert linalg.dtype_for(field) is np.int64
    assert linalg.matrix_rank(field, np.array([[3, 4, 5], [1, 1, 1]])) == 2
    with pytest.raises(OverflowError):
        linalg.rref(field, np.arange(9).reshape(3, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_constraint_rows_are_read_off_the_canonical_basis(data):
    # constraint_rows builds the rows e_f - W[f, :] without elimination; they
    # must be exactly what left_kernel_rows computes by rref, dtype included
    field = ja.make_prime_field(data.draw(st.sampled_from((2, 1009, 2**31 - 1))))
    n = data.draw(st.integers(1, 9))
    cols = data.draw(st.integers(0, n + 1))
    entries = data.draw(st.lists(st.integers(0, field.p - 1), min_size=n * cols,
                                 max_size=n * cols))
    a = linalg.zeros(field, n, cols)
    for k, x in enumerate(entries):
        a[k // cols, k % cols] = x
    s = linalg.column_echelon(field, a)
    got = linalg.constraint_rows(field, s)
    want = linalg.left_kernel_rows(field, s.basis)
    assert got.dtype == want.dtype == linalg.dtype_for(field)
    assert np.array_equal(got, want)
    assert np.array_equal(s.basis[s.pivot_rows], linalg.identity(field, s.dim))
