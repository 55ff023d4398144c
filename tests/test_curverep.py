from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import jacarith as ja
from jacarith import curverep, linalg


def _unit(n, k, dtype=np.int64):
    v = np.zeros(n, dtype=dtype)
    v[k] = 1
    return v


def _random_matrix(field, m, n, rng):
    a = linalg.zeros(field, m, n)
    for i in range(m):
        for j in range(n):
            a[i, j] = rng.randrange(field.p)
    return a


def _zero_subspace(field, ambient):
    return linalg.Subspace(field, ambient, linalg.zeros(field, ambient, 0))


def _random_vec(rep, rng):
    return np.array([rng.randrange(rep.field.p) for _ in range(rep.n)],
                    dtype=linalg.dtype_for(rep.field))


def test_fixture_products_exact(fixture_bundle):
    rep = fixture_bundle.rep_a
    t = lambda i: _unit(rep.delta, i - 1)
    u = lambda k: _unit(rep.delta_prime, k - 1)
    assert np.array_equal(ja.product(rep, t(2), t(3)), u(5))
    assert np.array_equal(ja.product(rep, t(3), t(3)), (u(1) + u(6)) % rep.field.p)
    for j in range(1, rep.delta + 1):
        assert np.array_equal(ja.product(rep, t(1), t(j)), u(j))


def test_fixture_mult_matrix_is_stored_table(fixture_bundle):
    rep = fixture_bundle.rep_a
    m1 = ja.mult_matrix(rep, _unit(rep.delta, 0))
    assert np.array_equal(m1, rep.tables[0])


def test_product_zero_and_dimension_errors(fixture_bundle):
    rep = fixture_bundle.rep_a
    z = np.zeros(rep.delta, dtype=np.int64)
    assert not np.count_nonzero(ja.product(rep, _unit(rep.delta, 1), z))
    with pytest.raises(ja.DimensionMismatch):
        ja.product(rep, np.zeros(3, dtype=np.int64), z)


def test_mult_matrix_matches_product(bundle_g2):
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("mm-check")
    for _ in range(100):
        s, u = _random_vec(rep, rng), _random_vec(rep, rng)
        assert np.array_equal(ja.mult_matrix(rep, s).dot(u) % rep.field.p,
                              ja.product(rep, s, u))


def test_bilinearity_and_commutativity(bundle_g2):
    rep = bundle_g2.rep_a
    p = rep.field.p
    rng = ja.RandomStream("bilin")
    for _ in range(50):
        s, t, u = (_random_vec(rep, rng) for _ in range(3))
        a = rng.randrange(p)
        lhs = ja.product(rep, (a * s + t) % p, u)
        rhs = (a * ja.product(rep, s, u) + ja.product(rep, t, u)) % p
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(ja.product(rep, s, u), ja.product(rep, u, s))


def test_simple_mul_preserves_dim(bundle_g2):
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("smul")
    for i in range(100):
        r = rng.split(i)
        w = ja.column_echelon(rep.field,
                              _random_matrix(rep.field, rep.n, r.randint(1, 6), r))
        s = _random_vec(rep, r)
        if not np.count_nonzero(s):
            continue
        assert ja.simple_mul(rep, s, w).dim == w.dim


def test_simple_mul_dimension_law_is_a_typed_error(bundle_g2, monkeypatch):
    rep = bundle_g2.rep_a
    w = rep.full_v()
    monkeypatch.setattr(linalg, "column_echelon",
                        lambda field, a: _zero_subspace(field, a.shape[0]))
    with pytest.raises(curverep.DegreeLawViolation):
        ja.simple_mul(rep, w.basis[:, 0].copy(), w)


def test_simple_mul_zero_section_and_zero_space(bundle_g2):
    rep = bundle_g2.rep_a
    with pytest.raises(ja.ZeroSection):
        ja.simple_mul(rep, np.zeros(rep.n, dtype=np.int64), rep.full_v())
    s = _unit(rep.delta, 0)
    out = ja.simple_mul(rep, s, _zero_subspace(rep.field, rep.n))
    assert out.dim == 0


def test_section_times_v_has_codim_delta(bundle_g2):
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("codim")
    for _ in range(20):
        s = _random_vec(rep, rng)
        if not np.count_nonzero(s):
            continue
        sv = ja.simple_mul(rep, s, rep.full_v())
        assert rep.delta_prime - sv.dim == rep.Delta


def test_sum_of_products_trivia(bundle_g2):
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("sop")
    w = ja.column_echelon(rep.field, _random_matrix(rep.field, rep.n, 4, rng))
    s = _random_vec(rep, rng)
    assert ja.sum_of_products(rep, [s], w) == ja.simple_mul(rep, s, w)
    assert ja.sum_of_products(rep, [s, s], w) == ja.simple_mul(rep, s, w)
    with pytest.raises(ja.AllZeroSections):
        ja.sum_of_products(rep, [np.zeros(rep.n, dtype=np.int64)], w)


def test_basis_sum_of_products_codim_is_degree(bundle_g2, model_g2):
    # a basis of a base-point-free W_D generates D, so the sum of products
    # against V has codimension deg D in V'
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("basis-igs")
    for i in range(10):
        m = ja.random_mumford(bundle_g2.curve, rng.split(i))
        d = ja.mumford_to_point(model_g2, m).space
        sections = [d.basis[:, j] for j in range(d.dim)]
        got = ja.sum_of_products(rep, sections, rep.full_v())
        assert rep.delta_prime - got.dim == ja.degree(rep, d)


def test_divide_identities(bundle_g2):
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("div")
    s = _random_vec(rep, rng)
    while not np.count_nonzero(s):
        s = _random_vec(rep, rng)
    sv = ja.simple_mul(rep, s, rep.full_v())
    assert ja.divide(rep, sv, [s]) == rep.full_v()
    vprime = linalg.full_subspace(rep.field, rep.n_prime)
    assert ja.divide(rep, vprime, [s]) == rep.full_v()
    for i in range(20):
        r = rng.split(i)
        w = ja.column_echelon(rep.field,
                              _random_matrix(rep.field, rep.n, r.randint(1, 7), r))
        assert ja.divide(rep, ja.simple_mul(rep, s, w), [s]) == w
    with pytest.raises(ja.AllZeroSections):
        ja.divide(rep, sv, [np.zeros(rep.n, dtype=np.int64)])


def test_validate_rep_flags_failures(fixture_bundle):
    rep = fixture_bundle.rep_a
    assert ja.validate_rep(rep).passed

    broken = rep.tables.copy()
    broken[0, :, 1] = (broken[0, :, 1] + 1) % rep.field.p  # c_12k != c_21k
    r = ja.validate_rep(ja.RepA(rep.field, rep.g, rep.Delta, broken))
    assert any("symmetry" in name for name, ok, _ in r.checks if not ok)

    squashed = rep.tables.copy()
    squashed[:, -1, :] = 0
    r = ja.validate_rep(ja.RepA(rep.field, rep.g, rep.Delta, squashed))
    assert any("surjective" in name for name, ok, _ in r.checks if not ok)


@pytest.fixture(scope="module")
def b0_bundle():
    bundle = ja.gen_hyperelliptic(2, 1009, rng=ja.RandomStream("b0-curve"))
    return ja.gen_rep_b0(bundle, ja.RandomStream("b0-points"))


def test_repb0_product_is_pointwise(b0_bundle):
    rep = b0_bundle.rep_b0
    cols = {(xd, yd): j for j, (xd, yd, _) in enumerate(b0_bundle.v_monomials)}
    xs = rep.a_v[:, cols[(1, 0)]]  # value vector of the section "x"
    ys = rep.a_v[:, cols[(0, 1)]]  # value vector of the section "y"
    got = ja.product(rep, xs, ys)
    assert np.array_equal(got, xs * ys % rep.field.p)
    for n, (px, py) in enumerate(rep.points):
        assert int(got[n]) == px * py % rep.field.p


def test_evaluation_intertwines_products(b0_bundle):
    from jacarith.hyperelliptic import _value_matrix, basis_monomials
    bundle = b0_bundle
    rep_a, rep_b = bundle.rep_a, bundle.rep_b0
    vp = basis_monomials(bundle.curve, 2 * bundle.Delta)
    a_vp = _value_matrix(bundle.curve, bundle.field, vp, rep_b.points)
    rng = ja.RandomStream("intertwine")
    for _ in range(25):
        s, u = _random_vec(rep_a, rng), _random_vec(rep_a, rng)
        lhs = a_vp.dot(ja.product(rep_a, s, u)) % bundle.field.p
        rhs = ja.product(rep_b, bundle.to_b0_vector(s), bundle.to_b0_vector(u))
        assert np.array_equal(lhs, rhs)


def test_repb0_divide_inverts_simple_mul(b0_bundle):
    rep = b0_bundle.rep_b0
    rng = ja.RandomStream("b0-div")
    full = rep.full_v()
    s = b0_bundle.to_b0_vector(_random_vec(b0_bundle.rep_a, rng))
    for i in range(10):
        r = rng.split(i)
        cols = sorted({r.randrange(full.dim) for _ in range(4)})
        w = ja.column_echelon(rep.field, full.basis[:, cols])
        assert ja.divide(rep, ja.simple_mul(rep, s, w), [s]) == w


@pytest.mark.parametrize("form", ["a", "b0"])
def test_divide_runs_one_elimination(b0_bundle, form):
    # K_W' is read off the canonical W', so the one rref is the kernel of the
    # stacked blocks (once full_v() is cached)
    rep = b0_bundle.rep_a if form == "a" else b0_bundle.rep_b0
    full = rep.full_v()
    rng = ja.RandomStream(f"one-elimination-{form}")
    for i in range(5):
        r = rng.split(i)
        s, t = (b0_bundle.to_b0_vector(_random_vec(b0_bundle.rep_a, r)) if form == "b0"
                else _random_vec(rep, r) for _ in range(2))
        cols = sorted({r.randrange(full.dim) for _ in range(3)})
        w = ja.column_echelon(rep.field, full.basis[:, cols])
        wp = ja.simple_mul(rep, s, w)
        with mock.patch.object(linalg, "rref", wraps=linalg.rref) as rref:
            ja.divide(rep, wp, [s, t])
        assert rref.call_count == 1


# Division on the point-value form solves in coordinates over full_v().  The
# reference below is the value-coordinate formulation it replaced: the
# kernel of [K_V; K_W' * diag(s_i)] in all N coordinates, where the K_V rows
# force the answer into V.

_B0_REPS = {}


def _b0_rep(g, p):
    if (g, p) not in _B0_REPS:
        bundle = ja.gen_hyperelliptic(g, p, rng=ja.RandomStream(f"ref-div-{g}-{p}"))
        _B0_REPS[g, p] = ja.gen_rep_b0(bundle, ja.RandomStream(f"ref-div-pts-{g}-{p}")).rep_b0
    return _B0_REPS[g, p]


def _reference_division(rep, wp_basis, sections):
    p = rep.field.p
    kw = linalg.left_kernel_rows(rep.field, wp_basis)
    live = [s for s in sections if np.count_nonzero(s)]
    k_v = linalg.left_kernel_rows(rep.field, rep.a_v)
    stack = np.vstack([k_v] + [kw * s[None, :] % p for s in live])
    return linalg.kernel_basis(rep.field, stack), linalg.matrix_rank(rep.field, stack) < rep.n


def _draw_matrix(data, field, rows, cols):
    entries = data.draw(st.lists(st.integers(0, field.p - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    out = linalg.zeros(field, rows, cols)
    for k, x in enumerate(entries):
        out[k // cols, k % cols] = x
    return out


def _draw_in_v(data, rep, cols):
    """cols elements of V as value vectors: E times drawn coordinates."""
    e = rep.full_v().basis
    return e.dot(_draw_matrix(data, rep.field, rep.delta, cols)) % rep.field.p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_repb0_division_matches_value_coordinate_reference(data):
    rep = _b0_rep(data.draw(st.sampled_from((2, 3))),
                  data.draw(st.sampled_from((1009, 2**31 - 1))))
    field, p = rep.field, rep.field.p
    h = data.draw(st.integers(1, 3))
    sections = list(_draw_in_v(data, rep, h).T)
    # W' = (some of the s_i) * W + extra vectors, so quotients are often nonzero
    w = _draw_in_v(data, rep, data.draw(st.integers(0, rep.delta)))
    used = data.draw(st.integers(0, h))
    extra = _draw_matrix(data, field, rep.n, data.draw(st.integers(0, 3)))
    raw = np.hstack([s[:, None] * w % p for s in sections[:used]] + [extra])
    wp = linalg.column_echelon(field, raw)
    if not any(np.count_nonzero(s) for s in sections):
        with pytest.raises(ja.AllZeroSections):
            ja.divide(rep, wp, sections)
        return
    want, want_nonzero = _reference_division(rep, raw, sections)
    got = ja.divide(rep, wp, sections)
    assert got.ambient == rep.n and got.basis.dtype == linalg.dtype_for(field)
    assert got == want
    assert want_nonzero == (want.dim > 0)


# Own-section division: (s*W)/{s, t_2, ..., t_h} for s the first canonical
# column of W, against divide on the same dividend.  The point-value form
# needs 2*Delta + 1 rational points, which F_2 does not have.

_OWN_REPS = {}


def _own_rep(form, p):
    if (form, p) not in _OWN_REPS:
        bundle = ja.gen_hyperelliptic(2, p, rng=ja.RandomStream(f"own-{p}"))
        if form == "b0":
            bundle = ja.gen_rep_b0(bundle, ja.RandomStream(f"own-pts-{p}"))
        _OWN_REPS[form, p] = bundle.rep_b0 if form == "b0" else bundle.rep_a
    return _OWN_REPS[form, p]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divide_own_matches_divide(data):
    form, p = data.draw(st.sampled_from(
        [("a", 2), ("a", 1009), ("a", 2**31 - 1), ("b0", 1009), ("b0", 2**31 - 1)]))
    rep = _own_rep(form, p)
    field = rep.field
    e = rep.full_v().basis
    coords = _draw_matrix(data, field, rep.delta, data.draw(st.integers(1, rep.delta)))
    w = linalg.column_echelon(field, e.dot(coords) % p)
    if w.dim == 0:
        return
    # t_i from W (s itself always lies in the quotient), from V, or zero
    sections = [w.basis[:, 0].copy()]
    for _ in range(data.draw(st.integers(0, 3))):
        space = data.draw(st.sampled_from((w, rep.full_v())))
        sections.append(space.basis.dot(_draw_matrix(data, field, space.dim, 1))[:, 0] % p)
    s_w = ja.simple_mul(rep, sections[0], w)
    want = ja.divide(rep, s_w, sections)
    blocks = curverep.own_blocks(rep, w, sections)
    got = curverep.divide_own(rep, w, blocks)
    assert got.ambient == rep.n and got.basis.dtype == want.basis.dtype
    assert got == want
    rank = curverep.own_rank(rep, w, blocks)
    assert rank == w.dim - want.dim
    nonzero = rank < w.dim
    if form == "b0":
        ref, ref_nonzero = _reference_division(rep, s_w.basis, sections)
        assert ref == want and ref_nonzero == nonzero


# The point-value form reads K, the left kernel of s*W, off W's canonical
# basis and never builds it: each block K*(t*W) is elementwise.  The
# reference is left_kernel_rows of s*W, by elimination, and the rows of the
# documented formula times t*W.  s is the head of another subspace W_D
# (nonzero at W_D's pivot rows, as in a flip), or a section of V forced to
# vanish at some pivot rows of W, where K comes by elimination of s*W, as in
# table form, and its blocks are products.

def _formula_rows(rep, s, w):
    """Row f = e_f - s_f*W[f, :]*diag(s_P)^{-1} at the pivot rows P."""
    p, pivots = rep.field.p, w.pivot_rows
    free = np.delete(np.arange(rep.n), pivots)
    rows = linalg.zeros(rep.field, len(free), rep.n)
    rows[range(len(free)), free] = 1
    for k, pr in enumerate(pivots):
        inv = pow(int(s[pr]), -1, p)
        for i, f in enumerate(free):
            rows[i, pr] = -int(s[f]) * int(w.basis[f, k]) * inv % p
    return rows


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_repb0_own_kernel_matches_elimination(data):
    rep = _b0_rep(data.draw(st.sampled_from((2, 3))),
                  data.draw(st.sampled_from((1009, 2**31 - 1))))
    field, p = rep.field, rep.field.p
    e = rep.full_v().basis
    w = linalg.column_echelon(field, _draw_in_v(data, rep, data.draw(st.integers(1, rep.delta))))
    assume(w.dim > 0)
    if data.draw(st.booleans()):
        w_d = linalg.column_echelon(
            field, _draw_in_v(data, rep, data.draw(st.integers(1, rep.delta))))
        assume(w_d.dim > 0)
        s = rep.head(w_d)
        assert (s[w_d.pivot_rows] == 1).all() and linalg.contains_vector(w_d, s)
    else:
        zeros = data.draw(st.lists(st.sampled_from(w.pivot_rows.tolist()), min_size=1,
                                   max_size=rep.delta - 1, unique=True))
        c = linalg.kernel_basis(field, e[zeros])
        s = e.dot(c.basis.dot(_draw_matrix(data, field, c.dim, 1))[:, 0] % p) % p
        assume(np.count_nonzero(s))
        assert not np.count_nonzero(s[zeros])
    read_off = bool(s[w.pivot_rows].all())
    # t from W, from V, and t = 0, which own_blocks skips
    ts = [w.basis.dot(_draw_matrix(data, field, w.dim, 1))[:, 0] % p,
          _draw_in_v(data, rep, 1)[:, 0], np.zeros(rep.n, dtype=linalg.dtype_for(field))]
    s_w = rep.apply_mul(s, w.basis)
    want = linalg.left_kernel_rows(field, s_w)
    with mock.patch.object(linalg, "left_kernel_rows", wraps=linalg.left_kernel_rows) as lk, \
            mock.patch.object(curverep, "_apply_mul", wraps=curverep._apply_mul) as mul:
        k = curverep.own_kernel(rep, s, w)
        blocks = curverep.own_blocks(rep, w, [s] + ts, k)
    # the elimination, s*W and every block's product run only where s
    # vanishes at a pivot row of W
    assert lk.called == (not read_off)
    live = [t for t in ts if np.count_nonzero(t)]
    assert mul.call_count == (0 if read_off else len(live) + 1)
    rows = _formula_rows(rep, s, w) if read_off else k.rows
    assert rows.shape == want.shape == (rep.n - w.dim, rep.n)
    assert rows.dtype == want.dtype
    assert not np.count_nonzero(rows.dot(s_w) % p)
    assert (linalg.matrix_rank(field, np.vstack([rows, want]))
            == linalg.matrix_rank(field, rows) == want.shape[0])
    assert len(blocks) == len(live)
    for t, block in zip(live, blocks):
        ref = rows.dot(rep.apply_mul(t, w.basis)) % p
        assert block.dtype == ref.dtype and np.array_equal(block, ref)


def test_own_division_needs_a_nonzero_first_section(b0_bundle):
    rep = b0_bundle.rep_b0
    zero = np.zeros(rep.n, dtype=linalg.dtype_for(rep.field))
    with pytest.raises(ja.ZeroSection):
        curverep.own_blocks(rep, rep.full_v(), [zero, rep.full_v().basis[:, 0]])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_times_canonical_is_canonical(data):
    # the division returns E*C with no re-echelon: for reduced column echelon E, C
    # the product is already the canonical basis of its span
    field = ja.make_prime_field(data.draw(st.sampled_from((2, 1009, 2**31 - 1))))
    n = data.draw(st.integers(1, 8))
    e = linalg.column_echelon(field, _draw_matrix(data, field, n, data.draw(st.integers(0, n))))
    c = linalg.column_echelon(
        field, _draw_matrix(data, field, e.dim, data.draw(st.integers(0, e.dim))))
    ec = e.basis.dot(c.basis) % field.p
    assert ec.shape == (n, c.dim)
    assert np.array_equal(ec, linalg.column_echelon(field, ec).basis)
