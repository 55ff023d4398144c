import pytest

import jacarith as ja
import jacarith.poly as poly
from jacarith import cantor


def test_neutral_laws(bundle_g2):
    curve = bundle_g2.curve
    rng = ja.RandomStream("neutral")
    for i in range(20):
        a = ja.random_mumford(curve, rng.split(i))
        assert ja.cantor_add(curve, a, ja.neutral()) == a
        assert ja.cantor_add(curve, a, ja.cantor_negate(curve, a)) == ja.neutral()


def test_random_mumford_reduced(bundle_g2):
    curve = bundle_g2.curve
    rng = ja.RandomStream("reduced")
    classes = set()
    for i in range(50):
        m = ja.random_mumford(curve, rng.split(i))
        assert cantor.is_reduced(curve, m)
        assert poly.deg(m.u) <= curve.g
        classes.add((m.u, m.v))
    assert len(classes) > 45  # collisions are rare at p = 1009


def test_cantor_commutative_associative(bundle_g2):
    curve = bundle_g2.curve
    rng = ja.RandomStream("ca")
    for i in range(20):
        a = ja.random_mumford(curve, rng.split(f"a{i}"))
        b = ja.random_mumford(curve, rng.split(f"b{i}"))
        c = ja.random_mumford(curve, rng.split(f"c{i}"))
        assert ja.cantor_add(curve, a, b) == ja.cantor_add(curve, b, a)
        lhs = ja.cantor_add(curve, ja.cantor_add(curve, a, b), c)
        rhs = ja.cantor_add(curve, a, ja.cantor_add(curve, b, c))
        assert lhs == rhs


def _ec_add(f, p, pt1, pt2):
    """Independent chord-tangent addition on y^2 = x^3 + c2 x^2 + c1 x + c0."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    (x1, y1), (x2, y2) = pt1, pt2
    c0, c1, c2, _ = f
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if pt1 == pt2:
        lam = (3 * x1 * x1 + 2 * c2 * x1 + c1) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - c2 - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def _to_point(m, p):
    if m == ja.neutral():
        return None
    a = (-m.u[0]) % p
    b = m.v[0] % p if m.v else 0
    return (a, b)


def test_genus_one_matches_chord_tangent(bundle_g1):
    curve = bundle_g1.curve
    p = curve.p
    rng = ja.RandomStream("ec")
    for i in range(100):
        a = ja.random_mumford(curve, rng.split(f"a{i}"))
        b = ja.random_mumford(curve, rng.split(f"b{i}"))
        got = _to_point(ja.cantor_add(curve, a, b), p)
        want = _ec_add(curve.f, p, _to_point(a, p), _to_point(b, p))
        assert got == want


def test_bridge_neutral_is_stored_identity(model_g2):
    pt = ja.mumford_to_point(model_g2, ja.neutral())
    assert pt.space == model_g2.W_D0


def test_bridge_codim_and_membership(bundle_g2, model_g2):
    rng = ja.RandomStream("bridge")
    rep = bundle_g2.rep_a
    for i in range(30):
        m = ja.random_mumford(bundle_g2.curve, rng.split(i))
        pt = ja.mumford_to_point(model_g2, m)
        assert pt.space.dim == rep.delta - model_g2.d
    m = ja.random_mumford(bundle_g2.curve, rng.split("m"))
    pt = ja.mumford_to_point(model_g2, m)
    assert ja.membership_test(rep, pt.space, model_g2.defl_v, rng.split("t"))


def test_bridge_rejects_foreign_data(bundle_g2, model_g2):
    bad = ja.MumfordDivisor((5, 1), (3,))
    if not cantor.is_reduced(bundle_g2.curve, bad):
        with pytest.raises(ja.CurveMismatch):
            ja.mumford_to_point(model_g2, bad)
    deep = ja.MumfordDivisor((1, 0, 0, 1), (0,))  # deg u > g
    with pytest.raises(ja.CurveMismatch):
        ja.mumford_to_point(model_g2, deep)


def test_bridge_is_homomorphism(bundle_g2, model_g2):
    curve = bundle_g2.curve
    rng = ja.RandomStream("hom")
    for i in range(10):
        a = ja.random_mumford(curve, rng.split(f"a{i}"))
        b = ja.random_mumford(curve, rng.split(f"b{i}"))
        lhs = ja.mumford_to_point(model_g2, ja.cantor_add(curve, a, b))
        rhs = ja.add(model_g2,
                     ja.mumford_to_point(model_g2, a),
                     ja.mumford_to_point(model_g2, b),
                     rng.split(f"r{i}"))
        assert ja.equal_class(model_g2, lhs, rhs)


def test_oracle_compare_negative_control(bundle_g2, model_g2):
    rng = ja.RandomStream("negctl")
    m1 = ja.random_mumford(bundle_g2.curve, rng.split("m1"))
    m2 = ja.random_mumford(bundle_g2.curve, rng.split("m2"))
    if m1 == m2:
        return
    x = ja.mumford_to_point(model_g2, m1)
    assert ja.oracle_compare(model_g2, x, m1)
    assert not ja.oracle_compare(model_g2, x, m2)


def test_scalar_matches_repeated_add(bundle_g1, model_g1):
    curve = bundle_g1.curve
    rng = ja.RandomStream("scalar")
    m = ja.random_mumford(curve, rng.split("m"))
    x = ja.mumford_to_point(model_g1, m)
    for n in (2, 7, 12):
        got = ja.scalar_mul(model_g1, n, x, rng.split(f"n{n}"))
        assert ja.oracle_compare(model_g1, got, ja.cantor_scalar(curve, n, m))


def test_cantor_scalar_matches_the_n_fold_sum(bundle_g2):
    curve = bundle_g2.curve
    m = ja.random_mumford(curve, ja.RandomStream("n-fold"))
    for n in (0, 1, -1, 2, 3, 12, 50):
        a, k = (m, n) if n >= 0 else (ja.cantor_negate(curve, m), -n)
        want = ja.neutral()
        for _ in range(k):
            want = ja.cantor_add(curve, want, a)
        assert ja.cantor_scalar(curve, n, m) == want


def test_large_bridge(bundle_g2, model_g2):
    rng = ja.RandomStream("large-bridge")
    m = ja.random_mumford(bundle_g2.curve, rng.split("m"))
    pt = ja.mumford_to_point(model_g2, m, ja.LARGE)
    assert pt.tag == ja.LARGE
    assert ja.degree(bundle_g2.rep_a, pt.space) == 2 * model_g2.d
    # negation of the large point matches the negated class, small side
    neg = ja.negate(model_g2, pt, rng.split("n"))
    assert ja.oracle_compare(model_g2, neg, ja.cantor_negate(bundle_g2.curve, m))


def test_oracle_requires_odd_characteristic():
    b2 = ja.gen_hyperelliptic(2, 2, rng=ja.RandomStream("even"))
    with pytest.raises(ja.BadCharacteristic):
        ja.random_mumford(b2.curve, ja.RandomStream(0))


def test_semireduced_space_tests_the_curve_equation_over_f2():
    # on y^2 + y = x^5 + x^4 + x^3, (0, 1) is a curve point and (1, 1) is
    # not, though v^2 - f vanishes at both: the test is u | v^2 + h v - f
    bundle = ja.gen_hyperelliptic(2, 2, rng=ja.RandomStream("c2"))
    assert bundle.curve.f == (0, 0, 0, 1, 1, 1) and bundle.curve.h == (1,)
    model = bundle.large_model(ja.RandomStream("c2-model"), compute_defl_v=False)
    out = ja.semireduced_space(model, (0, 1), (1,), 3)
    assert ja.degree(model.rep, out) == 3
    # every section of W_D vanishes at (0, 1), where x^a y^e is 1 for a = 0
    at_point = [j for j, (a, _, _) in enumerate(bundle.v_monomials) if a == 0]
    assert not (out.basis[at_point].sum(axis=0) % 2).any()
    with pytest.raises(ja.CurveMismatch, match=r"u \| v\^2 \+ h v - f"):
        ja.semireduced_space(model, (1, 1), (1,), 3)


def test_cantor_add_off_curve_pair_is_a_typed_error(bundle_g1):
    # (x - 1, c) with c^2 != f(1) looks reduced but is not on the curve; its
    # composition with a true class reaches the reduction step, whose exact
    # division by u must fail with a typed error (not an assert)
    curve = bundle_g1.curve
    p = curve.p
    c = 0 if poly.evaluate(curve.f, 1, p) else 1
    bad = cantor.MumfordDivisor((p - 1, 1), (c,))
    rng = ja.RandomStream("off-curve")
    good = next(m for m in (ja.random_mumford(curve, rng.split(i)) for i in range(20))
                if m.u != bad.u)
    with pytest.raises(cantor.CurveMismatch, match="reduction step"):
        ja.cantor_add(curve, bad, good)
