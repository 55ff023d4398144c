import pytest

import jacarith as ja
from jacarith import curverep, divisors, jacobian, linalg


def _pair(bundle, model, label):
    rng = ja.RandomStream(label)
    m1 = ja.random_mumford(bundle.curve, rng.split("m1"))
    m2 = ja.random_mumford(bundle.curve, rng.split("m2"))
    return (m1, m2,
            ja.mumford_to_point(model, m1),
            ja.mumford_to_point(model, m2))


def test_model_dimensions(bundle_g2, model_g2):
    assert model_g2.d == 4 and model_g2.Delta == 12
    assert bundle_g2.rep_a.delta == 11 and bundle_g2.rep_a.delta_prime == 23
    rep = bundle_g2.rep_a
    assert ja.degree(rep, model_g2.W_D0) == 4 and ja.degree(rep, model_g2.W_2D0) == 8


def test_precomp_rejections(bundle_g2):
    rep, pre = bundle_g2.precomp("a", with_cubic=False)
    rng = ja.RandomStream("rej")
    bad = jacobian.LargeModelPrecomp(d=1, w_d0=pre.w_d0, w_2d0=pre.w_2d0, s0=pre.s0)
    with pytest.raises(ja.InconsistentPrecomp):
        ja.make_large_model(rep, bad, rng)
    # s0 outside the stored spaces
    s_bad = rep.full_v().basis[:, -1].copy()
    bad = jacobian.LargeModelPrecomp(d=pre.d, w_d0=pre.w_d0, w_2d0=pre.w_2d0, s0=s_bad)
    with pytest.raises(ja.InconsistentPrecomp):
        ja.make_large_model(rep, bad, rng)
    # swapped spaces have the wrong degrees
    bad = jacobian.LargeModelPrecomp(d=pre.d, w_d0=pre.w_2d0, w_2d0=pre.w_d0, s0=pre.s0)
    with pytest.raises(ja.InconsistentPrecomp):
        ja.make_large_model(rep, bad, rng)


def test_defl_v_is_the_one_found_at_build(bundle_g2):
    # a model built without a generating set for V has none to give, even
    # when its precomputation carries one
    rng = ja.RandomStream("no-defl-v")
    model = bundle_g2.large_model(rng, compute_defl_v=False)
    with pytest.raises(ja.InconsistentPrecomp):
        model.defl_v
    rep, pre = bundle_g2.precomp("a", rng)
    assert pre.defl_v_sections is not None
    model = ja.make_large_model(rep, pre, rng, compute_defl_v=False)
    with pytest.raises(ja.InconsistentPrecomp):
        model.defl_v


def test_zero_point_laws(model_g2):
    rng = ja.RandomStream("zero")
    for tag in (ja.SMALL, ja.LARGE):
        z = ja.zero_point(model_g2, tag)
        assert ja.equal_class(model_g2, z, z)
        nz = ja.negate(model_g2, z, rng)
        assert ja.equal_class(model_g2, nz, z)
        az = ja.negate(model_g2, ja.addflip(model_g2, z, z, rng), rng)
        assert ja.equal_class(model_g2, az, z)


def test_addflip_zero_is_negation(bundle_g2, model_g2):
    rng = ja.RandomStream("afz")
    m, _, x, _ = _pair(bundle_g2, model_g2, "afz-pts")
    zero = ja.zero_point(model_g2, ja.SMALL)
    neg = ja.addflip(model_g2, x, zero, rng)
    # applying the zero-addflip twice returns to the original class
    back = ja.addflip(model_g2, neg, zero, rng)
    assert ja.equal_class(model_g2, back, x)
    assert ja.oracle_compare(model_g2, neg, ja.cantor_negate(bundle_g2.curve, m))


def test_stored_briefs_are_verified(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    assert ja.is_igs(rep, model_g2.defl_D0, model_g2.d)
    assert ja.is_igs(rep, model_g2.defl_2D0, 2 * model_g2.d)


def test_double_flip_preserves_class(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("dflip")
    for i in range(5):
        _, _, x, _ = _pair(bundle_g2, model_g2, f"df{i}")
        once = divisors.flip(rep, x.space, rng.split(f"a{i}"))
        twice = divisors.flip(rep, once, rng.split(f"b{i}"))
        assert ja.equal_class(model_g2, jacobian.JacobianPoint(ja.SMALL, twice), x)


def test_equal_class_distinguishes(bundle_g2, model_g2):
    m1, m2, x, y = _pair(bundle_g2, model_g2, "dist")
    if m1 != m2:
        assert not ja.equal_class(model_g2, x, y)
    assert ja.equal_class(model_g2, x, x)


def test_equal_class_tag_mismatch(model_g2):
    with pytest.raises(ja.TagMismatch):
        ja.equal_class(model_g2,
                       ja.zero_point(model_g2, ja.SMALL),
                       ja.zero_point(model_g2, ja.LARGE))


def test_addflip_commutes(bundle_g2, model_g2):
    rng = ja.RandomStream("comm")
    for i in range(10):
        _, _, x, y = _pair(bundle_g2, model_g2, f"comm{i}")
        a = ja.addflip(model_g2, x, y, rng.split(f"a{i}"))
        b = ja.addflip(model_g2, y, x, rng.split(f"b{i}"))
        assert ja.equal_class(model_g2, a, b)


def test_small_large_variants_agree(bundle_g2, model_g2):
    rng = ja.RandomStream("variants")
    for i in range(8):
        label = f"var{i}"
        m1, m2, xs, ys = _pair(bundle_g2, model_g2, label)
        xl = ja.mumford_to_point(model_g2, m1, ja.LARGE)
        yl = ja.mumford_to_point(model_g2, m2, ja.LARGE)
        small = ja.addflip_small(model_g2, xs, ys, rng.split(f"s{i}"))
        large = ja.addflip_large(model_g2, xl, yl, rng.split(f"l{i}"))
        # convert the small result to a large representative: flipping the
        # negation of a small point yields a large point of the same class
        neg_small = ja.negate(model_g2, small, rng.split(f"n{i}"))
        as_large = jacobian.JacobianPoint(
            ja.LARGE,
            divisors.flip(model_g2.rep, neg_small.space, rng.split(f"f{i}")))
        assert ja.equal_class(model_g2, as_large, large)


@pytest.mark.parametrize("op, tag", [(ja.addflip_large, ja.LARGE),
                                     (ja.addflip_small, ja.SMALL)])
def test_addflip_degree_law_is_a_typed_error(bundle_g2, model_g2, monkeypatch, op, tag):
    m1, m2, _, _ = _pair(bundle_g2, model_g2, "law")
    x = ja.mumford_to_point(model_g2, m1, tag)
    y = ja.mumford_to_point(model_g2, m2, tag)
    # the op's own division is an own-section one in both ops: addflip_large
    # divides s*W_D~ by y's brief form, addflip_small divides s*W_y by the
    # brief form of D~ that it deflated at s.  Flips divide s*V.
    divide = curverep.divide_own
    calls = []

    def wrong_op_division(rep, w, blocks):
        if w == rep.full_v():
            return divide(rep, w, blocks)
        # returning all of V gives the op's result degree 0
        calls.append(1)
        return rep.full_v()

    monkeypatch.setattr(curverep, "divide_own", wrong_op_division)
    with pytest.raises(curverep.DegreeLawViolation, match="degree 0"):
        op(model_g2, x, y, ja.RandomStream("law"))
    assert len(calls) == 1


def test_group_axioms_sample(bundle_g1, model_g1):
    rng = ja.RandomStream("axioms-sample")
    zero = ja.zero_point(model_g1, ja.SMALL)
    for i in range(6):
        _, _, x, y = _pair(bundle_g1, model_g1, f"ax{i}")
        r = rng.split(i)
        assert ja.equal_class(model_g1, ja.add(model_g1, x, zero, r), x)
        assert ja.equal_class(model_g1,
                              ja.add(model_g1, x, ja.negate(model_g1, x, r), r),
                              zero)
        lhs = ja.add(model_g1, ja.add(model_g1, x, y, r), x, r)
        rhs = ja.add(model_g1, x, ja.add(model_g1, y, x, r), r)
        assert ja.equal_class(model_g1, lhs, rhs)


def test_scalar_mul_distributes(bundle_g2, model_g2):
    rng = ja.RandomStream("smul")
    _, _, x, _ = _pair(bundle_g2, model_g2, "smul-pts")
    for i, (m, n) in enumerate([(3, 5), (17, 25), (0, 7)]):
        r = rng.split(i)
        lhs = ja.scalar_mul(model_g2, m + n, x, r)
        rhs = ja.add(model_g2,
                     ja.scalar_mul(model_g2, m, x, r),
                     ja.scalar_mul(model_g2, n, x, r), r)
        assert ja.equal_class(model_g2, lhs, rhs)
    assert ja.equal_class(model_g2, ja.scalar_mul(model_g2, 0, x, rng),
                          ja.zero_point(model_g2, ja.SMALL))
    minus = ja.scalar_mul(model_g2, -1, x, rng)
    assert ja.equal_class(model_g2, minus, ja.negate(model_g2, x, rng))


def test_equal_class_is_equivalence(bundle_g2, model_g2):
    rng = ja.RandomStream("equiv")
    m1, m2, x, y = _pair(bundle_g2, model_g2, "equiv-pts")
    # build a second representative of x's class via a zero round-trip
    x2 = ja.add(model_g2, x, ja.zero_point(model_g2, ja.SMALL), rng)
    assert ja.equal_class(model_g2, x, x2)
    assert ja.equal_class(model_g2, x2, x)
    x3 = ja.add(model_g2, x2, ja.zero_point(model_g2, ja.SMALL), rng)
    assert ja.equal_class(model_g2, x, x3)


@pytest.mark.parametrize("form", ["a", "b0"])
def test_small_sigma_ops_match_the_oracle(form):
    # |Sigma| = 2 gives h > 2, where the side-by-side rank of the fused flips
    # and of every deflation decides; the oracle criterion runs at h = 2 only
    bundle = ja.gen_rep_b0(ja.gen_hyperelliptic(2, 1009, rng=ja.RandomStream("sigma2")),
                           ja.RandomStream("sigma2-points"))
    field = ja.make_prime_field(1009, sigma_size=2)
    base, pre = bundle.precomp(form, with_cubic=False)
    rep = (ja.RepA(field, base.g, base.Delta, base.tables, base.bridge_info) if form == "a"
           else ja.RepB0(field, base.g, base.Delta, base.a_v, base.points, base.bridge_info))
    model = ja.make_large_model(rep, pre, ja.RandomStream("sigma2-model"), compute_defl_v=False)
    assert ja.igs_size_h(rep.Delta, 2 * model.d, 2) > 2
    # the stored brief form of 2*D_0 is drawn at s0 and verified
    assert (model.defl_2D0.sections[0] == model.s0).all()
    assert ja.is_igs(rep, model.defl_2D0, 2 * model.d)
    curve = bundle.curve
    for i in range(3):
        m1, m2, x, y = _pair(bundle, model, f"sigma2-{i}")
        r = ja.RandomStream("sigma2-ops").split(i)
        total = ja.cantor_add(curve, m1, m2)
        assert ja.oracle_compare(model, ja.addflip_small(model, x, y, r),
                                 ja.cantor_negate(curve, total))
        assert ja.oracle_compare(model, ja.add(model, x, y, r), total)
        assert ja.oracle_compare(model, ja.negate(model, x, r), ja.cantor_negate(curve, m1))
        # a large negate divides by the stored brief form of 2*D_0 at its
        # own head s0
        xl = ja.mumford_to_point(model, m1, ja.LARGE)
        assert ja.oracle_compare(model, ja.negate(model, xl, r), ja.cantor_negate(curve, m1))


@pytest.mark.parametrize("form", ["a", "b0"])
def test_addflips_take_no_rank_at_h2(form, monkeypatch):
    # at h = 2 a flip's verdict is its kernel's dimension and a division's
    # verdict is its quotient's degree, so no addflip takes a rank; the
    # operands are bridged and the results checked with ranks allowed
    bundle = ja.gen_rep_b0(ja.gen_hyperelliptic(2, 1009, rng=ja.RandomStream("norank")),
                           ja.RandomStream("norank-points"))
    model = bundle.large_model(ja.RandomStream("norank-model"), form, compute_defl_v=False)
    assert ja.igs_size_h(model.Delta, 2 * model.d, model.rep.field.sigma_size) == 2
    curve = bundle.curve
    cases = []
    for i in range(3):
        m1, m2, x, y = _pair(bundle, model, f"norank-{i}")
        xl, yl = (ja.mumford_to_point(model, m, ja.LARGE) for m in (m1, m2))
        total = ja.cantor_add(curve, m1, m2)
        cases.append((x, y, xl, yl, total, ja.RandomStream("norank-ops").split(i)))

    def no_rank(*args):
        raise AssertionError("an addflip took a rank")

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "matrix_rank", no_rank)
        got = [(ja.addflip_small(model, x, y, r.split("afs")),
                ja.addflip_large(model, xl, yl, r.split("afl")),
                ja.add(model, x, y, r.split("add")))
               for x, y, xl, yl, _, r in cases]
    for (afs, afl, add), (*_, total, _) in zip(got, cases):
        neg_total = ja.cantor_negate(curve, total)
        assert ja.oracle_compare(model, afs, neg_total)
        assert ja.oracle_compare(model, afl, neg_total)
        assert ja.oracle_compare(model, add, total)


@pytest.mark.parametrize("g, p", [(1, 1009), (2, 1009), (3, 1009), (4, 1009), (2, 2**31 - 1)])
def test_point_value_ops_match_the_oracle(g, p):
    # the point-value form heads its brief forms with the sum section and
    # reads K off the canonical basis, so its representatives differ from
    # the table form's; the classes must be Cantor's
    bundle = ja.gen_rep_b0(ja.gen_hyperelliptic(g, p, rng=ja.RandomStream(f"b0-oracle-{g}")),
                           ja.RandomStream(f"b0-oracle-points-{g}"))
    model = bundle.large_model(ja.RandomStream(f"b0-oracle-model-{g}"), "b0",
                               compute_defl_v=False)
    curve = bundle.curve
    for i in range(4):
        m1, m2, x, y = _pair(bundle, model, f"b0-oracle-{g}-{i}")
        r = ja.RandomStream(f"b0-oracle-ops-{g}").split(i)
        xl, yl = (ja.mumford_to_point(model, m, ja.LARGE) for m in (m1, m2))
        total = ja.cantor_add(curve, m1, m2)
        neg_total, neg_x = ja.cantor_negate(curve, total), ja.cantor_negate(curve, m1)
        for got, want in ((ja.addflip_small(model, x, y, r.split("afs")), neg_total),
                          (ja.addflip_large(model, xl, yl, r.split("afl")), neg_total),
                          (ja.add(model, x, y, r.split("add")), total),
                          (ja.negate(model, x, r.split("neg")), neg_x),
                          (ja.negate(model, xl, r.split("negl")), neg_x),
                          (ja.scalar_mul(model, 3, x, r.split("smul")),
                           ja.cantor_scalar(curve, 3, m1))):
            assert ja.oracle_compare(model, got, want)
        assert ja.equal_class(model, x, y) == (m1 == m2)
        assert ja.equal_class(model, ja.mumford_to_point(model, total),
                              ja.add(model, x, y, r.split("add2")))


@pytest.fixture(scope="module")
def ladder_bundle():
    return ja.gen_rep_b0(ja.gen_hyperelliptic(2, 1009, rng=ja.RandomStream("ladder")),
                         ja.RandomStream("ladder-points"))


@pytest.mark.parametrize("tag", [ja.SMALL, ja.LARGE])
@pytest.mark.parametrize("form", ["a", "b0"])
def test_scalar_mul_matches_the_oracle(ladder_bundle, form, tag):
    model = ladder_bundle.large_model(ja.RandomStream(f"ladder-model-{form}"), form,
                                      compute_defl_v=False)
    curve = ladder_bundle.curve
    rng = ja.RandomStream(f"ladder-{form}-{tag}")
    m = ja.random_mumford(curve, rng.split("m"))
    x, zero = ja.mumford_to_point(model, m, tag), ja.zero_point(model, tag)
    drawn = rng.split("n").randint(2, 2**16 - 1)
    for n in (0, 1, -1, 2, -2, 3, -3, 9, 10, 12, -12, drawn):
        got = ja.scalar_mul(model, n, x, rng.split(f"smul{n}"))
        assert ja.oracle_compare(model, got, ja.cantor_scalar(curve, n, m)), n
    for n in (2, -3, 12, drawn):
        got = ja.scalar_mul(model, n, zero, rng.split(f"zero{n}"))
        assert ja.oracle_compare(model, got, ja.neutral()), n


def test_scalar_mul_matches_the_oracle_at_word_size():
    p = 2**31 - 1
    bundle = ja.gen_rep_b0(ja.gen_hyperelliptic(2, p, rng=ja.RandomStream("ladder-word")),
                           ja.RandomStream("ladder-word-points"))
    model = bundle.large_model(ja.RandomStream("ladder-word-model"), "b0",
                               compute_defl_v=False)
    rng = ja.RandomStream("ladder-word-ops")
    m = ja.random_mumford(bundle.curve, rng.split("m"))
    n = rng.split("n").randint(2, 2**16 - 1)
    got = ja.scalar_mul(model, n, ja.mumford_to_point(model, m), rng.split("smul"))
    assert ja.oracle_compare(model, got, ja.cantor_scalar(bundle.curve, n, m))


def test_scalar_mul_spends_one_addflip_per_step(ladder_bundle, monkeypatch):
    # (bit_length - 1) doublings and (popcount - 1) additions of |n|, plus
    # one negation of x if an addition needs -x and one of the result if
    # the ladder ends on the wrong sign
    model = ladder_bundle.large_model(ja.RandomStream("ladder-model-a"), "a",
                                      compute_defl_v=False)
    x = ja.mumford_to_point(model, ja.random_mumford(ladder_bundle.curve,
                                                     ja.RandomStream("ladder-count")))
    calls = []
    addflip = jacobian.addflip

    def spy(*args):
        calls.append(1)
        return addflip(*args)

    monkeypatch.setattr(jacobian, "addflip", spy)

    def count(n):
        calls.clear()
        ja.scalar_mul(model, n, x, ja.RandomStream(f"count{n}"))
        return len(calls)

    expected = {9: 5, 10: 4, 12: 5, 0: 0, 1: 0, -1: 1, 2: 2, -2: 1, 3: 3, -3: 4,
                -12: 6, 45: 9, -45: 10}
    assert {n: count(n) for n in expected} == expected
