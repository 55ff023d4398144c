import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import jacarith as ja
import jacarith.poly as poly
from jacarith import curverep, divisors, linalg


def test_igs_size_h_values():
    assert ja.igs_size_h(12, 4, 2) == 5
    assert ja.igs_size_h(12, 4, 1009) == 2
    assert ja.igs_size_h(5, 4, 2) == 2
    with pytest.raises(ValueError):
        ja.igs_size_h(4, 4, 2)
    with pytest.raises(ValueError):
        ja.igs_size_h(12, 4, 1)


def _sigma_coeffs(field, dim, rng):
    # over the identity basis the drawn coefficients are the element itself
    return divisors.sigma_random_element(field, linalg.full_subspace(field, dim), rng)


def test_sigma_random_element_replayable(f1009):
    draws1 = [_sigma_coeffs(f1009, 5, ja.RandomStream("s0").split(i)) for i in range(50)]
    draws2 = [_sigma_coeffs(f1009, 5, ja.RandomStream("s0").split(i)) for i in range(50)]
    assert all(np.array_equal(a, b) for a, b in zip(draws1, draws2))


def test_sigma_random_element_small_sigma():
    field = ja.make_prime_field(1009, sigma_size=2)
    coeffs = _sigma_coeffs(field, 200, ja.RandomStream("tiny"))
    assert set(coeffs.tolist()) == {0, 1}


def test_sigma_random_element_uniform(f1009):
    # each residue count within 5 sigma of the binomial expectation
    n = 100_000
    coeffs = np.concatenate([_sigma_coeffs(f1009, 1000, ja.RandomStream("freq").split(i))
                             for i in range(n // 1000)])
    counts = np.bincount(coeffs, minlength=f1009.p)
    q = 1 / f1009.p
    bound = 5 * math.sqrt(n * q * (1 - q))
    assert len(counts) == f1009.p and all(abs(c - n * q) <= bound for c in counts)


def _bridged(bundle, model, label, i):
    m = ja.random_mumford(bundle.curve, ja.RandomStream(label).split(i))
    return ja.mumford_to_point(model, m).divisor


def test_random_candidate_deterministic(bundle_g2, model_g2):
    d = _bridged(bundle_g2, model_g2, "cand", 0)
    one = ja.random_igs_candidate(bundle_g2.rep_a, d, ja.RandomStream("fixed"))
    two = ja.random_igs_candidate(bundle_g2.rep_a, d, ja.RandomStream("fixed"))
    assert len(one.sections) == ja.igs_size_h(bundle_g2.Delta, d.degree, 1009)
    assert all(np.array_equal(a, b) for a, b in zip(one.sections, two.sections))
    assert np.array_equal(one.sections[0], d.space.basis[:, 0])


def test_random_candidate_empty_space(bundle_g2):
    rep = bundle_g2.rep_a
    zero = linalg.Subspace(rep.field, rep.n, linalg.zeros(rep.field, rep.n, 0))
    empty = divisors.divisor_from_space(rep, zero)
    with pytest.raises(ja.EmptySpace):
        ja.random_igs_candidate(rep, empty, ja.RandomStream(0))


def test_is_igs_basis_single_superset(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    d = _bridged(bundle_g2, model_g2, "isigs", 1)
    basis_sections = tuple(d.space.basis[:, j] for j in range(d.space.dim))
    assert ja.is_igs(rep, divisors.DivisorBrief(basis_sections), d.degree)
    # one section alone generates a divisor of degree Delta > deg D
    assert not ja.is_igs(rep, divisors.DivisorBrief(basis_sections[:1]), d.degree)
    brief = ja.deflate(rep, d, ja.RandomStream("defl-sup"))
    extra = divisors.sigma_random_element(rep.field, d.space, ja.RandomStream("extra"))
    assert ja.is_igs(rep, divisors.DivisorBrief(brief.sections + (extra,)), d.degree)


def test_deflate_inflate_roundtrip(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    stats = divisors.RetryStats()
    for i in range(25):
        d = _bridged(bundle_g2, model_g2, "round", i)
        brief = ja.deflate(rep, d, ja.RandomStream("r").split(i), stats)
        back = ja.inflate(rep, brief, model_g2.defl_v)
        assert back.space == d.space
        assert back.degree == d.degree
    assert stats.mean_attempts <= 2.5
    assert sum(stats.histogram.values()) == stats.calls == 25
    assert sum(k * v for k, v in stats.histogram.items()) == stats.attempts


def test_retry_stats_memory_is_bounded():
    stats = divisors.RetryStats()
    for i in range(3000):
        stats.record(1 + i % 3)
    stats.record(divisors._LOOP_CAP)
    assert stats.histogram == {1: 1000, 2: 1000, 3: 1000, divisors._LOOP_CAP: 1}
    assert stats.calls == 3001
    assert stats.mean_attempts == pytest.approx((6000 + divisors._LOOP_CAP) / 3001)
    assert divisors.RetryStats().mean_attempts == 0.0


def test_deflate_precondition(bundle_g2):
    rep = bundle_g2.rep_a
    full = divisors.divisor_from_space(rep, rep.full_v())  # degree 0
    with pytest.raises(ja.PreconditionDegree):
        ja.deflate(rep, full, ja.RandomStream(0))


def test_inflate_trivia(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    # the generating set of V inflates to all of V
    got = ja.inflate(rep, divisors.DivisorBrief(model_g2.defl_v.sections),
                     model_g2.defl_v)
    assert got.space == rep.full_v()
    # a single section generates the degree-Delta divisor (s); the sections
    # vanishing on all of (s) are exactly the scalar multiples of s
    s = model_g2.defl_v.sections[0]
    got = ja.inflate(rep, divisors.DivisorBrief((s,)), model_g2.defl_v)
    assert got.space == ja.column_echelon(rep.field, s.reshape(-1, 1))


def test_igs_for_v(bundle_g2):
    rep = bundle_g2.rep_a
    star = bundle_g2.star_matrix
    stats = divisors.RetryStats()
    igs = ja.igs_for_v(rep, star, ja.RandomStream("igsv"), stats)
    assert divisors.verify_igs_v(rep, star, igs.sections)
    t1 = rep.full_v().basis[:, 0]
    assert not divisors.verify_igs_v(rep, star, (t1,))
    extra = divisors.sigma_random_element(rep.field, rep.full_v(), ja.RandomStream("x"))
    assert divisors.verify_igs_v(rep, star, igs.sections + (extra,))


def test_flip_degree_and_dimension_laws(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    for i in range(15):
        d = _bridged(bundle_g2, model_g2, "flip", i)
        flipped = ja.flip(rep, d, ja.RandomStream("f").split(i))
        assert d.degree + flipped.degree == rep.Delta
        assert flipped.space.dim == rep.delta - flipped.degree


def test_flip_degree_law_is_a_typed_error(bundle_g2, model_g2, monkeypatch):
    # one rule judges every candidate by r = dim V - dim quotient against
    # Delta - deg D, at h = 2 (|Sigma| = 1009) and h > 2 (|Sigma| = 2).  A
    # division that returns all of V has r = 0, a redraw, so the flip gives
    # up; one that returns the zero space has r = dim V > Delta - deg D,
    # which no candidate can reach on consistent data
    d = _bridged(bundle_g2, model_g2, "law", 0)
    rep_h, pool = _flip_case(1009, 2)
    for rep, e in ((bundle_g2.rep_a, d), (rep_h, pool[0])):
        monkeypatch.setattr(curverep, "divide_own", lambda rep, w, blocks: rep.full_v())
        with pytest.raises(divisors.LasVegasExhausted):
            ja.flip(rep, e, ja.RandomStream("law"))
        monkeypatch.setattr(curverep, "divide_own", lambda rep, w, blocks: linalg.Subspace(
            rep.field, rep.n, linalg.zeros(rep.field, rep.n, 0)))
        with pytest.raises(curverep.DegreeLawViolation, match="flip.*quotient has degree"):
            ja.flip(rep, e, ja.RandomStream("law"))


def test_deflation_degree_law_is_a_typed_error(bundle_g2, model_g2, monkeypatch):
    # deflate judges by the blocks' rank alone: a rank of dim V, as the zero
    # quotient would have, breaks the degree law
    d = _bridged(bundle_g2, model_g2, "law", 0)
    monkeypatch.setattr(curverep, "own_rank", lambda rep, w, blocks: w.dim)
    with pytest.raises(curverep.DegreeLawViolation, match="deflation"):
        ja.deflate(bundle_g2.rep_a, d, ja.RandomStream("law"))


_FLIP_CASES = {}


def _flip_case(p, sigma_size, form="a"):
    """A genus-2 curve over F_p in table form with the given |Sigma|, or in
    point-value form ("b0"), and divisors of several degrees: D_0, 2*D_0, a
    walk of flips at random sections, and last a divisor at the comfort
    floor, deg 2g-1, whose flip has degree Delta-2g+1."""
    key = p, sigma_size, form
    if key not in _FLIP_CASES:
        bundle = ja.gen_hyperelliptic(2, p, rng=ja.RandomStream(f"fused-{p}"))
        if form == "b0":
            ja.gen_rep_b0(bundle, ja.RandomStream(f"fused-points-{p}"))
            rep = bundle.rep_b0
            model = bundle.large_model(ja.RandomStream(f"fused-model-{p}"), tag="b0",
                                       compute_defl_v=False)

            def own(d):
                return d
        else:
            field = ja.make_prime_field(p, sigma_size=sigma_size)
            rep = ja.RepA(field, bundle.g, bundle.Delta, bundle.rep_a.tables)
            model = bundle.large_model(ja.RandomStream(f"fused-model-{p}"),
                                       compute_defl_v=False)

            def own(d):
                return ja.divisor_from_space(rep, linalg.Subspace(field, rep.n, d.space.basis))
        pool = [own(d) for d in (model.W_D0, model.W_2D0)]
        rng = ja.RandomStream(f"fused-walk-{p}-{sigma_size}")
        for i in range(4):
            s = divisors.sigma_random_element(rep.field, pool[-1].space, rng.split(f"s{i}"))
            if np.count_nonzero(s):
                pool.append(ja.flip(rep, pool[-1], rng.split(f"f{i}"), s=s))
        # a Mumford pair padded at infinity; over F_2, where the bridge
        # draws no pairs, (2g-1)*infinity
        m = (ja.random_mumford(bundle.curve, ja.RandomStream(f"fused-floor-{p}")) if p != 2
             else ja.neutral())
        pool.append(own(ja.semireduced_space(model, m.u, m.v, 2 * bundle.g - 1)))
        _FLIP_CASES[key] = rep, pool
    return _FLIP_CASES[key]


def _weak_candidates(data, p, space, head, h):
    """Candidates headed by head whose other sections come from a few columns
    of the space, so that many of them fail to generate its divisor."""
    drawn = []
    for _ in range(data.draw(st.integers(0, 3))):
        cols = data.draw(st.lists(st.integers(0, space.dim - 1), min_size=1, max_size=3))
        drawn.append(divisors.DivisorBrief((head.copy(),) + tuple(
            space.basis[:, cols].dot(np.array(
                data.draw(st.lists(st.integers(0, p - 1), min_size=len(cols),
                                   max_size=len(cols))), dtype=np.int64)) % p
            for _ in range(h - 1))))
    return drawn


def _replaying(drawn, returned):
    """A stand-in for ``random_igs_candidate`` that hands out the drawn
    candidates first, then real draws, and records what it returned."""
    draw = divisors.random_igs_candidate

    def candidates(rep, d, rng):
        returned.append(drawn.pop(0) if drawn else draw(rep, d, rng))
        return returned[-1]
    return candidates


def _section_of(data, rep, space, sigma_size):
    """None (W_D's head), a nonzero Sigma-combination of W_D's basis, or a
    nonzero section of W_D that vanishes on a pivot row of V."""
    how = data.draw(st.sampled_from(["head", "random", "zero on a pivot row of V"]))
    if how == "head":
        return None
    p = rep.field.p
    c = np.array(data.draw(st.lists(st.integers(0, sigma_size - 1), min_size=space.dim,
                                    max_size=space.dim)), dtype=np.int64)
    if how != "random":
        row = space.basis[data.draw(st.sampled_from(list(rep.full_v().pivot_rows)))]
        live = np.flatnonzero(row)
        if live.size:
            c[live[0]] = 0
            c[live[0]] = -row.dot(c) * pow(int(row[live[0]]), -1, p) % p
    s = space.basis.dot(c) % p
    assume(np.count_nonzero(s))
    return s


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fused_flip_verdict_matches_is_igs(data):
    # h = 2 at |Sigma| = 1009; h > 2 at |Sigma| = 2 (over F_1009 and F_2);
    # point-value form at |Sigma| = 1009, where s can vanish on a pivot row
    # of V (own_kernel's fallback)
    p, sigma_size, form = data.draw(st.sampled_from(
        [(1009, 1009, "a"), (1009, 2, "a"), (2, 2, "a"), (1009, 1009, "b0")]))
    rep, pool = _flip_case(p, sigma_size, form)
    d = data.draw(st.sampled_from(pool))
    h = ja.igs_size_h(rep.Delta, d.degree, sigma_size)
    s = _section_of(data, rep, d.space, sigma_size)
    head = rep.head(d.space) if s is None else s
    drawn = _weak_candidates(data, p, d.space, rep.head(d.space), h)
    returned = []
    stats = ja.RetryStats()
    with mock.patch.object(divisors, "random_igs_candidate", _replaying(drawn, returned)):
        out = ja.flip(rep, d, ja.RandomStream("fused"), s=s, stats=stats)
    headed = [divisors.DivisorBrief((head,) + b.sections[1:]) for b in returned]
    verdicts = [ja.is_igs(rep, brief, d.degree) for brief in headed]
    assert verdicts == [False] * (len(returned) - 1) + [True]
    assert stats.histogram == {len(returned): 1}
    s_v = rep.apply_mul(head, rep.full_v().basis)
    assert out.space == ja.divide(rep, linalg.column_echelon(rep.field, s_v),
                                  headed[-1].sections)
    # deflate runs the same loop: on the same candidates it returns the
    # s-headed one the flip divided by
    replayed, stats = [], ja.RetryStats()
    with mock.patch.object(divisors, "random_igs_candidate",
                           _replaying(list(returned), replayed)):
        brief = ja.deflate(rep, d, ja.RandomStream("fused"), stats, s=s)
    assert len(replayed) == len(returned) and stats.histogram == {len(returned): 1}
    assert all(np.array_equal(a, b) for a, b in zip(brief.sections, headed[-1].sections))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_headed_deflation_verdict_matches_is_igs(data):
    # deflate D at W_D's first column, or D~ = the flip of x at s, x's first
    # column, at s (s lies in W_D~, which lies in deflate's range unless x
    # is at the floor); h = 2 at |Sigma| = 1009, h > 2 at |Sigma| = 2 (over
    # F_1009 and F_2)
    p, sigma_size = data.draw(st.sampled_from([(1009, 1009), (1009, 2), (2, 2)]))
    rep, pool = _flip_case(p, sigma_size)
    x, y = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    if x.degree >= 2 * rep.g and data.draw(st.booleans()):
        s = x.space.basis[:, 0].copy()
        e = ja.flip(rep, x, ja.RandomStream("headed-flip"), s=s)
        head = s
    else:
        e, s = x, None
        head = x.space.basis[:, 0]
    h = ja.igs_size_h(rep.Delta, e.degree, sigma_size)
    drawn = _weak_candidates(data, p, e.space, e.space.basis[:, 0], h)
    returned = []
    stats = ja.RetryStats()
    with mock.patch.object(divisors, "random_igs_candidate", _replaying(drawn, returned)):
        brief = ja.deflate(rep, e, ja.RandomStream("headed"), stats, s=s)
    # deflate heads every drawn candidate with s
    headed = [divisors.DivisorBrief((head,) + b.sections[1:]) for b in returned]
    verdicts = [ja.is_igs(rep, b, e.degree) for b in headed]
    assert verdicts == [False] * (len(returned) - 1) + [True]
    assert stats.histogram == {len(returned): 1}
    assert all(np.array_equal(a, b) for a, b in zip(brief.sections, headed[-1].sections))
    # the own-section quotient of s*W_y by it is the general one
    h_w = rep.apply_mul(head, y.space.basis)
    assert (curverep.divide_own(rep, y.space, curverep.own_blocks(rep, y.space, brief.sections))
            == ja.divide(rep, linalg.column_echelon(rep.field, h_w), brief.sections))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_division_degree_verdict_matches_is_igs(data):
    # divide_by accepts a candidate by its quotient's degree, as the addflips
    # use it: D~, the flip of x at its head s, divides s*W_y (addflip_small),
    # or y at its head divides s*W_D~ for D~ a flip (addflip_large); h = 2 at
    # |Sigma| = 1009, h > 2 at |Sigma| = 2 (over F_1009 and F_2), and the
    # point-value form at |Sigma| = 1009
    p, sigma_size, form = data.draw(st.sampled_from(
        [(1009, 1009, "a"), (1009, 2, "a"), (2, 2, "a"), (1009, 1009, "b0")]))
    rep, pool = _flip_case(p, sigma_size, form)
    small = [d for d in pool if 2 * d.degree < rep.Delta]
    large = [d for d in pool if 2 * d.degree > rep.Delta]
    if data.draw(st.booleans()):
        # D~ is divided by, so x lies above the floor
        x = data.draw(st.sampled_from([d for d in small if d.degree >= 2 * rep.g]))
        y = data.draw(st.sampled_from(small))
        s = rep.head(x.space)
        d, w = ja.flip(rep, x, ja.RandomStream("division-flip"), s=s), y.space
    else:
        x, d = data.draw(st.sampled_from(large)), data.draw(st.sampled_from(large))
        s, w = None, ja.flip(rep, x, ja.RandomStream("division-flip")).space
    head = rep.head(d.space) if s is None else s
    h = ja.igs_size_h(rep.Delta, d.degree, sigma_size)
    drawn = _weak_candidates(data, p, d.space, rep.head(d.space), h)
    returned = []
    stats = ja.RetryStats()
    with mock.patch.object(divisors, "random_igs_candidate", _replaying(drawn, returned)):
        out = divisors.divide_by(rep, w, d, ja.RandomStream("division"), s=s, stats=stats)
    headed = [divisors.DivisorBrief((head,) + b.sections[1:]) for b in returned]
    verdicts = [ja.is_igs(rep, brief, d.degree) for brief in headed]
    assert verdicts == [False] * (len(returned) - 1) + [True]
    assert stats.histogram == {len(returned): 1}
    h_w = linalg.column_echelon(rep.field, rep.apply_mul(head, w.basis))
    assert out.space == ja.divide(rep, h_w, headed[-1].sections)


def test_flip_preconditions(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    full = divisors.divisor_from_space(rep, rep.full_v())
    with pytest.raises(ja.PreconditionDegree):
        ja.flip(rep, full, ja.RandomStream(0))
    # (s*W_2D0)/D_0 would have degree 4d > Delta - 2g, where degrees are not exact
    with pytest.raises(ja.PreconditionDegree):
        divisors.divide_by(rep, model_g2.W_2D0.space, model_g2.W_D0, ja.RandomStream(0))


def test_flip_zero_section_rejected(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    d = _bridged(bundle_g2, model_g2, "zs", 0)
    with pytest.raises(ja.ZeroSection):
        ja.flip(rep, d, ja.RandomStream(0), s=np.zeros(rep.n, dtype=np.int64))


def test_divide_recovers_cofactor_space(bundle_g2, model_g2):
    # division of W'_{D+E} by a generating set of D must return W_E exactly;
    # the expected space is built independently from polynomial conditions
    rep = bundle_g2.rep_a
    curve = bundle_g2.curve
    rng = ja.RandomStream("cofactor")
    done = 0
    i = 0
    while done < 8:
        i += 1
        m1 = ja.random_mumford(curve, rng.split(f"a{i}"))
        m2 = ja.random_mumford(curve, rng.split(f"b{i}"))
        if poly.gcd(m1.u, m2.u, curve.p) != poly.ONE:
            continue
        f_div = ja.mumford_to_point(model_g2, m1).divisor
        e_div = ja.mumford_to_point(model_g2, m2).divisor
        s = f_div.space.basis[:, 0].copy()
        w_prime = ja.simple_mul(rep, s, e_div.space)     # W'_{F + Ftilde + E}
        f_tilde = ja.flip(rep, f_div, rng.split(f"f{i}"))  # uses the same section
        brief = ja.deflate(rep, f_tilde, rng.split(f"d{i}"))
        got = ja.divide(rep, w_prime, brief.sections)     # should be W_{F+E}
        u = poly.mul(m1.u, m2.u, curve.p)
        v = poly.crt([m1.v, m2.v], [m1.u, m2.u], curve.p)
        expected = ja.semireduced_space(model_g2, u, v, 2 * model_g2.d)
        assert ja.divisor_from_space(rep, got).degree == 2 * model_g2.d
        assert got == expected.space
        done += 1


def test_membership(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("member")
    for i in range(10):
        d = _bridged(bundle_g2, model_g2, "mem", i)
        assert ja.membership_test(rep, d.space, model_g2.defl_v, rng.split(f"g{i}"))
        while True:
            basis = d.space.basis.copy()
            basis[:, -1] = divisors.sigma_random_element(rep.field, rep.full_v(),
                                                         rng.split(f"p{i}"))
            cand = ja.column_echelon(rep.field, basis)
            if cand.dim == d.space.dim and cand != d.space:
                break
        assert not ja.membership_test(rep, cand, model_g2.defl_v, rng.split(f"t{i}"))


def test_membership_precondition(bundle_g2, model_g2):
    rep = bundle_g2.rep_a
    with pytest.raises(ja.PreconditionCodim):
        ja.membership_test(rep, rep.full_v(), model_g2.defl_v, ja.RandomStream(0))


def test_candidate_success_rate_smoke(bundle_g2, model_g2):
    # statistical bound is >= 1/2 per draw; the acceptance suite runs the
    # full 1000-trial version across three (g, p) pairs
    rep = bundle_g2.rep_a
    rng = ja.RandomStream("rate")
    pool = [_bridged(bundle_g2, model_g2, "rate", i) for i in range(5)]
    wins = 0
    for i in range(100):
        d = pool[i % len(pool)]
        cand = ja.random_igs_candidate(rep, d, rng.split(i))
        wins += ja.is_igs(rep, cand, d.degree)
    assert wins >= 45
