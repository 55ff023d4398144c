from hypothesis import assume, given, settings, strategies as st

import jacarith.poly as poly
from jacarith import RandomStream

P = 101


def _rand(deg, rng, p=P):
    return poly.trim([rng.randrange(p) for _ in range(deg + 1)])


def test_divmod_invariant():
    rng = RandomStream("divmod")
    for i in range(100):
        a = _rand(rng.randint(0, 8), rng)
        b = poly.random_monic(rng.randint(1, 4), P, rng)
        q, r = poly.divmod_poly(a, b, P)
        assert poly.add(poly.mul(q, b, P), r, P) == a
        assert poly.deg(r) < poly.deg(b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_divmod_is_exact_with_canonical_residues(data):
    # mul and divmod_poly reduce lazily; check a = q*b + r against a plain
    # convolution, with deg r < deg b and every coefficient in [0, p)
    p = data.draw(st.sampled_from([2, 1009, 2**31 - 1]))
    residues = st.integers(0, p - 1)
    a = poly.trim(data.draw(st.lists(residues, max_size=14)))
    b = poly.trim(data.draw(st.lists(residues, min_size=1, max_size=7)))
    assume(b)
    q, r = poly.divmod_poly(a, b, p)
    assert poly.deg(r) < poly.deg(b)
    assert all(0 <= c < p for c in q + r) and q == poly.trim(q) and r == poly.trim(r)
    qb = [0] * (len(q) + len(b))
    for i, qi in enumerate(q):
        for j, bj in enumerate(b):
            qb[i + j] += qi * bj
    assert poly.trim([(c + (r[k] if k < len(r) else 0)) % p
                      for k, c in enumerate(qb)]) == a
    assert poly.mul(q, b, p) == poly.trim([c % p for c in qb])


def test_xgcd_bezout():
    rng = RandomStream("xgcd")
    for i in range(100):
        a = _rand(rng.randint(0, 6), rng)
        b = _rand(rng.randint(0, 6), rng)
        if not a and not b:
            continue
        g, s, t = poly.xgcd(a, b, P)
        lhs = poly.add(poly.mul(s, a, P), poly.mul(t, b, P), P)
        assert lhs == g
        if a and b:
            assert not poly.mod(a, g, P) and not poly.mod(b, g, P)


def test_factor_monic_roundtrip():
    rng = RandomStream("factor")
    for i in range(60):
        u = poly.random_monic(rng.randint(1, 6), P, rng)
        prod = poly.ONE
        for q, e in poly.factor_monic(u, P, rng.split(i)):
            assert q[-1] == 1 and poly.deg(q) >= 1
            prod = poly.mul(prod, poly.power(q, e, P), P)
        assert prod == u


def test_factor_with_multiplicity():
    rng = RandomStream("mult")
    q1 = (3, 1)          # x + 3
    q2 = (5, 0, 1)       # x^2 + 5 (check irreducibility below)
    u = poly.mul(poly.power(q1, 3, P), q2, P)
    fac = sorted(poly.factor_monic(u, P, rng), key=lambda t: (poly.deg(t[0]), t[0]))
    assert ((3, 1), 3) in fac
    total = sum(e * poly.deg(q) for q, e in fac)
    assert total == poly.deg(u)


def test_sqrt_mod_irreducible():
    rng = RandomStream("extsqrt")
    # q irreducible of degree 2 over F_101: x^2 - n for a non-residue n
    n = next(c for c in range(2, P) if pow(c, (P - 1) // 2, P) == P - 1)
    q = ((-n) % P, 0, 1)
    for i in range(30):
        a = _rand(1, rng)
        if not a:
            continue
        square = poly.mod(poly.mul(a, a, P), q, P)
        r = poly.sqrt_mod_irreducible(square, q, P, rng.split(i))
        assert r is not None
        assert poly.mod(poly.mul(r, r, P), q, P) == square


def test_sqrt_lift():
    rng = RandomStream("lift")
    q = (7, 1)  # x + 7
    f = poly.random_monic(5, P, rng)
    # ensure f is a nonzero square mod q by squaring its value
    f0 = poly.evaluate(f, (-7) % P, P)
    if f0 == 0 or pow(f0, (P - 1) // 2, P) != 1:
        f = poly.add(f, ((1 - f0) % P,), P)
        f0 = 1
    v0 = poly.sqrt_mod_irreducible(poly.mod(f, q, P), q, P, rng)
    v = poly.sqrt_lift(v0, f, q, 4, P)
    m = poly.power(q, 4, P)
    assert not poly.mod(poly.sub(poly.mul(v, v, P), f, P), m, P)


def test_crt():
    rng = RandomStream("crt")
    m1, m2 = (3, 1), (9, 0, 1)
    r1, r2 = (5,), (2, 4)
    v = poly.crt([r1, r2], [m1, m2], P)
    assert poly.mod(v, m1, P) == r1
    assert poly.mod(v, m2, P) == poly.trim(r2)


def test_squarefree_detection():
    assert poly.is_squarefree((1, 0, 0, 1), P)       # x^3 + 1
    assert not poly.is_squarefree((0, 0, 0, 1), P)   # x^3
