"""Dense univariate polynomial arithmetic over F_p.

Polynomials are tuples of canonical residues in ascending degree order with
no trailing zeros; the zero polynomial is the empty tuple.  These helpers
back the curve generator (multiplication tables, smoothness checks) and the
Mumford/Cantor oracle (composition, factoring, modular square roots).
"""

from __future__ import annotations

from .field import RandomStream

Poly = tuple

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


def trim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(a: Poly) -> int:
    return len(a) - 1


def add(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    return trim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                for i in range(n))


def sub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    return trim(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                for i in range(n))


def neg(a: Poly, p: int) -> Poly:
    return tuple((-c) % p for c in a)


def scale(a: Poly, c: int, p: int) -> Poly:
    c %= p
    if c == 0:
        return ZERO
    return tuple(ci * c % p for ci in a)


def mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ZERO
    # reduce once per output coefficient
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return trim([c % p for c in out])


def divmod_poly(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lc = pow(b[-1], -1, p)
    db = deg(b)
    # r stays unreduced (c is canonical anyway); only r[:db] is reduced
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv_lc % p
        if c == 0:
            continue
        q[i - db] = c
        for j, bj in enumerate(b):
            r[i - db + j] -= c * bj
    return trim(q), trim([c % p for c in r[:db]])


def mod(a: Poly, m: Poly, p: int) -> Poly:
    return divmod_poly(a, m, p)[1]


def monic(a: Poly, p: int) -> Poly:
    if not a:
        return ZERO
    return scale(a, pow(a[-1], -1, p), p)


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def xgcd(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly, Poly]:
    """Monic g and (s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return ZERO, ZERO, ZERO
    c = pow(r0[-1], -1, p)
    return scale(r0, c, p), scale(s0, c, p), scale(t0, c, p)


def inverse_mod(a: Poly, m: Poly, p: int) -> Poly:
    g, s, _ = xgcd(a, m, p)
    if g != ONE:
        raise ZeroDivisionError("element not invertible modulo m")
    return mod(s, m, p)


def pow_mod(a: Poly, e: int, m: Poly, p: int) -> Poly:
    result = mod(ONE, m, p)
    a = mod(a, m, p)
    while e > 0:
        if e & 1:
            result = mod(mul(result, a, p), m, p)
        a = mod(mul(a, a, p), m, p)
        e >>= 1
    return result


def evaluate(a: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def derivative(a: Poly, p: int) -> Poly:
    return trim(i * a[i] % p for i in range(1, len(a)))


def power(a: Poly, e: int, p: int) -> Poly:
    out = ONE
    while e > 0:
        if e & 1:
            out = mul(out, a, p)
        a = mul(a, a, p)
        e >>= 1
    return out


def is_squarefree(a: Poly, p: int) -> bool:
    if deg(a) <= 0:
        return bool(a)
    da = derivative(a, p)
    if not da:
        return False
    return gcd(a, da, p) == ONE


def random_monic(degree: int, p: int, rng: RandomStream) -> Poly:
    cs = [rng.randrange(p) for _ in range(degree)] + [1]
    return tuple(cs)


# ---------------------------------------------------------------------------
# Factorization over F_p (squarefree / distinct-degree / equal-degree).
# Only used on the small-degree u polynomials of Mumford representations.
# ---------------------------------------------------------------------------


def squarefree_decomposition(a: Poly, p: int) -> list[tuple[Poly, int]]:
    """Factor a monic a into squarefree parts [(b_i, m_i)] with a = prod b_i^m_i."""
    out: list[tuple[Poly, int]] = []
    mult = 1
    while deg(a) > 0:
        da = derivative(a, p)
        if not da:
            # a is a p-th power; recurse on its p-th root
            root = trim(a[i] for i in range(0, len(a), p))
            for b, m in squarefree_decomposition(root, p):
                out.append((b, m * p))
            return out
        c = gcd(a, da, p)
        w = divmod_poly(a, c, p)[0]
        m = mult
        while deg(w) > 0:
            y = gcd(w, c, p)
            z = divmod_poly(w, y, p)[0]
            if deg(z) > 0:
                out.append((z, m))
            w, c = y, divmod_poly(c, y, p)[0]
            m += mult
        a = c
    return out


def _equal_degree_split(a: Poly, d: int, p: int, rng: RandomStream) -> list[Poly]:
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
    if deg(a) == d:
        return [monic(a, p)]
    e = (p ** d - 1) // 2
    while True:
        r = trim([rng.randrange(p) for _ in range(deg(a))])
        if deg(r) < 1:
            continue
        g = gcd(r, a, p)
        if deg(g) == 0:
            g = sub(pow_mod(r, e, a, p), ONE, p)
            g = gcd(g, a, p)
        if 0 < deg(g) < deg(a):
            left = _equal_degree_split(g, d, p, rng)
            right = _equal_degree_split(divmod_poly(a, g, p)[0], d, p, rng)
            return left + right


def factor_monic(a: Poly, p: int, rng: RandomStream) -> list[tuple[Poly, int]]:
    """Full factorization of monic a into [(irreducible, multiplicity)]."""
    out: list[tuple[Poly, int]] = []
    for sf, m in squarefree_decomposition(monic(a, p), p):
        # distinct-degree stage on the squarefree part
        h = mod(X, sf, p)
        rest = sf
        d = 0
        while deg(rest) > 0:
            d += 1
            if 2 * d > deg(rest):
                out.append((monic(rest, p), m))
                break
            h = pow_mod(h, p, rest, p)
            g = gcd(sub(h, X, p), rest, p)
            if deg(g) > 0:
                for q in _equal_degree_split(g, d, p, rng):
                    out.append((q, m))
                rest = divmod_poly(rest, g, p)[0]
                h = mod(h, rest, p)
    return out


# ---------------------------------------------------------------------------
# Square roots in F_p[x]/(q) and Hensel-style lifting mod q^e.
# ---------------------------------------------------------------------------


def sqrt_mod_irreducible(a: Poly, q: Poly, p: int, rng: RandomStream) -> Poly | None:
    """Square root of a in the field F_p[x]/(q), or None if a is a non-residue.

    Tonelli-Shanks in the cyclic group of order p^deg(q) - 1, with the
    non-residue found by random search.
    """
    a = mod(a, q, p)
    if not a:
        return ZERO
    order = p ** deg(q) - 1
    if pow_mod(a, order // 2, q, p) != ONE:
        return None
    m2, s = order, 0
    while m2 % 2 == 0:
        m2 //= 2
        s += 1
    minus_one = ((p - 1),)
    while True:
        z = trim([rng.randrange(p) for _ in range(deg(q))])
        if z and pow_mod(z, order // 2, q, p) == minus_one:
            break
    m, c = s, pow_mod(z, m2, q, p)
    t, r = pow_mod(a, m2, q, p), pow_mod(a, (m2 + 1) // 2, q, p)
    while t != ONE:
        i, tt = 0, t
        while tt != ONE:
            tt = mod(mul(tt, tt, p), q, p)
            i += 1
        b = pow_mod(c, 1 << (m - i - 1), q, p)
        m, c = i, mod(mul(b, b, p), q, p)
        t = mod(mul(t, c, p), q, p)
        r = mod(mul(r, b, p), q, p)
    return r


def sqrt_lift(v: Poly, f: Poly, q: Poly, e: int, p: int) -> Poly:
    """Newton-lift v with v^2 = f (mod q) to a root mod q^e; needs gcd(v, q) = 1."""
    k = 1
    inv2 = pow(2, -1, p)
    while k < e:
        k = min(2 * k, e)
        m = power(q, k, p)
        inv_v = inverse_mod(mod(v, m, p), m, p)
        v = mod(scale(add(v, mul(mod(f, m, p), inv_v, p), p), inv2, p), m, p)
    return v


def crt(residues: list[Poly], moduli: list[Poly], p: int) -> Poly:
    """Chinese remainder combination over pairwise coprime moduli."""
    acc, m = residues[0], moduli[0]
    for r, q in zip(residues[1:], moduli[1:]):
        g, s, t = xgcd(m, q, p)
        if g != ONE:
            raise ValueError("moduli not coprime")
        # acc + m*s*(r - acc) is r mod q and acc mod m
        acc = mod(add(acc, mul(mul(m, s, p), sub(r, acc, p), p), p),
                  mul(m, q, p), p)
        m = mul(m, q, p)
    return acc
