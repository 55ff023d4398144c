import pytest

import jacarith as ja
from jacarith.field import sqrt_mod


def test_make_prime_field_sigma_defaults():
    assert ja.make_prime_field(1009).sigma_size == 1009
    assert ja.make_prime_field(2**61 - 1).sigma_size == 1 << 16


def test_composite_modulus_rejected():
    with pytest.raises(ja.CompositeModulus):
        ja.make_prime_field(4)
    with pytest.raises(ja.CompositeModulus):
        ja.make_prime_field(1)


def test_primality_battery():
    primes = [2, 3, 5, 1009, 65537, 2**31 - 1, 2**61 - 1]
    composites = [0, 1, 4, 1001, 2**31, 3215031751, 2**61 + 1]
    assert all(ja.is_probable_prime(p) for p in primes)
    assert not any(ja.is_probable_prime(c) for c in composites)


def test_sqrt_mod():
    p = 1009  # p = 1 mod 8, exercises the general Tonelli-Shanks branch
    rng = ja.RandomStream("sqrt")
    hits = 0
    for _ in range(200):
        a = rng.randrange(p)
        r = sqrt_mod(a, p)
        if r is not None:
            hits += 1
            assert r * r % p == a % p
    assert hits > 80  # about half of the residues are squares
    assert sqrt_mod(0, p) == 0


def test_stream_split_independent():
    base = ja.RandomStream(42)
    a = base.split("left")
    b = base.split("right")
    assert [a.randrange(10**6) for _ in range(8)] != [b.randrange(10**6) for _ in range(8)]
    one = ja.RandomStream(42).split("left")
    two = ja.RandomStream(42).split("left")
    assert [one.randrange(10**6) for _ in range(8)] == [two.randrange(10**6) for _ in range(8)]
