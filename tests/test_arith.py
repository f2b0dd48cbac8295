import random
from math import gcd, prod

import pytest

from circulant.analyzer import ConnectionSet, decompose
from circulant.arith import big_omega, factorize


def arithmetic_condition(n):
    """The gcd condition on n, as the analyzer reads it off its decomposition."""
    return decompose(ConnectionSet.of(n, ())).arithmetic_condition()


@pytest.mark.parametrize(
    "n,expected",
    [
        (45, ((3, 2), (5, 1))),
        (1, ()),
        (64, ((2, 6),)),
        (2, ((2, 1),)),
        (97, ((97, 1),)),
        (360, ((2, 3), (3, 2), (5, 1))),
    ],
)
def test_factorize(n, expected):
    assert factorize(n).factors == expected


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip_exhaustive_small():
    for n in range(1, 20001):
        f = factorize(n)
        assert prod(p**a for p, a in f.factors) == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert all(a >= 1 for _, a in f.factors)


def test_factorize_roundtrip_sampled_large():
    rng = random.Random(20260810)
    for _ in range(2000):
        n = rng.randrange(20001, 10**6)
        f = factorize(n)
        assert prod(p**a for p, a in f.factors) == n
        for p, _ in f.factors:
            assert all(p % q != 0 for q in range(2, int(p**0.5) + 1))


@pytest.mark.parametrize("n,expected", [(45, 3), (64, 6), (7, 1), (1, 0), (30, 3)])
def test_big_omega(n, expected):
    assert big_omega(n) == expected


def test_big_omega_additive():
    for m in range(1, 101):
        for n in range(1, 101):
            assert big_omega(m * n) == big_omega(m) + big_omega(n)
    rng = random.Random(1)
    for _ in range(500):
        m, n = rng.randrange(1, 1001), rng.randrange(1, 1001)
        assert big_omega(m * n) == big_omega(m) + big_omega(n)


@pytest.mark.parametrize(
    "n,expected",
    [
        (45, True),  # k=15, phi=8
        (12, False),  # k=6, phi=2
        (9, True),
        (1024, True),
        (2, True),
        (15, True),
        (21, False),  # 3 | phi(21)=12... gcd(21,12)=3
        (6, False),
    ],
)
def test_arithmetic_condition(n, expected):
    assert arithmetic_condition(n) is expected


def test_arithmetic_condition_prime_powers():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 6):
            assert arithmetic_condition(p**a)


def test_arithmetic_condition_rejects_small_n():
    with pytest.raises(ValueError):
        arithmetic_condition(1)


def test_condition_depends_only_on_radical():
    for n in range(2, 10001):
        base = arithmetic_condition(n)
        for p, _ in factorize(n).factors:
            assert arithmetic_condition(n * p) is base


def test_condition_matches_definition_directly():
    for n in range(2, 2000):
        k = prod(p for p, _ in factorize(n).factors)
        phi = sum(gcd(j, k) == 1 for j in range(1, k + 1))
        assert arithmetic_condition(n) is (gcd(k, phi) == 1)
