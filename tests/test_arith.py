import random
from math import gcd, prod

import pytest

from circulant.analyzer import ConnectionSet, decompose
from circulant import arith
from circulant.arith import TRIAL_DIVISION_BOUND, factorize
from circulant.errors import CapacityError


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
    # plain (p, a) pairs, no wrapper
    assert type(factorize(n)) is tuple and factorize(n) == expected


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_exact_below_the_square_of_the_trial_division_bound():
    assert TRIAL_DIVISION_BOUND**2 == 10**14
    assert factorize(999999999989) == ((999999999989, 1),)
    # the largest product of two primes below the bound, walked to its end
    assert factorize(9999973 * 9999991) == ((9999973, 1), (9999991, 1))
    assert factorize(2**80 * 9999991) == ((2, 80), (9999991, 1))


def test_factorize_refuses_a_cofactor_past_the_bound(monkeypatch):
    # a cofactor whose least prime factor is past the bound: the square of a
    # prime, and a product of two primes; a prime cofactor below bound^2
    # passes (the 10^24 + 7 literal at the real bound is in test_cli.py)
    monkeypatch.setattr(arith, "TRIAL_DIVISION_BOUND", 100)
    assert factorize(97 * 101) == ((97, 1), (101, 1))
    assert factorize(2 * 9973) == ((2, 1), (9973, 1))
    for n in (101**2, 101 * 103, 4 * 101 * 103):
        with pytest.raises(CapacityError, match="no prime factor up to the bound") as err:
            factorize(n)
        assert err.value.cap == 100


def test_factorize_roundtrip_exhaustive_small():
    for n in range(1, 20001):
        f = factorize(n)
        assert prod(p**a for p, a in f) == n
        primes = [p for p, _ in f]
        assert primes == sorted(primes)
        assert all(a >= 1 for _, a in f)


def test_factorize_roundtrip_sampled_large():
    rng = random.Random(20260810)
    for _ in range(2000):
        n = rng.randrange(20001, 10**6)
        f = factorize(n)
        assert prod(p**a for p, a in f) == n
        for p, _ in f:
            assert all(p % q != 0 for q in range(2, int(p**0.5) + 1))


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
        for p, _ in factorize(n):
            assert arithmetic_condition(n * p) is base


def test_condition_matches_definition_directly():
    for n in range(2, 2000):
        k = prod(p for p, _ in factorize(n))
        phi = sum(gcd(j, k) == 1 for j in range(1, k + 1))
        assert arithmetic_condition(n) is (gcd(k, phi) == 1)
