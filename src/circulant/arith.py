"""Elementary number theory shared by the other modules.

Everything here is exact integer arithmetic; factoring is trial division up
to sqrt(n), so `analyze` at n near 10^12 takes tens of milliseconds when n has
small prime factors and about 0.1 s when n is a prime that large.  Divisors
stop at TRIAL_DIVISION_BOUND: every n < 10^14 factors, and a larger n left
with a cofactor that has no prime factor up to the bound is refused.
"""

from math import gcd, prod

from .errors import CapacityError

TRIAL_DIVISION_BOUND = 10**7


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, a) of n = p_1^a_1 * ... * p_r^a_r, p_1 < ... < p_r; n = 1
    yields none.  CapacityError once the divisor passes TRIAL_DIVISION_BOUND
    with a cofactor left."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if p > TRIAL_DIVISION_BOUND:
            raise CapacityError("cannot factor: a cofactor has no prime factor up to the bound", TRIAL_DIVISION_BOUND)
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def _radical_condition(primes) -> bool:
    """gcd(k, phi(k)) = 1 for k the product of these distinct primes."""
    return gcd(prod(primes), prod(p - 1 for p in primes)) == 1  # phi(k) = prod(p - 1)
