"""Abelian groups of order n and the realizability partial orders on them.

An abelian p-group is an integer partition of the exponent; an abelian group
of order n is one partition per prime.  The order ``preceq_p`` compares
p-groups by chains with cyclic quotients (equivalently, dominance of the
exponent partitions), and ``preceq`` is the prime-by-prime product order.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from math import prod

from .arith import factorize


@dataclass(frozen=True)
class PPartition:
    """Abelian p-group Z_{p^i_1} x ... x Z_{p^i_m} as the partition (i_1 >= ... >= i_m)."""

    p: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(x < 1 for x in self.parts):
            raise ValueError(f"parts must be positive and nonempty: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be non-increasing: {self.parts}")

    @property
    def exponent_sum(self) -> int:
        return sum(self.parts)

    @property
    def rank(self) -> int:
        """Size of any irredundant generating set (the number of parts)."""
        return len(self.parts)

    @property
    def order(self) -> int:
        return self.p ** self.exponent_sum


@dataclass(frozen=True)
class AbelianType:
    """Isomorphism type of an abelian group: one PPartition per prime divisor."""

    sylow: tuple[PPartition, ...]

    def __post_init__(self):
        primes = [s.p for s in self.sylow]
        if primes != sorted(set(primes)):
            raise ValueError(f"sylow parts must be sorted by distinct primes: {primes}")

    @classmethod
    def from_parts(cls, parts_by_prime: dict[int, tuple[int, ...]]) -> "AbelianType":
        return cls(tuple(PPartition(p, tuple(parts)) for p, parts in sorted(parts_by_prime.items())))

    @classmethod
    def cyclic(cls, n: int) -> "AbelianType":
        return cls(tuple(PPartition(p, (a,)) for p, a in factorize(n).factors))

    @property
    def order(self) -> int:
        return prod(s.order for s in self.sylow)

    def sylow_for(self, p: int) -> PPartition:
        for s in self.sylow:
            if s.p == p:
                return s
        raise KeyError(f"no Sylow {p}-subgroup in a group of order {self.order}")

    def invariant_factors(self) -> tuple[int, ...]:
        """Cyclic factor orders d_1 >= d_2 >= ..., each dividing the previous."""
        width = max((s.rank for s in self.sylow), default=0)
        factors = []
        for j in range(width):
            d = prod(s.p ** s.parts[j] for s in self.sylow if j < s.rank)
            factors.append(d)
        return tuple(factors)

    def text(self) -> str:
        """Canonical text form: prime powers joined by "x", e.g. "Z9xZ5", "Z3^2xZ5"."""
        if not self.sylow:
            return "Z1"
        pieces = []
        for s in self.sylow:
            for e, run in groupby(s.parts):
                count = len(list(run))
                q = s.p ** e
                pieces.append(f"Z{q}" if count == 1 else f"Z{q}^{count}")
        return "x".join(pieces)

    def __str__(self) -> str:
        return self.text()


def preceq_p(g: PPartition, h: PPartition) -> bool:
    """The realizability order on abelian p-groups.

    g precedes h when g is isomorphic to the product of the cyclic quotients
    of some chain of subgroups of h.  Factoring out one cyclic subgroup
    removes a horizontal strip from the exponent partition (no two boxes in a
    column), so chains peel h's partition strip by strip and the achievable
    products are exactly the partitions dominated by h's: every leading
    partial sum of g's exponents is at most the corresponding sum of h's.

    Note this is strictly coarser than multiset-grouping subdivision: a
    diagonal subgroup can split exponents across factors, e.g. the quotient
    of Z_{p^3} x Z_p by a diagonal Z_{p^2} is cyclic, so (2,2) precedes (3,1)
    although {2,2} cannot be grouped into sums {3,1}.
    """
    if g.p != h.p:
        raise ValueError(f"mismatched primes: {g.p} vs {h.p}")
    if g.exponent_sum != h.exponent_sum:
        return False
    sum_g = sum_h = 0
    for i in range(max(g.rank, h.rank)):
        sum_g += g.parts[i] if i < g.rank else 0
        sum_h += h.parts[i] if i < h.rank else 0
        if sum_g > sum_h:
            return False
    return True


def preceq(g: AbelianType, h: AbelianType) -> bool:
    """Product order: compare Sylow subgroups prime by prime."""
    if g.order != h.order:
        raise ValueError(f"orders differ: {g.order} vs {h.order}")
    return all(preceq_p(s, h.sylow_for(s.p)) for s in g.sylow)


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as non-increasing tuples, in ascending lexicographic order."""
    if k == 0:
        return ((),)
    out = []

    def extend(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for x in range(min(remaining, maxpart), 0, -1):
            extend(remaining - x, x, prefix + (x,))

    extend(k, k, ())
    return tuple(sorted(out))


def enumerate_abelian(n: int) -> list[AbelianType]:
    """All abelian groups of order n, once each, lexicographic by prime then partition."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return _groups_of_exponents(factorize(n).factors)


def _groups_of_exponents(factors) -> list[AbelianType]:
    per_prime = [[PPartition(p, parts) for parts in partitions(a)] for p, a in factors]
    return [AbelianType(combo) for combo in product(*per_prime)]


def up_set(h: AbelianType) -> list[AbelianType]:
    """All groups of the same order that are >= h in the partial order, h included.

    The order's factorization is read off h, so nothing is factorized.
    """
    groups = _groups_of_exponents((s.p, s.exponent_sum) for s in h.sylow)
    return [k for k in groups if preceq(h, k)]


def hasse_edges(n: int) -> list[tuple[AbelianType, AbelianType]]:
    """Cover pairs (g, h) of the partial order on abelian groups of order n."""
    if n < 2:
        raise ValueError(f"expected n >= 2, got {n}")
    groups = enumerate_abelian(n)
    below = {g: [h for h in groups if h != g and preceq(g, h)] for g in groups}
    edges = []
    for g in groups:
        for h in below[g]:
            if not any(preceq(k, h) for k in below[g] if k != h):
                edges.append((g, h))
    return edges
