"""Abelian groups of order n and the realizability partial orders on them.

An abelian p-group is an integer partition of the exponent; an abelian group
of order n is one partition per prime.  The realizability order compares
p-groups by chains with cyclic quotients (dominance of the exponent
partitions) and groups of order n prime by prime; its test on one pair of
groups is the dominance reference in tests/brute.py.

Up-sets and Hasse diagrams are walked by covers, never filtered from all
partitions.  In dominance order a partition's covers move one box up from
row j to a row i < j, where j = i + 1 or rows i and j have equal length
(T. Brylawski, "The lattice of integer partitions", Discrete Math. 6, 1973).
Lists of groups are counted before they are built and capped at
GROUP_LIST_CAP; a count grows as it goes, so it stops once past the cap.
An up-set of a partition of a has at most p(a) members, so one whose
product of p(a) is within the cap is not counted.
One helper (_up_closures) counts and walks an up-set prime by prime:
up_set builds groups from it, and the analyzer writes each partition
straight to text with PPartition.text_of, for its report and for the
oracle's prediction alike.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

from .arith import factorize
from .errors import CapacityError

# A listed group costs about 400 bytes as objects, so a list of this many stays
# near 40 MB, and the poset with its cover pairs under 250 MB.
GROUP_LIST_CAP = 10**5


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

    @staticmethod
    def text_of(p: int, parts: tuple[int, ...]) -> str:
        """Canonical text of the p-group with these parts, e.g. "Z9", "Z3^2", "Z8xZ2^2".

        A static method, so that callers holding only (p, parts) build no object.
        """
        if len(parts) == 1:
            return f"Z{p**parts[0]}"
        pieces = []
        for e in dict.fromkeys(parts):  # the distinct parts, largest first
            count = parts.count(e)
            pieces.append(f"Z{p**e}" if count == 1 else f"Z{p**e}^{count}")
        return "x".join(pieces)


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
        return "x".join([PPartition.text_of(s.p, s.parts) for s in self.sylow]) or "Z1"


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


def _dominating_count(parts: tuple[int, ...], cap: int = GROUP_LIST_CAP) -> int | None:
    """The number of partitions of sum(parts) that dominate parts; p(a) at 1^a.

    Rows are placed largest first.  A prefix of k rows with sum s and last
    row m dominates while s >= parts[0] + ... + parts[k-1].  Once the mass
    left, a - s, is at most the number of rows of parts still to match, every
    completion keeps dominating (each row adds at least one box, and a
    dominating partition has no more rows than parts), so the prefix counts
    as q(a - s, m), the partitions of a - s into rows of at most m, and is
    dropped.  The walk takes O(a^2) memory whatever the answer.

    The count never decreases, so once it passes cap on a row of more than
    one prefix the walk stops and returns None: the answer is more than
    cap.  Each row is extended largest row first, so the next row meets the
    prefixes that are counted, not extended, first.  p(a) at 1^a is exact
    whatever its size, and takes no walk: Euler's pentagonal recurrence,
    p(k) = sum over j >= 1 of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)),
    gives it in O(a) ints.
    """
    a, rows = sum(parts), len(parts)
    if parts[0] == 1:
        p = [1]
        for k in range(1, a + 1):
            total, j = 0, 1
            while (g := j * (3 * j - 1) // 2) <= k:
                term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
                total += term if j % 2 else -term
                j += 1
            p.append(total)
        return p[a]
    # q[m][r]: partitions of r <= rows into rows of at most m
    q = [[1] + [0] * rows]
    for m in range(1, rows + 1):
        ways = q[-1][:]
        for r in range(m, rows + 1):
            ways[r] += ways[r - m]
        q.append(ways)
    count = 0
    prefixes = {(0, a): 1}  # (sum, last row) -> number of dominating prefixes of k rows
    bound = 0
    for k in range(rows):
        bound += parts[k]
        longer: dict[tuple[int, int], int] = {}
        for (s, m), c in prefixes.items():
            if a - s <= rows - k:
                count += c * q[min(m, a - s)][a - s]
                if count > cap and len(prefixes) > 1:
                    return None
                continue
            for x in range(min(m, a - s), max(1, bound - s) - 1, -1):
                longer[s + x, x] = longer.get((s + x, x), 0) + c
        prefixes = longer
    return count + sum(prefixes.values())  # prefixes with a row for each of parts sum to a


@lru_cache(maxsize=None)
def _partition_count(a: int) -> int | None:
    """p(a), the number of partitions of a, or None when it is past GROUP_LIST_CAP.

    _dominating_count is exact at 1^a but takes O(a^2) steps, and p grows
    with a, so no a past the first exponent over the cap is counted.
    """
    if any(_partition_count(b) is None for b in range(1, a)):
        return None
    count = _dominating_count((1,) * a)
    return count if count <= GROUP_LIST_CAP else None


def _cap_group_list(counts: list[int | None], what: str) -> None:
    """Refuse a list whose per-prime counts (see _dominating_count) multiply past GROUP_LIST_CAP."""
    if None in counts:
        raise CapacityError(f"{what} would have more than {GROUP_LIST_CAP} groups", GROUP_LIST_CAP)
    count = prod(counts)
    if count > GROUP_LIST_CAP:
        raise CapacityError(f"{what} would have {count} groups", GROUP_LIST_CAP)


def enumerate_abelian(n: int) -> list[AbelianType]:
    """All abelian groups of order n, once each, lexicographic by prime then partition.

    More than GROUP_LIST_CAP groups, prod p(a) over the prime powers
    p^a || n, raise CapacityError before anything is built.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    factors = factorize(n).factors
    _cap_group_list([_dominating_count((1,) * a) for _, a in factors], f"order {n}")
    per_prime = [[PPartition(p, parts) for parts in partitions(a)] for p, a in factors]
    return [AbelianType(combo) for combo in product(*per_prime)]


def _covers(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The partitions covering parts in dominance order (Brylawski 1973).

    Each moves one box up from row j to a row i < j, where j = i + 1 or rows
    i and j have equal length, and leaves a partition: row i is the first of
    its length and row j the last of its length.
    """
    padded = parts + (0,)
    covers = []
    for i in range(len(parts) - 1):
        if i and parts[i - 1] == parts[i]:
            continue  # row i cannot gain a box
        j = i + 1
        while padded[j] == parts[i] and padded[j + 1] == parts[i]:
            j += 1
        if padded[j] == padded[j + 1]:
            continue  # row j cannot lose a box
        moved = list(parts)
        moved[i] += 1
        moved[j] -= 1
        covers.append(tuple(moved) if moved[-1] else tuple(moved[:-1]))
    return covers


def _up_closure(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The partitions dominating parts, in ascending lexicographic order."""
    seen = {parts}
    frontier = [parts]
    while frontier:
        frontier = {c for x in frontier for c in _covers(x)} - seen
        seen |= frontier
    return sorted(seen)


def _up_closures(sylow: list[tuple[int, tuple[int, ...]]], text: str) -> list[list[tuple[int, ...]]]:
    """Per prime (p, parts) of a group written `text`, the partitions dominating parts.

    The up-set is their product, at most the product of p(a) over the
    exponents a.  Only when that bound passes GROUP_LIST_CAP is the up-set
    counted first, and more than GROUP_LIST_CAP groups raise CapacityError
    before anything is built.
    """
    bounds = [_partition_count(sum(parts)) for _, parts in sylow]
    if None in bounds or prod(bounds) > GROUP_LIST_CAP:
        _cap_group_list([_dominating_count(parts) for _, parts in sylow], f"up-set of {text}")
    return [_up_closure(parts) for _, parts in sylow]


def up_set(h: AbelianType) -> list[AbelianType]:
    """All groups of the same order that are >= h in the partial order, h included.

    Per prime, the partitions dominating h's are walked cover by cover from
    it (see _covers), so the cost follows the answer, not the number of
    partitions.  The up-set is counted first, and more than GROUP_LIST_CAP
    groups raise CapacityError before anything is built.  The order's
    factorization is read off h, so nothing is factorized.  A cyclic h,
    one part per prime, dominates every group of its order, so its up-set
    is [h] and nothing is walked.
    """
    if all(len(s.parts) == 1 for s in h.sylow):
        return [h]
    closures = _up_closures([(s.p, s.parts) for s in h.sylow], h.text())
    per_prime = [[PPartition(s.p, parts) for parts in closure] for s, closure in zip(h.sylow, closures)]
    return [AbelianType(combo) for combo in product(*per_prime)]


def hasse_edges(n: int) -> list[tuple[AbelianType, AbelianType]]:
    """Cover pairs (g, h) of the partial order on abelian groups of order n.

    In the product order, h covers g exactly when they differ at one prime,
    where h's partition covers g's in dominance order (see _covers).  Pairs
    are listed by g, then h, in enumeration order.
    """
    if n < 2:
        raise ValueError(f"expected n >= 2, got {n}")
    groups = enumerate_abelian(n)
    index = {g: i for i, g in enumerate(groups)}
    edges = []
    for g in groups:
        above = []
        for k, s in enumerate(g.sylow):
            for parts in _covers(s.parts):
                sylow = g.sylow[:k] + (PPartition(s.p, parts),) + g.sylow[k + 1:]
                above.append(AbelianType(sylow))
        edges.extend((g, h) for h in sorted(above, key=index.__getitem__))
    return edges
