"""Abelian groups of order n and the realizability partial orders on them.

An abelian p-group is an integer partition of the exponent; an abelian group
of order n is one (p, parts) pair per prime.  The realizability order compares
p-groups by chains with cyclic quotients (dominance of the exponent
partitions) and groups of order n prime by prime; its test on one pair of
groups is the dominance reference in tests/brute.py.

Up-sets are walked, never filtered from all partitions.  One walk
(_dominating) lists the partitions dominating a partition in ascending
lexicographic order, placing rows largest first under the prefix bound of
dominance and writing each run of equal rows as one piece (generation in
lexicographic order: D. E. Knuth, TAOCP 4A, 7.2.1.4).  Every partition of a
dominates 1^a, so the groups of order n are the up-set of the elementary
abelian group, and enumerate_abelian walks it as up_set walks any other.
One up-set writer (_up_set) caps, walks and writes them all: as groups
for both (_up_set_groups), and straight to text, partition by partition,
for the analyzer's report and prediction and for the oracle's Z_n
(up_set_texts).  A cyclic group is its own up-set, and is not walked.
AbelianType.text and up_set_texts write the empty product, the group of
order 1, as Z1 by one rule (_product_text).
Lists of groups are counted before they are built and capped at
GROUP_LIST_CAP; a count grows as it goes, so it stops once past the cap.
An up-set of a partition of a has at most p(a) members, so one whose
product of p(a) is within the cap is not counted (_cap_up_set).
Hasse diagrams are walked by covers: in dominance order a partition's
covers move one box up from row j to a row i < j, where j = i + 1 or rows i
and j have equal length (T. Brylawski, "The lattice of integer partitions",
Discrete Math. 6, 1973).  One cover walk (_cover_pairs) pairs the
enumerated groups by index, for hasse_edges and for the CLI's poset.
"""

from functools import partial
from itertools import accumulate, product
from math import prod
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from ._record import Record, set_field
from .arith import factorize
from .errors import CapacityError

# A listed group of order 2^45 costs about 300 bytes as objects, its partition
# included, so a list of this many stays near 30 MB; `poset` at 2^45 (89,134
# groups, 329,433 cover pairs) peaks near 61 MB of RSS in text and dot and
# 64 MB in json, all three written as they go.
GROUP_LIST_CAP = 10**5

T = TypeVar("T", str, tuple)


def _run_text(p: int, e: int, count: int) -> str:
    """Canonical text of count parts e of a p-group, e.g. "Z9", "Z3^2"."""
    return f"Z{p**e}" if count == 1 else f"Z{p**e}^{count}"


def text_of(p: int, parts: tuple[int, ...]) -> str:
    """Canonical text of the p-group with these parts, e.g. "Z9", "Z3^2", "Z8xZ2^2"."""
    pieces = []
    for e in dict.fromkeys(parts):  # the distinct parts, largest first
        pieces.append(_run_text(p, e, parts.count(e)))
    return "x".join(pieces)


def _product_text(pieces: Iterable[str]) -> str:
    """Canonical text of a group from the texts of its Sylow subgroups,
    primes increasing, joined by "x"; the empty product, the group of
    order 1, is "Z1"."""
    return "x".join(pieces) or "Z1"


class AbelianType(Record):
    """Isomorphism type of an abelian group: one (p, parts) pair per prime
    divisor p, primes increasing, where parts (i_1 >= ... >= i_m) is the
    partition of the Sylow p-subgroup Z_{p^i_1} x ... x Z_{p^i_m}."""

    __slots__ = ("sylow",)
    sylow: tuple[tuple[int, tuple[int, ...]], ...]

    def __init__(self, sylow):
        set_field(self, "sylow", sylow)
        primes = [p for p, _ in self.sylow]
        if primes != sorted(set(primes)):
            raise ValueError(f"sylow parts must be sorted by distinct primes: {primes}")
        for _, parts in self.sylow:
            if not parts or min(parts) < 1:
                raise ValueError(f"parts must be positive and nonempty: {parts}")
            if list(parts) != sorted(parts, reverse=True):
                raise ValueError(f"parts must be non-increasing: {parts}")

    @classmethod
    def from_parts(cls, parts_by_prime: dict[int, tuple[int, ...]]) -> "AbelianType":
        return cls(tuple((p, tuple(parts)) for p, parts in sorted(parts_by_prime.items())))

    @classmethod
    def cyclic(cls, n: int) -> "AbelianType":
        return cls(tuple((p, (a,)) for p, a in factorize(n)))

    def invariant_factors(self) -> tuple[int, ...]:
        """Cyclic factor orders d_1 >= d_2 >= ..., each dividing the previous."""
        width = max((len(parts) for _, parts in self.sylow), default=0)
        return tuple(prod(p ** parts[j] for p, parts in self.sylow if j < len(parts)) for j in range(width))

    def text(self) -> str:
        """Canonical text form: prime powers joined by "x", e.g. "Z9xZ5", "Z3^2xZ5"."""
        return _product_text([text_of(p, parts) for p, parts in self.sylow])


def _partition_numbers(p: list[int], a: int) -> list[int]:
    """p extended in place through p(a), the number of partitions of a.

    Euler's pentagonal recurrence,
    p(k) = sum over j >= 1 of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)),
    gives each p(k) from the earlier ones in O(k^0.5) steps.
    """
    for k in range(len(p), a + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
        p.append(total)
    return p


def _dominating_count(parts: tuple[int, ...]) -> int | None:
    """The number of partitions of sum(parts) that dominate parts.

    Rows are placed largest first.  A prefix of k rows with sum s and last
    row m dominates while s >= parts[0] + ... + parts[k-1].  Once the mass
    left, a - s, is at most the number of rows of parts still to match, every
    completion keeps dominating (each row adds at least one box, and a
    dominating partition has no more rows than parts), so the prefix counts
    as q(m, a - s), the partitions of a - s into rows of at most m, and is
    dropped.  q(m, r) is p(r) when m >= r; below that the columns q(m, .)
    are built one m at a time, up to the largest m the walk reads.  A walk
    that reads only p(r), as a near-flat partition's does until it passes
    the cap, takes O(a) ints.

    The count never decreases, so once it passes GROUP_LIST_CAP, read at
    call time, on a row of more than one prefix the walk stops and returns
    None: the answer is more than the cap.  Each row is extended largest
    row first, so the next row meets the prefixes that are counted, not
    extended, first.  p(a) at 1^a is
    counted in the walk's first row, as q(a, a), and is exact whatever its
    size.
    """
    a, rows = sum(parts), len(parts)
    p = [1]
    columns = [[1] + [0] * rows]  # columns[m][r]: partitions of r <= rows into rows of at most m

    def q(m: int, r: int) -> int:
        if m >= r:
            return _partition_numbers(p, r)[r]
        for size in range(len(columns), m + 1):
            ways = columns[-1][:]
            for t in range(size, rows + 1):
                ways[t] += ways[t - size]
            columns.append(ways)
        return columns[m][r]

    count = 0
    prefixes = {(0, a): 1}  # (sum, last row) -> number of dominating prefixes of k rows
    bound = 0
    for k in range(rows):
        bound += parts[k]
        longer: dict[tuple[int, int], int] = {}
        for (s, m), c in prefixes.items():
            if a - s <= rows - k:
                count += c * q(m, a - s)
                if count > GROUP_LIST_CAP and len(prefixes) > 1:
                    return None
                continue
            for x in range(min(m, a - s), max(1, bound - s) - 1, -1):
                longer[s + x, x] = longer.get((s + x, x), 0) + c
        prefixes = longer
    return count + sum(prefixes.values())  # prefixes with a row for each of parts sum to a


_PARTITIONS = [1]  # p(0), p(1), ..., extended by _partition_count


def _partition_count(a: int) -> int | None:
    """p(a), the number of partitions of a, or None when it is past GROUP_LIST_CAP.

    p grows with a, so _PARTITIONS is extended through a or through the
    first value past the cap, p(46) = 105,558, whichever comes first.
    """
    while len(_PARTITIONS) <= a and _PARTITIONS[-1] <= GROUP_LIST_CAP:
        _partition_numbers(_PARTITIONS, len(_PARTITIONS))
    return _PARTITIONS[a] if a < len(_PARTITIONS) and _PARTITIONS[a] <= GROUP_LIST_CAP else None


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


def _dominating(parts: tuple[int, ...], piece: Callable[[int, int], T], sep: T) -> list[T]:
    """The partitions dominating parts, in ascending lexicographic order, so
    parts comes first and (a) last, a = sum(parts).

    Each is written as the pieces of its runs joined by sep, where
    piece(e, c) writes a run of c rows of length e: ``(e,) * c`` joined by
    ``()`` gives the partition itself, and _run_text at p joined by "x"
    gives the p-group's canonical text.  Rows are placed largest first, and
    a prefix of k rows is kept while its sum is at least parts[0] + ... +
    parts[k-1], the bound _dominating_count walks.  A run is chosen by its
    length e, smallest first, then by its count c, smallest first, and the
    rows after it are shorter than e: that is ascending lexicographic order.
    A longer run of e has the shorter one as a prefix, so c stops at the
    first count that fails the bound.

    The recursion is one level per run, so its depth is at most the row
    count of parts.  Under GROUP_LIST_CAP that is at most 45 rows, as in
    1^45: a partition of a with r rows lies below the hook
    (a - r + 1, 1^(r-1)), whose up-set alone has p(0) + ... + p(r-1)
    members once a >= 2r - 2.
    """
    a = sum(parts)
    need = list(accumulate(parts, initial=0))  # need[k]: the least sum of k rows; need[len(parts)] = a
    found: list[T] = []

    def place(k: int, s: int, top: int, prefix: T) -> None:
        # k rows placed, summing to s; the rows still to place are at most top
        for e in range(max(1, need[k + 1] - s), min(top, a - s) + 1):
            t, row = s, k
            while t + e <= a:
                t += e
                row += 1
                if t < need[row]:
                    break
                if t == a:
                    found.append(prefix + piece(e, row - k))
                elif e > 1:  # rows shorter than 1 cannot complete it
                    place(row, t, e - 1, prefix + piece(e, row - k) + sep)

    place(0, 0, a, sep[:0])  # the empty prefix, "" or ()
    return found


def _cap_up_set(sylow: Sequence[tuple[int, tuple[int, ...]]], what: Callable[[], str]) -> None:
    """Refuse an up-set of more than GROUP_LIST_CAP groups before it is built.

    The up-set is the product over the primes (p, parts) of sylow of the
    partitions dominating parts, at most the product of p(a) over the
    exponents a.  Only when that bound passes the cap is the up-set counted
    (see _dominating_count), and only a refusal writes what() ("order 64",
    "up-set of Z4xZ2") into its CapacityError.
    """
    bounds = [_partition_count(sum(parts)) for _, parts in sylow]
    if None not in bounds and prod(bounds) <= GROUP_LIST_CAP:
        return
    counts = [_dominating_count(parts) for _, parts in sylow]
    if None in counts:
        raise CapacityError(f"{what()} would have more than {GROUP_LIST_CAP} groups", GROUP_LIST_CAP)
    count = prod(counts)
    if count > GROUP_LIST_CAP:
        raise CapacityError(f"{what()} would have {count} groups", GROUP_LIST_CAP)


def _up_set(
    sylow: Sequence[tuple[int, tuple[int, ...]]], what: Callable[[], str], piece: Callable[[int, int, int], T], sep: T
) -> Iterable[tuple[T, ...]]:
    """The groups above sylow's, lexicographic by prime then partition, each
    as one partition per prime written by piece at p and sep (see
    _dominating), after _cap_up_set.  A cyclic group, one part per prime,
    dominates every group of its order, so it is its own up-set and nothing
    is counted or walked."""
    if all(len(parts) == 1 for _, parts in sylow):
        return [tuple([piece(p, a, 1) for p, (a,) in sylow])]
    _cap_up_set(sylow, what)
    return product(*[_dominating(parts, partial(piece, p), sep) for p, parts in sylow])


def _up_set_groups(sylow: Sequence[tuple[int, tuple[int, ...]]], what: Callable[[], str]) -> list[AbelianType]:
    """The groups above sylow's as AbelianTypes, in _up_set's order."""
    primes = [p for p, _ in sylow]
    walked = _up_set(sylow, what, lambda p, e, c: (e,) * c, ())
    return [AbelianType(tuple(zip(primes, combo))) for combo in walked]


def up_set_texts(sylow: Sequence[tuple[int, tuple[int, ...]]]) -> list[str]:
    """The canonical texts of the groups above sylow's, in up_set's order,
    so sylow's own text comes first and Z_n's last.

    The walk writes each prime's partitions straight to text, run by run,
    so no group object is built.  Only a refusal builds sylow's group, to
    name it in its CapacityError.
    """
    walked = _up_set(sylow, lambda: f"up-set of {AbelianType(tuple(sylow)).text()}", _run_text, "x")
    return list(map(_product_text, walked))


def enumerate_abelian(n: int) -> list[AbelianType]:
    """All abelian groups of order n, once each, lexicographic by prime then partition.

    They are the up-set of the elementary abelian group, 1^a at each prime
    power p^a || n, which every partition of a dominates.  More than
    GROUP_LIST_CAP groups, prod p(a), raise CapacityError before anything
    is built.
    """
    return _up_set_groups([(p, (1,) * a) for p, a in factorize(n)], lambda: f"order {n}")


def up_set(h: AbelianType) -> list[AbelianType]:
    """All groups of the same order that are >= h in the partial order, h included.

    Per prime, the walk lists only the partitions dominating h's (see
    _dominating), so the cost follows the answer, not the number of
    partitions.  An up-set that may pass GROUP_LIST_CAP is counted first,
    and more than GROUP_LIST_CAP groups raise CapacityError before anything
    is built.  The order's factorization is read off h, so nothing is
    factorized.  A cyclic h, one part per prime, is its own up-set, and
    nothing is walked.
    """
    return _up_set_groups(h.sylow, lambda: f"up-set of {h.text()}")


def _cover_pairs(groups: list[AbelianType]) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j) with groups[j] covering groups[i], by i, then j.

    groups is enumerate_abelian's list.  In the product order, h covers g
    exactly when they differ at one prime, where h's partition covers g's
    in dominance order (see _covers); h is found by its sylow pairs.
    """
    index = {g.sylow: i for i, g in enumerate(groups)}
    for i, g in enumerate(groups):
        above = [
            index[g.sylow[:k] + ((p, cover),) + g.sylow[k + 1:]]
            for k, (p, parts) in enumerate(g.sylow)
            for cover in _covers(parts)
        ]
        for j in sorted(above):
            yield i, j


def hasse_edges(n: int) -> list[tuple[AbelianType, AbelianType]]:
    """Cover pairs (g, h) of the partial order on abelian groups of order n.

    Pairs are listed by g, then h, in enumeration order, and pair the
    enumerated groups (see _cover_pairs), so no group is built here.
    """
    groups = enumerate_abelian(n)
    return [(groups[i], groups[j]) for i, j in _cover_pairs(groups)]
