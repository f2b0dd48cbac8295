"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test records one PASS/FAIL line, echoed at the end of the pytest run.
"""

import random
import time
from math import prod

import conftest
from circulant.abelian import AbelianType, enumerate_abelian, hasse_edges
from circulant.analyzer import ConnectionSet, decompose, realizable_groups, translation_check
from circulant.digraph import tower_connection_set, tower_digraph
from circulant.oracle import EXACT_MATCH, MISMATCH, ORACLE_CAPPED, cross_validate
from circulant.permgroup import (
    PermGroup,
    automorphism_group,
    direct_product,
    is_nilpotent,
    two_closure,
    wreath_product,
)

# The realizability order (chains with cyclic quotients) is total on
# partitions of 5, so the diagram of the 7 groups of order 32 is a chain.
# Frozen from the independent strip-peeling and subgroup-chain oracles; the
# multiset-grouping reading would add 3 spurious incomparabilities and is
# refuted by the realizable circulant pinned in criterion 5's regression.
P5_COVER_PAIRS = {
    ((1, 1, 1, 1, 1), (2, 1, 1, 1)),
    ((2, 1, 1, 1), (2, 2, 1)),
    ((2, 2, 1), (3, 1, 1)),
    ((3, 1, 1), (3, 2)),
    ((3, 2), (4, 1)),
    ((4, 1), (5,)),
}


class _criterion:
    """Times a criterion, records its PASS/FAIL line, enforces the budget."""

    def __init__(self, name, budget_seconds):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        conftest.ACCEPTANCE_RESULTS.append(
            f"[{status}] {self.name}  ({elapsed:.2f}s, budget {self.budget:.0f}s)"
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(f"{self.name}: took {elapsed:.2f}s, budget {self.budget}s")
        return False


def test_criterion_1_worked_example_n45():
    with _criterion("1: worked example n=45 (analyze)", 1.0):
        s = ConnectionSet.of(45, [0, 1, 15, 30])
        groups, exact = realizable_groups(s)
        assert groups == [AbelianType.cyclic(45).text()] == ["Z9xZ5"]
        assert exact is True
        assert decompose(s).minimal_group() == AbelianType.cyclic(45)
    with _criterion("1: worked example n=45 (oracle verify)", 60.0):
        report = cross_validate(s, cap=10**6)
        assert report.verdict in (EXACT_MATCH, ORACLE_CAPPED)
        assert report.verdict != MISMATCH


def test_criterion_2_block_digraph_n9():
    with _criterion("2: block digraph n=9 S={3,6}", 5.0):
        s = ConnectionSet.of(9, [3, 6])
        groups, _ = realizable_groups(s)
        assert set(groups) == {"Z3^2", "Z9"}
        assert decompose(s).minimal_group() == AbelianType.from_parts({3: (1, 1)})
        aut = automorphism_group(s.digraph())
        assert aut.cached_order == 1296  # |Sym(3) wr Sym(3)|
        report = cross_validate(s, cap=10**6)
        assert report.verdict == EXACT_MATCH


def test_criterion_3_tower_automorphism_orders():
    cases = [(2, (1, 1)), (2, (2, 1)), (2, (1, 1, 1)), (3, (1, 1))]
    for p, layers in cases:
        with _criterion(f"3: tower aut order p={p} layers={layers}", 10.0):
            expected = 1
            total = 0
            for k in layers:
                expected *= (p**k) ** (p**total)
                total += k
            assert automorphism_group(tower_digraph(p, layers)).cached_order == expected


def test_criterion_4_figure_poset_order_32():
    with _criterion("4: poset of order 32", 5.0):
        groups = enumerate_abelian(32)
        assert len(groups) == 7
        edges = {
            (dict(a.sylow)[2], dict(b.sylow)[2]) for a, b in hasse_edges(32)
        }
        assert edges == P5_COVER_PAIRS


def test_criterion_5_prime_power_oracle_equivalence():
    with _criterion("5: oracle equivalence, 200 random S per n in {4,8,9,16,25,27}", 300.0):
        # regression: the level-2-only digraph realizing Z_8 x Z_2 through a
        # diagonal chain; the grouping reading of the order misses it
        report = cross_validate(ConnectionSet.of(16, [1, 4, 5, 9, 13]), cap=10**6)
        assert report.verdict == EXACT_MATCH
        assert set(report.actual) == {"Z4^2", "Z8xZ2", "Z16"}

        rng = random.Random(20260810)
        cache = {}
        capped = 0
        checked = 0
        for n in (4, 8, 9, 16, 25, 27):
            for _ in range(200):
                members = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
                key = (n, members)
                if key not in cache:
                    cache[key] = cross_validate(ConnectionSet.of(n, members), cap=10**6)
                report = cache[key]
                assert report.verdict != MISMATCH, (n, sorted(members))
                if report.verdict == ORACLE_CAPPED:
                    capped += 1
                else:
                    # prime powers satisfy the gcd condition: exactness required
                    assert report.verdict == EXACT_MATCH, (n, sorted(members))
                    checked += 1
        assert checked > 900  # the cap must not swallow the suite
        # only Z_3 wr S_9 at n = 27 (S = {18}) is left: its Sylow 3-subgroup
        # has 3^13 elements
        assert capped <= 1


def test_criterion_6_unconditional_soundness():
    with _criterion("6: soundness, 100 random S per n in {12,18}", 300.0):
        rng = random.Random(1215)
        cache = {}
        capped = 0
        for n in (12, 18):
            for _ in range(100):
                members = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
                key = (n, members)
                if key not in cache:
                    cache[key] = cross_validate(ConnectionSet.of(n, members), cap=10**6)
                report = cache[key]
                assert report.verdict != MISMATCH, (n, sorted(members))
                capped += report.verdict == ORACLE_CAPPED
                if report.actual is not None:
                    assert set(report.predicted) <= set(report.actual)
        assert capped <= 1  # Z_2 wr S_9 at n = 18, past the element cap


def test_criterion_7_coset_condition_iff_local_translations():
    with _criterion("7: translation check on 500 random instances, n <= 100", 60.0):
        rng = random.Random(77)
        from circulant.analyzer import subgroup_of_order
        from circulant.arith import factorize

        exercised = 0
        for _ in range(500):
            n = rng.randrange(4, 101)
            if rng.random() < 0.5:
                members = {rng.randrange(n) for _ in range(rng.randrange(0, 10))}
            else:
                members = set()
                square_full = [(p, a) for p, a in factorize(n).factors if a >= 2]
                if square_full:
                    p, a = rng.choice(square_full)
                    level = rng.randrange(1, a)
                    sub = subgroup_of_order(n, p**level)
                    members = {x for x in subgroup_of_order(n, p**level * (n // p**a)) if rng.random() < 0.4}
                    for _ in range(rng.randrange(0, 4)):
                        base = rng.randrange(n)
                        members |= {(base + t) % n for t in sub}
            s = ConnectionSet.of(n, members)
            for layers in decompose(s).per_prime:
                for level in layers.valid_levels:
                    assert translation_check(s, layers.p, level) is True
                    exercised += 1
        assert exercised > 100


def test_criterion_8_generate_analyze_round_trip():
    with _criterion("8: tower round trip, total degree <= 32", 60.0):
        rng = random.Random(99)
        cases = []
        for p in (2, 3, 5):
            max_total = {2: 5, 3: 3, 5: 2}[p]
            for _ in range(10):
                total = rng.randrange(1, max_total + 1)
                layers = []
                remaining = total
                while remaining:
                    k = rng.randrange(1, remaining + 1)
                    layers.append(k)
                    remaining -= k
                cases.append((p, tuple(layers)))
        for p, layers in cases:
            n, members = tower_connection_set(p, layers)
            assert n == p ** sum(layers) and n <= 32
            decomposition = decompose(ConnectionSet.of(n, members))
            got = decomposition.for_prime(p).layer_sizes
            assert sorted(got) == sorted(layers), (p, layers, got)


def criterion_9_catalogue():
    """The nilpotent transitive groups criterion 9 samples from, unshuffled:
    iterated wreath products of cyclic p-groups, cyclic groups of prime
    order, and direct products of those, all of degree at most 12."""

    def tower_group(p, layers):
        group = PermGroup.cyclic(p ** layers[0])
        for k in layers[1:]:
            group = wreath_product(group, PermGroup.cyclic(p**k))
        return group

    catalog = []
    for p, max_total in ((2, 3), (3, 2)):
        partitions = {
            (2, 1): [(1,)],
            (2, 2): [(2,), (1, 1)],
            (2, 3): [(3,), (2, 1), (1, 2), (1, 1, 1)],
            (3, 1): [(1,)],
            (3, 2): [(2,), (1, 1)],
        }
        for total in range(1, max_total + 1):
            for layers in partitions[(p, total)]:
                catalog.append(tower_group(p, layers))
    catalog.extend(PermGroup.cyclic(p) for p in (5, 7, 11))
    degree_ok = [g for g in catalog if g.degree <= 12]
    # direct products of p-groups are nilpotent for any primes; the
    # product action is transitive when both factors are
    products = [
        direct_product(a, b)
        for a in degree_ok
        for b in degree_ok
        if a.degree * b.degree <= 12
    ]
    return degree_ok + products


def test_criterion_9_nilpotent_two_closures():
    with _criterion("9: 2-closures of 20 nilpotent transitive groups", 120.0):
        rng = random.Random(5)
        pool = criterion_9_catalogue()
        rng.shuffle(pool)
        sample = pool[:20]
        assert len(sample) == 20
        for group in sample:
            assert group.is_transitive()
            assert is_nilpotent(group)
            closed = two_closure(group)
            assert is_nilpotent(closed)
            closed_els = {g for g in closed.elements(10**6)}
            assert all(g in closed_els for g in group.generators)
