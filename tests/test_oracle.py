import json
import random
from itertools import combinations

import pytest

from brute import element_set_search, element_set_types
from circulant.abelian import AbelianType, enumerate_abelian
from circulant.analyzer import ConnectionSet, realizable_groups
from circulant.digraph import cayley_digraph, directed_cycle
from circulant.errors import CapacityError
from circulant.oracle import (
    EXACT_MATCH,
    MISMATCH,
    ORACLE_CAPPED,
    SOUND_SUBSET,
    ValidationReport,
    _search_type,
    _uniform_cycles,
    cross_validate,
    regular_abelian_types,
)
from circulant.permgroup import PermGroup, Permutation, automorphism_group, direct_product, rotation


def reference_regular_representation(abelian_type):
    """Regular permutation action of an abelian type as a product of rotations."""
    group = None
    for d in abelian_type.invariant_factors():
        cyclic = PermGroup.cyclic(d)
        group = cyclic if group is None else direct_product(group, cyclic)
    return group if group is not None else PermGroup.trivial(1)


def order_profile(elements):
    return tuple(sorted(g.order() for g in elements))


def brute_regular_abelian_types(group, n, max_gens=3):
    """Independent oracle: scan generator subsets, classify by order profiles.

    Order statistics classify finite abelian groups, so matching a found
    regular abelian subgroup's profile against reference representations of
    each type identifies it without any isomorphism search.
    """
    els = group.elements()
    profiles = {
        order_profile(reference_regular_representation(t).elements()): t
        for t in enumerate_abelian(n)
    }
    found = {}
    for r in range(1, max_gens + 1):
        for combo in combinations(els, r):
            sub = _mulclose(combo, Permutation.identity(group.degree))
            if len(sub) != n:
                continue
            if any(a * b != b * a for a in combo for b in combo):
                continue
            if any((not g.is_identity) and g.has_fixed_point() for g in sub):
                continue
            # semiregular with |sub| = degree: regular
            profile = order_profile(sub)
            found[profiles[profile].text()] = profiles[profile]
    return sorted(found.values(), key=lambda t: t.text())


def _mulclose(gens, identity):
    els = {identity, *gens}
    frontier = list(gens)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in els:
                    els.add(q)
                    new.append(q)
        frontier = new
    return els


class TestRegularAbelianTypes:
    def test_uniform_length(self):
        assert _uniform_cycles(Permutation.from_cycles(6, [(0, 1, 2), (3, 4)]).images)[0] is None
        assert _uniform_cycles(rotation(6).images) == (6, [0] * 6)
        assert _uniform_cycles(Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]).images) == (
            2,
            [0, 1, 2, 0, 1, 2],
        )
        # a permutation of orbit numbers, given as a dict as the search builds it
        assert _uniform_cycles({0: 2, 1: 3, 2: 0, 3: 1}) == (2, [0, 1, 0, 1])
        assert _uniform_cycles({0: 1, 1: 0, 2: 2, 3: 3})[0] is None

    def test_rejects_commuting_pair_that_is_not_semiregular(self):
        # h and g commute and have uniform cycles of length 2, but h*g fixes
        # four points, so <h, g> is not semiregular; the second g puts the
        # short cycle of the induced permutation after a long one
        h = Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        for g in (
            Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 6), (5, 7)]),
            Permutation.from_cycles(8, [(0, 2), (1, 3), (4, 5), (6, 7)]),
        ):
            assert g * h == h * g and (h * g).has_fixed_point()
            for pool in ([h, g], [g, h]):
                assert not _search_type({2: pool}, (2, 2), 8)
                assert not element_set_search({2: pool}, (2, 2), 8)
            group = PermGroup(8, (h, g))
            assert regular_abelian_types(group, 8) == element_set_types(group, 8) == []

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_element_set_search_exhaustively(self, n):
        for mask in range(2**n):
            s = {x for x in range(n) if mask >> x & 1}
            aut = automorphism_group(cayley_digraph(n, s))
            assert regular_abelian_types(aut, n) == element_set_types(aut, n), (n, s)

    def test_matches_element_set_search_random(self):
        # half the draws are unions of cosets of a subgroup H outside H, which
        # give wreath-like groups with several types; the rest are plain
        rng = random.Random(113)
        checked = several = 0
        for _ in range(60):
            n = rng.randrange(9, 17)
            if rng.random() < 0.5:
                s = set(rng.sample(range(1, n), rng.randrange(1, n - 1)))
            else:
                step = rng.choice([e for e in range(1, n) if n % e == 0])
                h = range(0, n, step)
                s = {x for x in h if x and rng.random() < 0.5}
                s |= {x + t for x in range(1, step) if rng.random() < 0.5 for t in h}
            aut = automorphism_group(cayley_digraph(n, s))
            if aut.cached_order > 10**6:
                continue  # past the element cap
            found = regular_abelian_types(aut, n)
            assert found == element_set_types(aut, n), (n, s)
            checked += 1
            several += len(found) > 1
        assert checked > 50 and several > 5

    def test_directed_nine_cycle(self):
        aut = automorphism_group(directed_cycle(9))
        assert [g.text() for g in regular_abelian_types(aut, 9)] == ["Z9"]

    def test_block_example_both_groups(self):
        aut = automorphism_group(cayley_digraph(9, {3, 6}))
        got = {g.text() for g in regular_abelian_types(aut, 9)}
        assert got == {"Z3^2", "Z9"}

    def test_worked_example_only_cyclic(self):
        aut = automorphism_group(cayley_digraph(45, {0, 1, 15, 30}))
        got = regular_abelian_types(aut, 45)
        assert got == [AbelianType.cyclic(45)]

    def test_contains_zn_when_rotations_present(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randrange(2, 13)
            s = {rng.randrange(n) for _ in range(rng.randrange(0, 4))}
            aut = automorphism_group(cayley_digraph(n, s))
            if aut.cached_order > 10**6:
                continue
            assert AbelianType.cyclic(n) in regular_abelian_types(aut, n)
        assert regular_abelian_types(PermGroup.trivial(1), 1) == [AbelianType.cyclic(1)]

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            regular_abelian_types(PermGroup.cyclic(4), 8)

    def test_capacity_propagates(self):
        aut = automorphism_group(cayley_digraph(10, set()))  # Sym(10)
        with pytest.raises(CapacityError):
            regular_abelian_types(aut, 10, cap=10**6)

    @pytest.mark.parametrize(
        "n,s",
        [
            (4, set()),
            (4, {1}),
            (4, {2}),
            (4, {1, 3}),
            (4, {1, 2}),
            (6, {1}),
            (6, {3}),
            (8, {1}),
            (8, {1, 2}),
            (9, {1}),
        ],
    )
    def test_matches_subset_brute_force(self, n, s):
        aut = automorphism_group(cayley_digraph(n, s))
        assert aut.cached_order <= 50  # keep the subset scan honest and fast
        expected = [t.text() for t in brute_regular_abelian_types(aut, n)]
        got = sorted(t.text() for t in regular_abelian_types(aut, n))
        assert got == expected

    def test_wreathed_eight_vertex_types(self):
        # frozen from the subset brute force (max_gens=3) on |Aut| = 64;
        # Z_2^3 is correctly absent: this digraph has only one valid level
        aut = automorphism_group(cayley_digraph(8, {1, 5}))
        assert aut.cached_order == 64
        got = sorted(t.text() for t in regular_abelian_types(aut, 8))
        assert got == ["Z4xZ2", "Z8"]

    def test_subset_brute_force_on_kbar4(self):
        aut = automorphism_group(cayley_digraph(4, set()))  # Sym(4)
        expected = [t.text() for t in brute_regular_abelian_types(aut, 4, max_gens=2)]
        got = sorted(t.text() for t in regular_abelian_types(aut, 4))
        assert got == expected == ["Z2^2", "Z4"]


class TestCrossValidate:
    def test_block_example_exact(self):
        report = cross_validate(ConnectionSet.of(9, [3, 6]))
        assert report.verdict == EXACT_MATCH
        assert {g.text() for g in report.actual} == {"Z3^2", "Z9"}

    def test_worked_example_exact(self):
        report = cross_validate(ConnectionSet.of(45, [0, 1, 15, 30]))
        assert report.verdict == EXACT_MATCH
        assert report.actual == (AbelianType.cyclic(45),)

    def test_digon_stack_exact(self):
        report = cross_validate(ConnectionSet.of(8, [4]))
        assert report.verdict == EXACT_MATCH
        assert len(report.actual) == 3

    def test_condition_failing_n_never_mismatches_subset_direction(self):
        rng = random.Random(73)
        for _ in range(20):
            s = ConnectionSet.of(12, {rng.randrange(12) for _ in range(rng.randrange(0, 7))})
            report = cross_validate(s)
            assert report.verdict in (EXACT_MATCH, SOUND_SUBSET, ORACLE_CAPPED)
            if report.actual is not None:
                assert set(report.predicted) <= set(report.actual)

    def test_capacity_degrades_to_capped_verdict(self):
        report = cross_validate(ConnectionSet.of(16, []), cap=10**4)
        assert report.verdict == ORACLE_CAPPED
        assert report.actual is None
        assert report.predicted  # prediction still present

    def test_verdict_invariant(self):
        rng = random.Random(79)
        from circulant.arith import arithmetic_condition

        for _ in range(40):
            n = rng.choice([4, 6, 8, 9, 12])
            s = ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, n))})
            report = cross_validate(s)
            predicted, actual = set(report.predicted), report.actual
            if actual is None:
                assert report.verdict == ORACLE_CAPPED
                continue
            actual = set(actual)
            is_mismatch = (not predicted <= actual) or (
                arithmetic_condition(n) and predicted != actual
            )
            assert (report.verdict == MISMATCH) is is_mismatch

    def test_exhaustive_order_8(self):
        # every connection set of Z_8: the analyzer must match the oracle exactly
        from itertools import combinations

        for r in range(9):
            for combo in combinations(range(8), r):
                report = cross_validate(ConnectionSet.of(8, combo), cap=10**6)
                assert report.verdict == EXACT_MATCH, combo

    def test_prime_orders_trivially_exact(self):
        # single abelian group per prime order; the gcd condition always holds
        rng = random.Random(89)
        for p in (2, 3, 5, 7, 11):
            for _ in range(4):
                s = ConnectionSet.of(p, {rng.randrange(p) for _ in range(rng.randrange(0, 4))})
                report = cross_validate(s, cap=10**5)
                assert report.verdict in (EXACT_MATCH, ORACLE_CAPPED)

    def test_worked_order_45_random_sets(self):
        rng = random.Random(97)
        exact_seen = 0
        for _ in range(6):
            s = ConnectionSet.of(45, {rng.randrange(45) for _ in range(rng.randrange(0, 10))})
            report = cross_validate(s, cap=10**6)
            assert report.verdict != MISMATCH
            if report.verdict == EXACT_MATCH:
                exact_seen += 1
        assert exact_seen > 0

    def test_strip_loops_does_not_change_verdict(self):
        with_loops = cross_validate(ConnectionSet.of(9, [0, 3, 6]))
        without = cross_validate(ConnectionSet.of(9, [0, 3, 6]).without_loops())
        assert with_loops.verdict == without.verdict == EXACT_MATCH
        assert with_loops.actual == without.actual

    def test_prediction_agrees_with_analyzer(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.choice([8, 9, 12, 16])
            s = ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, 6))})
            report = cross_validate(s, cap=10**5)
            assert list(report.predicted) == realizable_groups(s)[0]


class TestValidationReport:
    def test_json_dict(self):
        report = cross_validate(ConnectionSet.of(9, [3, 6]))
        payload = report.to_json_dict()
        assert payload == {
            "n": 9,
            "S": [3, 6],
            "predicted": ["Z3^2", "Z9"],
            "actual": ["Z3^2", "Z9"],
            "verdict": "exact-match",
        }
        json.dumps(payload)

    def test_capped_json_actual_null(self):
        report = ValidationReport(16, (), (AbelianType.cyclic(16),), None, ORACLE_CAPPED)
        assert report.to_json_dict()["actual"] is None
