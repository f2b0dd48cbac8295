import importlib
import json
import random
import time
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from brute import (
    brute_automorphisms,
    compose,
    element_order,
    element_set_search,
    element_set_types,
    from_cycles,
    has_fixed_point,
    is_identity,
    matrix,
    tower_row,
)
from circulant import _refine, oracle, permgroup
from circulant.abelian import AbelianType, enumerate_abelian, up_set
from circulant.arith import factorize
from circulant.analyzer import ConnectionSet, decompose, realizable_groups
from circulant.digraph import cayley_digraph, tower_connection_set
from circulant.errors import CapacityError
from circulant.oracle import (
    EXACT_MATCH,
    MISMATCH,
    ORACLE_CAPPED,
    SOUND_SUBSET,
    ValidationReport,
    _search_type,
    _sylow_subgroup,
    _uniform_cycles,
    cross_validate,
    regular_abelian_types,
)
from circulant.permgroup import (
    PermGroup,
    automorphism_group,
    direct_product,
)


def reference_regular_representation(abelian_type):
    """Regular permutation action of an abelian type as a product of rotations."""
    group = None
    for d in abelian_type.invariant_factors():
        cyclic = PermGroup.cyclic(d)
        group = cyclic if group is None else direct_product(group, cyclic)
    return group if group is not None else PermGroup(1, ())


def order_profile(elements):
    return tuple(sorted(map(element_order, elements)))


def brute_regular_abelian_types(group, n):
    """Independent oracle: scan generator subsets, classify by order profiles.

    Order statistics classify finite abelian groups, so matching a found
    regular abelian subgroup's profile against reference representations of
    each type identifies it without any isomorphism search.  An abelian
    group of order n is generated by at most as many elements as the largest
    exponent in n's factorization, so larger subsets are not scanned.
    """
    max_gens = max(a for _, a in factorize(n))
    els = group.elements()
    profiles = {
        order_profile(reference_regular_representation(t).elements()): t
        for t in enumerate_abelian(n)
    }
    found = {}
    for r in range(1, max_gens + 1):
        for combo in combinations(els, r):
            sub = _mulclose(combo, tuple(range(group.degree)))
            if len(sub) != n:
                continue
            if any(compose(a, b) != compose(b, a) for a in combo for b in combo):
                continue
            if any(not is_identity(g) and has_fixed_point(g) for g in sub):
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
                q = compose(p, g)
                if q not in els:
                    els.add(q)
                    new.append(q)
        frontier = new
    return els


class TestRegularAbelianTypes:
    def test_uniform_length(self):
        assert _uniform_cycles(from_cycles(6, [(0, 1, 2), (3, 4)]))[0] is None
        assert _uniform_cycles(PermGroup.cyclic(6).generators[0]) == (6, [0] * 6)
        assert _uniform_cycles(from_cycles(6, [(0, 3), (1, 4), (2, 5)])) == (
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
        h = from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        for g in (
            from_cycles(8, [(0, 1), (2, 3), (4, 6), (5, 7)]),
            from_cycles(8, [(0, 2), (1, 3), (4, 5), (6, 7)]),
        ):
            assert compose(g, h) == compose(h, g) and has_fixed_point(compose(h, g))
            for pool in ([h, g], [g, h]):
                # the search takes pools in the closure's encoding, bytes below degree 256
                assert not _search_type({2: list(map(bytes, pool))}, (2, 2), 8)
                assert not element_set_search({2: pool}, (2, 2), 8)
            group = PermGroup(8, (h, g))
            assert regular_abelian_types(group) == element_set_types(group, 8) == []

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_element_set_search_exhaustively(self, n):
        for mask in range(2**n):
            s = {x for x in range(n) if mask >> x & 1}
            aut = automorphism_group(cayley_digraph(n, s))
            assert regular_abelian_types(aut) == element_set_types(aut, n), (n, s)

    def test_matches_element_set_search_random(self):
        # half the draws are unions of cosets of a subgroup H outside H, which
        # give wreath-like groups with several types; the rest are plain.  The
        # Sylow subgroups of coset unions at n = 16 and 27 add p-groups whose
        # types repeat an order, where the search cuts the same-order pool
        rng = random.Random(113)

        def coset_union(n):
            step = rng.choice([e for e in range(1, n) if n % e == 0])
            h = range(0, n, step)
            s = {x for x in h if x and rng.random() < 0.5}
            return s | {x + t for x in range(1, step) if rng.random() < 0.5 for t in h}

        groups = []
        for _ in range(60):
            n = rng.randrange(9, 17)
            s = set(rng.sample(range(1, n), rng.randrange(1, n - 1))) if rng.random() < 0.5 else coset_union(n)
            groups.append((n, s, automorphism_group(cayley_digraph(n, s))))
        for n in (16, 27):
            for _ in range(20):
                s = coset_union(n)
                sylow = _sylow_subgroup(cayley_digraph(n, s).row)
                if sylow.cached_order <= 10**4:  # the reference builds each subgroup as a set
                    groups.append((n, s, sylow))
        checked = several = 0
        for n, s, group in groups:
            if group.cached_order > 10**6:
                continue  # past the element cap
            found = regular_abelian_types(group)
            assert found == element_set_types(group, n), (n, s)
            checked += 1
            several += len(found) > 1
        assert checked > 85 and several > 15

    def test_directed_nine_cycle(self):
        aut = automorphism_group(cayley_digraph(9, {1}))
        assert [g.text() for g in regular_abelian_types(aut)] == ["Z9"]

    def test_block_example_both_groups(self):
        aut = automorphism_group(cayley_digraph(9, {3, 6}))
        got = {g.text() for g in regular_abelian_types(aut)}
        assert got == {"Z3^2", "Z9"}

    def test_worked_example_only_cyclic(self):
        aut = automorphism_group(cayley_digraph(45, {0, 1, 15, 30}))
        got = regular_abelian_types(aut)
        assert got == [AbelianType.cyclic(45)]

    def test_contains_zn_when_rotations_present(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randrange(2, 13)
            s = {rng.randrange(n) for _ in range(rng.randrange(0, 4))}
            aut = automorphism_group(cayley_digraph(n, s))
            if aut.cached_order > 10**6:
                continue
            assert AbelianType.cyclic(n) in regular_abelian_types(aut)
        assert regular_abelian_types(PermGroup(1, ())) == [AbelianType.cyclic(1)]

    def test_capacity_propagates(self):
        aut = automorphism_group(cayley_digraph(10, set()))  # Sym(10)
        with pytest.raises(CapacityError):
            regular_abelian_types(aut, cap=10**6)

    def test_cached_order_past_the_cap_builds_no_element(self, monkeypatch):
        # Z_4 has 4 <= cap elements, so only the cached order can refuse it
        def unbuilt(degree):
            raise AssertionError("an element was built")

        monkeypatch.setattr(permgroup, "_encoding", unbuilt)
        group = PermGroup(4, PermGroup.cyclic(4).generators, cached_order=5)
        with pytest.raises(CapacityError) as err:
            regular_abelian_types(group, cap=4)
        assert err.value.cap == 4

    @pytest.mark.parametrize("wrong", [3, 5])
    def test_wrong_cached_order_raises(self, wrong):
        group = PermGroup(4, PermGroup.cyclic(4).generators, cached_order=wrong)
        with pytest.raises(RuntimeError, match=f"cached order {wrong} != enumerated 4"):
            regular_abelian_types(group)

    def test_tuple_search_past_byte_degree(self):
        # D_260 has degree 260 >= 256, so the closure and the search hold
        # tuples; a commutation test that always passed would also find
        # Z2^2xZ5xZ13 among its reflections and rotations
        aut = automorphism_group(cayley_digraph(260, {1, 259}), vertex_cap=260)
        assert aut.cached_order == 520
        start = time.perf_counter()
        found = regular_abelian_types(aut)
        assert time.perf_counter() - start < 2
        assert found == element_set_types(aut, 260)
        assert [t.text() for t in found] == ["Z4xZ5xZ13"]

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
        got = sorted(t.text() for t in regular_abelian_types(aut))
        assert got == expected

    def test_wreathed_eight_vertex_types(self):
        # frozen from the subset brute force on |Aut| = 64;
        # Z_2^3 is correctly absent: this digraph has only one valid level
        aut = automorphism_group(cayley_digraph(8, {1, 5}))
        assert aut.cached_order == 64
        got = sorted(t.text() for t in regular_abelian_types(aut))
        assert got == ["Z4xZ2", "Z8"]

    def test_subset_brute_force_on_kbar4(self):
        aut = automorphism_group(cayley_digraph(4, set()))  # Sym(4)
        expected = [t.text() for t in brute_regular_abelian_types(aut, 4)]
        got = sorted(t.text() for t in regular_abelian_types(aut))
        assert got == expected == ["Z2^2", "Z4"]


class TestCrossValidate:
    def test_block_example_exact(self):
        report = cross_validate(ConnectionSet.of(9, [3, 6]))
        assert report.verdict == EXACT_MATCH
        assert set(report.actual) == {"Z3^2", "Z9"}

    def test_worked_example_exact(self):
        report = cross_validate(ConnectionSet.of(45, [0, 1, 15, 30]))
        assert report.verdict == EXACT_MATCH
        assert report.actual == (AbelianType.cyclic(45).text(),) == ("Z9xZ5",)

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
        # Aut = Z_2 wr S_8; its Sylow 2-subgroup has 2^15 elements, past this cap
        report = cross_validate(ConnectionSet.of(16, [8]), cap=10**4)
        assert report.verdict == ORACLE_CAPPED
        assert report.actual is None
        assert report.predicted  # prediction still present
        assert report.path == "sylow"
        assert report.capped_by == {"cap": "element_cap", "value": 10**4}

    def test_verdict_invariant(self):
        rng = random.Random(79)
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
                decompose(s).arithmetic_condition() and predicted != actual
            )
            assert (report.verdict == MISMATCH) is is_mismatch

    def test_exhaustive_order_8(self):
        # every connection set of Z_8: the analyzer must match the oracle exactly
        from itertools import combinations

        for r in range(9):
            for combo in combinations(range(8), r):
                report = cross_validate(ConnectionSet.of(8, combo), cap=10**6)
                assert report.verdict == EXACT_MATCH, combo

    def test_every_set_up_to_order_5_matches_brute_force(self):
        # n = 1 included: one vertex, whose only automorphism is the identity,
        # so Z1 is the one regular group
        pairs = 0
        for n in range(1, 6):
            for r in range(n + 1):
                for combo in combinations(range(n), r):
                    found = brute_automorphisms(matrix(n, [(u, (u + x) % n) for u in range(n) for x in combo]))
                    expected = sorted(t.text() for t in element_set_types(PermGroup(n, tuple(found)), n))
                    report = cross_validate(ConnectionSet.of(n, combo))
                    assert (sorted(report.actual), report.verdict) == (expected, EXACT_MATCH), (n, combo)
                    pairs += 1
        assert pairs == 62

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
        without = cross_validate(ConnectionSet.of(9, [3, 6]))
        assert with_loops.verdict == without.verdict == EXACT_MATCH
        assert with_loops.actual == without.actual

    def test_prediction_agrees_with_analyzer(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.choice([8, 9, 12, 16])
            s = ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, 6))})
            report = cross_validate(s, cap=10**5)
            assert list(report.predicted) == realizable_groups(s)[0]
            assert list(report.predicted) == [g.text() for g in up_set(decompose(s).minimal_group())]


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
            "aut_order": 1296,  # three disjoint triangles: S_3 wr S_3, of order 6^3 * 3!
            "capped_by": None,
            "path": "sylow",
        }
        json.dumps(payload)

    def test_element_capped_names_cap_and_order(self):
        # Aut of the perfect matching on 18 vertices is Z_2 wr S_9, of order
        # 2^9 * 9!, past the 10^6 element cap; 18 is no prime power
        report = cross_validate(ConnectionSet.of(18, [9]))
        assert report.verdict == ORACLE_CAPPED
        assert report.aut_order == 185794560
        assert report.capped_by == {"cap": "element_cap", "value": 10**6}
        assert report.path == "enumerate"

    def test_vertex_capped_has_no_order(self):
        report = cross_validate(ConnectionSet.of(65, [1]))
        assert report.verdict == ORACLE_CAPPED
        assert report.aut_order is None
        assert report.capped_by == {"cap": "vertex_cap", "value": 64}
        payload = report.to_json_dict()
        assert payload["aut_order"] is None
        assert payload["capped_by"] == {"cap": "vertex_cap", "value": 64}
        assert payload["path"] is None

    def test_capped_json_actual_null(self):
        # a report holds texts, so its JSON round-trips with actual null
        report = ValidationReport(16, (), ("Z16",), None, ORACLE_CAPPED)
        payload = report.to_json_dict()
        assert payload["actual"] is None
        assert json.loads(json.dumps(payload)) == payload


class TestPaths:
    @pytest.mark.parametrize(
        "n,s,path,aut_order",
        [
            (45, [0, 1, 15, 30], "regular", 45),
            (8, [], "symmetric", 40320),
            (9, [3, 6], "sylow", 1296),  # the Sylow subgroup has index 16
            (12, [6], "enumerate", 46080),
            (65, [1], None, None),  # past the vertex cap
            (1, [0], "regular", 1),  # one vertex: the certificate proves Aut_0 = 1
        ],
    )
    def test_one_instance_per_path(self, n, s, path, aut_order):
        report = cross_validate(ConnectionSet.of(n, s))
        assert report.path == path
        assert report.aut_order == aut_order
        assert report.verdict == (ORACLE_CAPPED if path is None else EXACT_MATCH)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_plain_enumeration(self, n):
        # every S at n <= 10 and every S up to units at n = 11, 12, wherever
        # the plain enumeration of Aut stays under the element cap.  S and its
        # complement, with or without 0, have one automorphism group, so each
        # such class is enumerated once.
        units = [c for c in range(1, n) if gcd(c, n) == 1]
        reference = {}
        seen = set()
        compared = 0
        for mask in range(2**n):
            s = frozenset(x for x in range(n) if mask >> x & 1)
            if n > 10:
                labeled = min(tuple(sorted(c * x % n for x in s)) for c in units)
                if labeled in seen:
                    continue
                seen.add(labeled)
            nonzero = s - {0}
            key = min(tuple(sorted(nonzero)), tuple(sorted(set(range(1, n)) - nonzero)))
            if key not in reference:
                try:
                    found = regular_abelian_types(automorphism_group(cayley_digraph(n, s)))
                    reference[key] = tuple(g.text() for g in found)
                except CapacityError:
                    reference[key] = None
            report = cross_validate(ConnectionSet(n, s))
            assert report.verdict != MISMATCH, (n, sorted(s))
            if reference[key] is not None:
                assert report.actual == reference[key], (n, sorted(s), report.path)
                compared += 1
        assert compared > 0.9 * (len(seen) if n > 10 else 2**n)

    @pytest.mark.parametrize(
        "p,a,order",
        [
            (2, 2, 8), (2, 3, 128), (2, 4, 32768), (2, 5, 2**31), (2, 6, 2**63),
            (3, 2, 81), (3, 3, 1594323), (5, 2, 15625), (7, 2, 7**8),
        ],
    )
    def test_tower_coloring_is_a_sylow_subgroup_of_the_symmetric_group(self, p, a, order):
        # every p^a <= 64 with a >= 2: W, the automorphism group of the tower
        # circulant, has order |Sym(p^a)|_p = p^((p^a - 1)/(p - 1)), and is
        # the group of the reference coloring, each group's generators
        # preserving the other's structure
        assert order == p ** ((p**a - 1) // (p - 1))
        n, members = tower_connection_set(p, (1,) * a)
        assert n == p**a
        tower = [int(x in members) for x in range(n)]
        reference = tower_row(p, a)
        aut = automorphism_group(_refine.Circulant(tower))
        w = automorphism_group(_refine.Circulant(reference))
        assert aut.order() == w.order() == order

        def preserves(g, row):
            return all(row[(g[v] - g[u]) % n] == row[(v - u) % n] for u in range(n) for v in range(n))

        assert all(preserves(g, reference) for g in aut.generators)
        assert all(preserves(g, tower) for g in w.generators)

    @pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2)])
    def test_sylow_subgroup_is_aut_meet_tower_group(self, p, a):
        # every S whose automorphism group has at most 10^4 elements, against
        # the reference coloring of W
        n = p**a
        tower = tower_row(p, a)
        checked = 0
        for mask in range(2**n):
            adjacency = [mask >> x & 1 for x in range(n)]
            aut = automorphism_group(_refine.Circulant(adjacency))
            if aut.order() > 10**4:
                continue
            preserved = {
                g for g in aut.elements()
                if all(tower[(g[v] - g[u]) % n] == tower[(v - u) % n] for u in range(n) for v in range(n))
            }
            sylow = _sylow_subgroup(adjacency)
            assert set(sylow.elements()) == preserved, adjacency
            checked += 1
        assert checked > 2**n // 2

    @pytest.mark.parametrize("n,count", [(4, None), (8, None), (9, None)] + [(n, 300) for n in (16, 25, 27, 32, 49, 64)])
    def test_sylow_subgroup_has_index_prime_to_p(self, n, count):
        # the lemma in _sylow_subgroup's docstring: Aut ∩ W is a Sylow
        # p-subgroup of Aut, on every row at n <= 9 and on seeded rows beyond
        ((p, _),) = factorize(n)
        rng = random.Random(n)
        masks = range(2**n) if count is None else [rng.getrandbits(n) for _ in range(count)]
        for mask in masks:
            row = [mask >> x & 1 for x in range(n)]
            aut = automorphism_group(_refine.Circulant(row))
            index, rest = divmod(aut.order(), _sylow_subgroup(row).order())
            assert rest == 0 and index % p != 0, (n, mask)

    @pytest.mark.parametrize("n,s", [(9, {3, 6}), (16, {1, 4, 5, 9, 13})])
    def test_refused_sylow_falls_through_to_enumerate(self, n, s, monkeypatch):
        sylow = cross_validate(ConnectionSet.of(n, s))
        monkeypatch.setattr(oracle, "_sylow_subgroup", lambda *args: None)
        enumerated = cross_validate(ConnectionSet.of(n, s))
        assert (sylow.path, enumerated.path) == ("sylow", "enumerate")
        assert enumerated.actual == sylow.actual
        assert enumerated.verdict == sylow.verdict == EXACT_MATCH

    def test_tower_row_names_valuation_and_digit(self):
        # x = 3^j * y, y prime to 3: color 3j + y % 3; 0 alone gets 3a
        assert tower_row(3, 2) == [6, 1, 2, 4, 1, 2, 5, 1, 2]

    @pytest.mark.parametrize(
        "n,s,expected",
        [
            (9, [3, 6], {"predicted": ["Z3^2", "Z9"], "actual": ["Z3^2", "Z9"], "aut_order": 1296, "path": "sylow"}),
            (12, [6], {"predicted": ["Z2^2xZ3", "Z4xZ3"], "actual": ["Z2^2xZ3", "Z4xZ3"], "aut_order": 46080,
                       "path": "enumerate"}),
        ],
    )
    def test_search_makes_no_sorted_tuple_copy(self, n, s, expected, monkeypatch):
        # the oracle searches the closure as it holds it; elements() is the
        # sorted public view and is never built on the way
        def refused(self, *args):
            raise AssertionError("the oracle built elements()")

        monkeypatch.setattr(PermGroup, "elements", refused)
        report = cross_validate(ConnectionSet.of(n, s)).to_json_dict()
        assert report == {"n": n, "S": s, "verdict": EXACT_MATCH, "capped_by": None, **expected}

    def test_regular_path_enumerates_nothing(self, monkeypatch):
        calls = {"elements": 0, "_closure": 0, "_search_type": 0, "digraph": 0, "__iter__": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(PermGroup, "elements")
        counted(PermGroup, "_closure")
        counted(oracle, "_search_type")
        counted(ConnectionSet, "digraph")
        counted(_refine.Circulant, "__iter__")
        report = cross_validate(ConnectionSet.of(40, [1, 2, 5, 17]))
        assert (report.path, report.aut_order, report.verdict) == ("regular", 40, EXACT_MATCH)
        assert calls == {"elements": 0, "_closure": 0, "_search_type": 0, "digraph": 0, "__iter__": 0}

    @pytest.mark.parametrize(
        "n,predicted,actual",
        [
            (4, ["Z2^2", "Z4"], "Z4"),  # an unsound prediction that lists Z_n
            (8, ["Z2xZ4"], "Z8"),  # one that drops Z_n: echoing it would match
            (45, ["Z9xZ5"], "Z9xZ5"),
        ],
    )
    def test_regular_path_takes_the_cyclic_group_from_n(self, n, predicted, actual, monkeypatch):
        monkeypatch.setattr(oracle, "realizable_groups", lambda s: (predicted, True))
        report = cross_validate(ConnectionSet.of(n, [1]))
        assert (report.path, report.actual) == ("regular", (actual,))
        assert report.verdict == (EXACT_MATCH if predicted == [actual] else MISMATCH)

    def test_regular_path_builds_no_row(self, monkeypatch):
        # connected, co-connected circulants at n = 40..64 with |Aut| = n:
        # the engine reads the matrix and its pair codes from row 0 alone,
        # held by each view, so no row of either view is built
        indexed = []
        real = _refine.Circulant.__getitem__

        def recording(view, u):
            indexed.append(u)
            return real(view, u)

        monkeypatch.setattr(_refine.Circulant, "__getitem__", recording)
        rng = random.Random(151)
        checked = 0
        while checked < 40:
            n = rng.randint(40, 64)
            s = {x for x in range(1, n) if rng.random() < 0.5}
            if gcd(n, *s) != 1 or gcd(n, *(set(range(1, n)) - s)) != 1:
                continue
            indexed.clear()
            report = cross_validate(ConnectionSet.of(n, s))
            assert (report.path, report.aut_order) == ("regular", n), (n, sorted(s))
            assert indexed == [], (n, sorted(s))
            checked += 1


class TestRegularCertificate:
    """``_fixes_every_vertex`` as the regular path's first test: where it
    holds, ``cross_validate`` takes the path with |Aut| = n and calls no
    engine; where it does not, the engine decides as before."""

    def test_a_singled_out_offset_must_generate_z_n(self):
        # Cay(Z_4, {2}): offset 2 is alone in its key, so Aut_0 fixes 0 and
        # 2, but not 1 and 3, and |Aut| = 8
        assert not oracle._fixes_every_vertex(cayley_digraph(4, {2}).row)
        report = cross_validate(ConnectionSet.of(4, [2]))
        assert (report.path, report.aut_order, report.verdict) == ("sylow", 8, EXACT_MATCH)

    def test_an_undecided_row_goes_to_the_engine(self, monkeypatch):
        # |Aut| = 40, which the certificate does not see; the engine proves it
        calls = []
        real = oracle.automorphism_group

        def counted(*args, **kwargs):
            group = real(*args, **kwargs)
            calls.append(group.order())
            return group

        monkeypatch.setattr(oracle, "automorphism_group", counted)
        assert not oracle._fixes_every_vertex(cayley_digraph(40, {1, 2, 5, 17}).row)
        report = cross_validate(ConnectionSet.of(40, [1, 2, 5, 17]))
        assert (report.path, report.aut_order, report.verdict) == ("regular", 40, EXACT_MATCH)
        assert calls == [40]

    def test_certified_lines_make_no_engine_call(self, monkeypatch):
        # Z_3, Z_12 and the base instances of perfbench's verify_connected
        # workload, connected and co-connected circulants at n = 40..64
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        instances = [(3, {1}), (12, {1})]
        instances += [(inst.n, inst.s) for inst in workloads.connected(random.Random(workloads.CORPUS_SEED))]
        assert len(instances) == 122

        def refused(*args, **kwargs):
            raise AssertionError("a certified line called the engine")

        monkeypatch.setattr(oracle, "automorphism_group", refused)
        for n, s in instances:
            report = cross_validate(ConnectionSet.of(n, s))
            assert (report.path, report.aut_order, report.verdict) == ("regular", n, EXACT_MATCH), (n, sorted(s))
