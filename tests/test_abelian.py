import json
import time
from itertools import product

import pytest

from brute import (
    brute_enumerate_abelian,
    brute_hasse_edges,
    brute_partitions,
    brute_subdivision,
    brute_up_set,
    group_order,
    preceq,
    preceq_p,
)
from circulant import abelian
from circulant.abelian import (
    AbelianType,
    _covers,
    _dominating,
    _dominating_count,
    _partition_count,
    _run_text,
    text_of,
    enumerate_abelian,
    hasse_edges,
    up_set,
)
from circulant.cli import main
from circulant.errors import CapacityError

# orders past 400 with many groups: 231, 30 and 42 * 11 of them
LARGE_ORDERS = [2**16, 3**9, 2**10 * 3**6]


def dominates(mu, lam):
    return preceq_p((2, lam), (2, mu))


# frozen via the strip-peeling and subgroup-chain oracles in tests/brute.py:
# the realizability order is total on partitions of 5, so the diagram is a chain
P5_COVER_PAIRS = [
    ((1, 1, 1, 1, 1), (2, 1, 1, 1)),
    ((2, 1, 1, 1), (2, 2, 1)),
    ((2, 2, 1), (3, 1, 1)),
    ((3, 1, 1), (3, 2)),
    ((3, 2), (4, 1)),
    ((4, 1), (5,)),
]


class TestSylowParts:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match=r"parts must be non-increasing: \(1, 2\)"):
            AbelianType(((3, (1, 2)),))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError, match=r"parts must be positive and nonempty: \(\)"):
            AbelianType(((3, ()),))
        with pytest.raises(ValueError, match=r"parts must be positive and nonempty: \(1, 0\)"):
            AbelianType(((2, (1,)), (3, (1, 0))))

    def test_rejects_unsorted_or_duplicate_primes(self):
        with pytest.raises(ValueError, match=r"sorted by distinct primes: \[3, 2\]"):
            AbelianType(((3, (1,)), (2, (1,))))
        with pytest.raises(ValueError, match=r"sorted by distinct primes: \[3, 3\]"):
            AbelianType(((3, (1,)), (3, (2,))))


class TestPreceq:
    def test_preceq_p_examples(self):
        assert preceq_p((3, (2, 2, 1)), (3, (3, 2)))
        assert preceq_p((5, (1, 1, 1, 1, 1)), (5, (5,)))
        assert not preceq_p((2, (3, 1)), (2, (2, 2)))
        assert not preceq_p((2, (2, 2)), (2, (2, 1, 1)))

    def test_diagonal_chain_relations(self):
        # a diagonal Z_{p^2} inside Z_{p^3} x Z_p has cyclic quotient Z_{p^2},
        # so (2,2) precedes (3,1) even though no grouping of {2,2} gives {3,1};
        # confirmed by the subgroup-chain oracle and by a realizable circulant
        assert preceq_p((2, (2, 2)), (2, (3, 1)))
        assert preceq_p((2, (2, 2, 1)), (2, (3, 1, 1)))
        assert not brute_subdivision((2, 2), (3, 1))

    def test_matches_strip_peeling_oracle(self):
        from brute import brute_strip_peelings

        for k in range(1, 8):
            for h in brute_partitions(k):
                reachable = brute_strip_peelings(h)
                for g in brute_partitions(k):
                    assert preceq_p((2, g), (2, h)) is (
                        g in reachable
                    ), (g, h)

    def test_matches_subgroup_chain_oracle(self):
        from brute import brute_chain_products

        for p, max_k in ((2, 4), (3, 3)):
            for k in range(1, max_k + 1):
                for h in brute_partitions(k):
                    products = brute_chain_products(h, p)
                    for g in brute_partitions(k):
                        assert preceq_p((p, g), (p, h)) is (
                            g in products
                        ), (p, g, h)

    def test_subgroup_chain_oracle_spot_checks_order_32(self):
        from brute import brute_chain_products

        products = brute_chain_products((3, 1, 1), 2)
        assert (2, 2, 1) in products
        assert (4, 1) not in products
        assert brute_chain_products((2, 2, 1), 2) == {
            (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)
        }

    def test_preceq_p_rejects_mismatched_primes(self):
        with pytest.raises(ValueError):
            preceq_p((2, (1,)), (3, (1,)))

    def test_preceq_examples(self):
        g = AbelianType.from_parts({3: (1, 1), 5: (1,)})
        h = AbelianType.from_parts({3: (2,), 5: (1,)})
        assert preceq(g, h)
        assert not preceq(h, g)

    def test_preceq_reflexive(self):
        for g in enumerate_abelian(360):
            assert preceq(g, g)

    def test_preceq_rejects_unequal_orders(self):
        with pytest.raises(ValueError):
            preceq(AbelianType.cyclic(4), AbelianType.cyclic(8))

    def test_poset_laws_exhaustive(self):
        # reflexivity, antisymmetry, transitivity over all partitions of k <= 8
        for k in range(1, 9):
            parts = [(2, p) for p in brute_partitions(k)]
            for a in parts:
                assert preceq_p(a, a)
            for a, b in product(parts, repeat=2):
                if a != b and preceq_p(a, b):
                    assert not preceq_p(b, a)
            rel = {(a, b) for a in parts for b in parts if preceq_p(a, b)}
            for a, b in rel:
                for c in parts:
                    if (b, c) in rel:
                        assert (a, c) in rel

    def test_min_and_max_elements(self):
        for k in range(1, 9):
            bottom = (2, (1,) * k)
            top = (2, (k,))
            for p in brute_partitions(k):
                other = (2, p)
                assert preceq_p(bottom, other)
                assert preceq_p(other, top)


class TestEnumerate:
    def test_order_32_has_seven_groups(self):
        groups = enumerate_abelian(32)
        assert len(groups) == 7
        assert len(set(groups)) == 7

    def test_order_45(self):
        groups = enumerate_abelian(45)
        assert [g.text() for g in groups] == ["Z3^2xZ5", "Z9xZ5"]

    def test_order_1(self, capsys):
        # the empty product has one text wherever it is written
        groups = enumerate_abelian(1)
        assert len(groups) == 1
        assert groups[0].text() == AbelianType(()).text() == "Z1"
        assert abelian.up_set_texts([]) == ["Z1"]
        assert main(["poset", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["groups"] == ["Z1"]
        assert main(["analyze", "n=1;S=", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["minimal_group"] == "Z1"

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_order_is_refused(self, capsys, n):
        # the refusal is factorize's, word for word, from the library and from poset
        message = f"expected a positive integer, got {n}"
        for listing in (enumerate_abelian, hasse_edges):
            with pytest.raises(ValueError) as raised:
                listing(n)
            assert str(raised.value) == message
        assert main(["poset", str(n)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_partition_counts(self):
        # number of abelian groups of order p^k is the partition count of k
        assert len(enumerate_abelian(2**6)) == 11
        assert len(enumerate_abelian(3**4)) == 5
        assert len(enumerate_abelian(36)) == 4  # p(2)^2

    def test_orders_and_invariants(self):
        for g in enumerate_abelian(360):
            assert group_order(g) == 360
            inv = g.invariant_factors()
            assert all(inv[i] % inv[i + 1] == 0 for i in range(len(inv) - 1))

    def test_matches_brute_listing(self):
        # the walk up from 1^a lists what the recursive partition lister does, in its order
        for n in list(range(1, 2001)) + LARGE_ORDERS + [2**30]:
            assert enumerate_abelian(n) == brute_enumerate_abelian(n), n

    def test_invariant_factors_examples(self):
        assert AbelianType.cyclic(45).invariant_factors() == (45,)
        assert AbelianType.from_parts({3: (1, 1), 5: (1,)}).invariant_factors() == (15, 3)
        assert AbelianType.from_parts({2: (1, 1, 1)}).invariant_factors() == (2, 2, 2)


class TestUpSet:
    def test_elementary_abelian_8(self):
        got = {g.text() for g in up_set(AbelianType.from_parts({2: (1, 1, 1)}))}
        assert got == {"Z2^3", "Z4xZ2", "Z8"}

    def test_top_element_alone(self):
        assert up_set(AbelianType.cyclic(3**5)) == [AbelianType.cyclic(3**5)]

    def test_order_45(self):
        got = {g.text() for g in up_set(AbelianType.from_parts({3: (1, 1), 5: (1,)}))}
        assert got == {"Z3^2xZ5", "Z9xZ5"}

    def test_matches_definition(self):
        for n in range(2, 401):
            for h in enumerate_abelian(n):
                assert up_set(h) == brute_up_set(h), h

    def test_cyclic_group_comes_last(self):
        # every up-set holds Z_n, the top element, and lists it last: the
        # oracle's regular path reads Z_n off the end of the prediction
        for n in range(2, 401):
            for h in enumerate_abelian(n):
                assert up_set(h)[-1] == AbelianType.cyclic(n), h

    @pytest.mark.parametrize("n", LARGE_ORDERS)
    def test_matches_definition_at_large_orders(self, n):
        for h in enumerate_abelian(n):
            assert up_set(h) == brute_up_set(h), h

    def test_walks_covers_without_listing_partitions(self, monkeypatch):
        groups = [
            AbelianType.cyclic(2**50),
            AbelianType.from_parts({2: (19, 1, 1, 1)}),
            AbelianType.from_parts({3: (1, 1), 5: (1,)}),
        ]
        expected = [[groups[0]]] + [brute_up_set(h) for h in groups[1:]]

        def no_listing(n):
            raise AssertionError(f"up_set listed every group of order {n}")

        monkeypatch.setattr(abelian, "enumerate_abelian", no_listing)
        assert [up_set(h) for h in groups] == expected

    def test_cyclic_group_is_its_own_up_set_without_a_walk(self, monkeypatch):
        # one part per prime: h dominates every group of its order, so
        # up_set returns [h] with no count and no walk
        small = [AbelianType.cyclic(n) for n in range(2, 65)]
        expected = [brute_up_set(h) for h in small]

        def no_walk(parts, piece, sep):
            raise AssertionError(f"up_set walked the up-set of {parts}")

        monkeypatch.setattr(abelian, "_dominating", no_walk)
        assert [up_set(h) for h in small] == expected
        for n in (2**61, 3**38, 2**30 * 3**18, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 1_000_000_007):
            h = AbelianType.cyclic(n)
            assert group_order(h) <= 2**61 and up_set(h) == [h], n

    def test_cap_counts_the_answer_not_the_partitions(self):
        # p(61) is past the cap, but the cyclic group is the top element
        assert up_set(AbelianType.cyclic(2**61)) == [AbelianType.cyclic(2**61)]
        with pytest.raises(CapacityError, match="would have 966467 groups"):
            up_set(AbelianType.from_parts({2: (1,) * 60}))
        # at most p(a) partitions of a dominate one, so an up-set is counted
        # when the product of p(a) passes the cap: p(45) = 89,134 is within
        # it, and so are p(20) = 627 and p(16) = 231, but not their product
        with pytest.raises(CapacityError, match="would have 105558 groups"):
            up_set(AbelianType.from_parts({2: (1,) * 46}))
        with pytest.raises(CapacityError, match="would have 144837 groups"):
            up_set(AbelianType.from_parts({2: (1,) * 20, 3: (1,) * 16}))
        with pytest.raises(CapacityError, match="would have 1394126244 groups"):
            up_set(AbelianType.from_parts({2: (1,) * 40, 3: (1,) * 40}))

    def test_no_count_within_the_bound(self, monkeypatch):
        # bounds p(22) = 1,002 and p(10) * p(6) = 462: no count, the same lists;
        # the first pass extends the list of p(a)
        groups = [
            AbelianType.from_parts({2: (1,) * 22}),
            AbelianType.from_parts({2: (4, 3, 1, 1, 1), 3: (2, 2, 1, 1)}),
            AbelianType.from_parts({2: (1,) * 10, 3: (1,) * 6}),
        ]
        expected = [brute_up_set(h) for h in groups]
        assert [up_set(h) for h in groups] == expected

        def no_count(parts, cap=None):
            raise AssertionError(f"counted the up-set of {parts} within the bound")

        monkeypatch.setattr(abelian, "_dominating_count", no_count)
        assert [up_set(h) for h in groups] == expected


class TestDominanceWalk:
    def test_walk_matches_brute_force(self):
        # ascending lexicographic order is sorted order, so parts comes first and (k) last
        for k in range(1, 17):
            parts = brute_partitions(k)
            for lam in parts:
                above = sorted(mu for mu in parts if dominates(mu, lam))
                assert _dominating(lam, lambda e, c: (e,) * c, ()) == above, lam
                assert above[0] == lam and above[-1] == (k,)
                for p in (2, 3):
                    texts = _dominating(lam, lambda e, c: _run_text(p, e, c), "x")
                    assert texts == [text_of(p, mu) for mu in above], (p, lam)

    def test_covers_match_brute_force(self):
        for k in range(1, 16):
            parts = brute_partitions(k)
            for lam in parts:
                above = [mu for mu in parts if mu != lam and dominates(mu, lam)]
                covers = [mu for mu in above if not any(nu != mu and dominates(mu, nu) for nu in above)]
                assert sorted(_covers(lam)) == covers, lam

    def test_dominating_count_matches_brute_force(self):
        for k in range(1, 13):
            parts = brute_partitions(k)
            for lam in parts:
                assert _dominating_count(lam) == sum(dominates(mu, lam) for mu in parts), lam

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 10, 30, 100])
    def test_dominating_count_at_or_below_the_cap_is_exact(self, cap, monkeypatch):
        monkeypatch.setattr(abelian, "GROUP_LIST_CAP", cap)
        for k in range(1, 13):
            parts = brute_partitions(k)
            for lam in parts:
                size = sum(dominates(mu, lam) for mu in parts)
                got = _dominating_count(lam)
                if size <= cap:
                    assert got == size, lam
                else:
                    assert got is None or got == size, lam

    @pytest.mark.parametrize("lam", [(2,) * 500, (3,) * 300], ids=["2^500", "3^300"])
    def test_refuses_flat_partitions_quickly(self, lam):
        # a full count of either takes seconds; the walk passes the cap on its second row
        start = time.perf_counter()
        assert _dominating_count(lam) is None
        with pytest.raises(CapacityError, match="would have more than 100000 groups"):
            up_set(AbelianType.from_parts({2: lam}))
        assert time.perf_counter() - start < 0.5

    def test_partition_numbers(self):
        assert _dominating_count((1,) * 40) == 37338
        assert _dominating_count((1,) * 60) == 966467
        assert _dominating_count((1,) * 80) == 15796476

    def test_partition_count_stops_at_the_first_exponent_past_the_cap(self):
        exact = [_dominating_count((1,) * a) for a in range(1, 47)]
        assert exact[44:] == [89134, 105558]
        assert [_partition_count(a) for a in range(1, 47)] == exact[:45] + [None]
        assert _partition_count(1000) is None  # p(1000) is never computed
        assert abelian._PARTITIONS == [1] + exact

    def test_enumerate_past_the_cap(self):
        with pytest.raises(CapacityError, match="would have 105558 groups"):
            enumerate_abelian(2**46)
        with pytest.raises(CapacityError):
            hasse_edges(2**80)


class TestHasse:
    def test_p5_cover_pairs(self):
        for p in (2, 3):
            edges = {
                (dict(a.sylow)[p], dict(b.sylow)[p]) for a, b in hasse_edges(p**5)
            }
            assert edges == set(P5_COVER_PAIRS)

    def test_p2(self):
        edges = hasse_edges(4)
        assert len(edges) == 1
        a, b = edges[0]
        assert a.text() == "Z2^2" and b.text() == "Z4"

    def test_prime_has_no_edges(self):
        assert hasse_edges(7) == []

    def test_first_incomparable_pair_at_exponent_six(self):
        # the order is total on partitions of k <= 5; at k = 6 the types
        # Z_8xZ_2^3 and Z_4^3 are incomparable (12 cover pairs, frozen from
        # the strip-peeling oracle)
        a = (2, (3, 1, 1, 1))
        b = (2, (2, 2, 2))
        assert not preceq_p(a, b) and not preceq_p(b, a)
        assert len(enumerate_abelian(2**6)) == 11
        edges = {
            (dict(x.sylow)[2], dict(y.sylow)[2]) for x, y in hasse_edges(2**6)
        }
        assert edges == {
            ((1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1)),
            ((2, 1, 1, 1, 1), (2, 2, 1, 1)),
            ((2, 2, 1, 1), (2, 2, 2)),
            ((2, 2, 1, 1), (3, 1, 1, 1)),
            ((2, 2, 2), (3, 2, 1)),
            ((3, 1, 1, 1), (3, 2, 1)),
            ((3, 2, 1), (3, 3)),
            ((3, 2, 1), (4, 1, 1)),
            ((3, 3), (4, 2)),
            ((4, 1, 1), (4, 2)),
            ((4, 2), (5, 1)),
            ((5, 1), (6,)),
        }

    def test_matches_brute_cover_check(self):
        for n in list(range(1, 401)) + LARGE_ORDERS[:2]:
            assert hasse_edges(n) == brute_hasse_edges(n), n

    def test_builds_only_the_enumerated_groups(self, monkeypatch):
        # each h is the enumerated group with its sylow pairs, looked up, not built
        built = []
        real = AbelianType.__init__

        def counted(group, *args, **kwargs):
            built.append(group)
            real(group, *args, **kwargs)

        monkeypatch.setattr(AbelianType, "__init__", counted)
        for n in (2**6, 2**4 * 3**3, 360):
            expected = brute_hasse_edges(n)
            built.clear()
            edges = hasse_edges(n)
            during = built[:]
            assert during == enumerate_abelian(n), n
            assert edges == expected, n

    def test_transitive_closure_matches_strict_order(self):
        for k in range(2, 7):
            groups = enumerate_abelian(2**k)
            edges = set(hasse_edges(2**k))
            reach = {g: {g} for g in groups}
            # propagate cover edges to a full reachability relation
            changed = True
            while changed:
                changed = False
                for a, b in edges:
                    for src, targets in reach.items():
                        if a in targets and b not in targets:
                            targets.add(b)
                            changed = True
            for g in groups:
                for h in groups:
                    assert (h in reach[g]) is preceq(g, h)


class TestTextForm:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ({3: (2,), 5: (1,)}, "Z9xZ5"),
            ({3: (1, 1), 5: (1,)}, "Z3^2xZ5"),
            ({2: (3, 1, 1)}, "Z8xZ2^2"),
            ({2: (1,), 3: (1,), 5: (1,)}, "Z2xZ3xZ5"),
        ],
    )
    def test_examples(self, parts, expected):
        assert AbelianType.from_parts(parts).text() == expected

    def test_texts_unique_per_order(self):
        for n in (64, 360, 45):
            texts = [g.text() for g in enumerate_abelian(n)]
            assert len(set(texts)) == len(texts)
