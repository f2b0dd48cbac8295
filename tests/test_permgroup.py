import random
import time

import pytest

from brute import (
    brute_automorphisms,
    brute_closure,
    brute_orbital_coloring,
    brute_pair_orbit_preservers,
    arc_set,
    cycle_lengths,
    from_cycles,
    has_fixed_point,
    is_identity,
    lower_central_nilpotent,
    matrix,
    wreath,
)
from test_acceptance import criterion_9_catalogue
from circulant import _refine, permgroup
from circulant.digraph import cayley_digraph, tower_arcs
from circulant.errors import CapacityError
from circulant.abelian import AbelianType
from circulant.oracle import _sylow_subgroup, regular_abelian_types
from circulant.permgroup import (
    PermGroup,
    automorphism_group,
    direct_product,
    is_nilpotent,
    orbital_coloring,
    two_closure,
    wreath_product,
)


def symmetric(n):
    """Sym(n), as the automorphism group of the arcless digraph, with its order n!."""
    return automorphism_group(matrix(n, ()))


class TestPermutation:
    """A permutation of range(n) is its image tuple; PermGroup checks each
    generator where it enters."""

    def test_rejects_non_bijection(self):
        # a repeated image, too short, too long, an image out of range
        for degree, generator in [(3, (0, 0, 1)), (3, (1, 0)), (3, (0, 2, 1, 3)), (2, (1, 2))]:
            with pytest.raises(ValueError, match="not a permutation"):
                PermGroup(degree, [generator])

    @pytest.mark.parametrize(
        "images,identity,fixed",
        [((0, 1, 2), True, True), ((1, 0, 2), False, True), ((1, 2, 0), False, False), ((), True, False)],
    )
    def test_identity_and_fixed_points(self, images, identity, fixed):
        assert is_identity(images) is identity
        assert has_fixed_point(images) is fixed

    def test_from_cycles(self):
        assert from_cycles(3, [(0, 1, 2)]) == (1, 2, 0)


class TestOrbitsAndRegularity:
    def test_orbits_three_cycle_on_five_points(self):
        g = from_cycles(5, [(0, 1, 2)])
        assert cycle_lengths(g) == [1, 1, 3]
        assert not PermGroup(5, [g]).is_transitive()
        assert PermGroup(3, [from_cycles(3, [(0, 1, 2)])]).is_transitive()

    def test_trivial_group_orbits(self):
        assert cycle_lengths((0, 1, 2, 3)) == [1, 1, 1, 1]
        assert not PermGroup(4, ()).is_transitive()
        assert PermGroup(1, ()).is_transitive()

    def test_rotation_single_orbit(self):
        assert cycle_lengths(PermGroup.cyclic(7).generators[0]) == [7]
        assert PermGroup.cyclic(7).is_transitive()

    def test_rotations_regular(self):
        assert regular_abelian_types(PermGroup.cyclic(12)) == [AbelianType.cyclic(12)]

    def test_sym3_not_regular(self):
        # transitive, but of order 6 on 3 points; its regular subgroup is A_3
        g = symmetric(3)
        assert g.is_transitive() and g.order() == 6
        assert regular_abelian_types(g) == [AbelianType.cyclic(3)]

    def test_klein_regular(self):
        g = PermGroup(
            4,
            [
                from_cycles(4, [(0, 1), (2, 3)]),
                from_cycles(4, [(0, 2), (1, 3)]),
            ],
        )
        assert [t.text() for t in regular_abelian_types(g)] == ["Z2^2"]


class TestElements:
    def test_two_element_group(self):
        g = PermGroup(2, [from_cycles(2, [(0, 1)])])
        assert len(g.elements()) == 2

    def test_sym4(self):
        assert len(symmetric(4).elements()) == 24

    def test_sym10_capacity(self):
        g = PermGroup(10, symmetric(10).generators)
        with pytest.raises(CapacityError) as err:
            g.elements(10**6)
        assert err.value.cap == 10**6

    def test_cached_order_validated_by_enumeration(self):
        for d in (cayley_digraph(5, {1}), matrix(*tower_arcs(2, (1, 1))), matrix(4, ())):
            g = automorphism_group(d)
            assert g.cached_order == len(g.elements())

    def test_elements_sorted_and_deterministic(self):
        g = symmetric(4)
        els = g.elements()
        assert list(els) == sorted(els)

    def test_order_small(self):
        assert PermGroup.cyclic(9).order() == 9
        assert PermGroup(5, symmetric(5).generators).order() == 120

    def test_tuple_closure_past_byte_degree(self):
        # degree >= 256 does not fit bytes images, so the tuple closure runs
        cases = [
            (PermGroup.cyclic(300), 300),
            (direct_product(symmetric(4), PermGroup.cyclic(64)), 24 * 64),
        ]
        for group, order in cases:
            assert group.degree >= 256
            els = group.elements()
            assert len(els) == order
            assert list(els) == sorted(els)
            assert els[0] == tuple(range(group.degree))


def _closure_cases():
    yield from ((f"S{k}", symmetric(k)) for k in range(4, 8))
    yield "Z300", PermGroup.cyclic(300)
    yield "S4xZ64", direct_product(symmetric(4), PermGroup.cyclic(64))
    yield from ((f"criterion 9 #{i}", g) for i, g in enumerate(criterion_9_catalogue()))
    for n, s in [(9, {3, 6}), (12, {6}), (12, {3, 9}), (16, {2, 14}), (16, {1, 8, 15}), (25, {5})]:
        d = cayley_digraph(n, s)
        yield f"Aut n={n} S={sorted(s)}", automorphism_group(d)
        sylow = _sylow_subgroup(d.row)
        if sylow is not None:
            yield f"Sylow n={n} S={sorted(s)}", sylow


class TestClosure:
    """``PermGroup._closure`` adds each new coset whole; ``brute_closure``
    tests each element of it, and the two lists agree element by element."""

    def test_matches_the_reference_in_order(self):
        for name, group in _closure_cases():
            assert [tuple(e) for e in group._closure(10**6)] == brute_closure(group, 10**6), name

    @pytest.mark.parametrize("byte_images", [True, False])
    def test_cap_at_the_order_closes_and_one_below_refuses(self, byte_images):
        # no cached order, so the cap is met inside the closure, at its last coset
        if byte_images:
            group, order = PermGroup(5, symmetric(5).generators), 120
        else:
            group, order = direct_product(symmetric(4), PermGroup.cyclic(64)), 24 * 64
        assert group.cached_order is None
        assert len(group._closure(order)) == order
        with pytest.raises(CapacityError) as err:
            group._closure(order - 1)
        assert err.value.cap == order - 1


class TestGroupProducts:
    def test_direct_product_order(self):
        g = direct_product(PermGroup.cyclic(4), PermGroup.cyclic(3))
        assert g.degree == 12
        assert g.order() == 12
        assert g.is_transitive()

    def test_wreath_product_order(self):
        g = wreath_product(PermGroup.cyclic(2), PermGroup.cyclic(2))
        assert g.degree == 4
        assert g.order() == 8
        g2 = wreath_product(PermGroup.cyclic(3), PermGroup.cyclic(3))
        assert g2.order() == 3 * 3**3

    def test_wreath_needs_transitive_outer(self):
        intransitive = PermGroup(4, [from_cycles(4, [(0, 1)])])
        with pytest.raises(ValueError):
            wreath_product(intransitive, PermGroup.cyclic(2))


class TestNilpotent:
    def test_cyclic_nilpotent(self):
        assert is_nilpotent(PermGroup.cyclic(6))

    def test_sym3_not_nilpotent(self):
        assert not is_nilpotent(symmetric(3))

    def test_wreath_2_2_nilpotent(self):
        assert is_nilpotent(wreath_product(PermGroup.cyclic(2), PermGroup.cyclic(2)))

    def test_dihedral_like_not_nilpotent(self):
        # Sym(3) x Z_2 in product action: Sylow 3 not normal
        assert not is_nilpotent(direct_product(symmetric(3), PermGroup.cyclic(2)))

    def test_p_group_nilpotent(self):
        g = wreath_product(PermGroup.cyclic(2), wreath_product(PermGroup.cyclic(2), PermGroup.cyclic(2)))
        assert is_nilpotent(g)

    def test_matches_the_lower_central_series(self):
        rng = random.Random(61)
        small = [PermGroup.cyclic(k) for k in (1, 2, 3, 4)] + [symmetric(3)]
        pool = [PermGroup.cyclic(k) for k in range(1, 13)] + [symmetric(k) for k in range(2, 6)]
        pool += [direct_product(a, b) for a in small for b in small]
        pool += [wreath_product(a, b) for a in small for b in small if a.order() * b.order() ** a.degree <= 120]
        for n in range(2, 7):
            for mask in range(2**n):
                aut = automorphism_group(cayley_digraph(n, {x for x in range(n) if mask >> x & 1}))
                pool += [aut, two_closure(aut)]
        for _ in range(800):
            n = rng.randrange(2, 7)
            group = PermGroup(n, [_random_permutation(rng, n) for _ in range(rng.randrange(1, 3))])
            pool += [group, two_closure(group)]
        # distinct groups only; the reference is quadratic in the order, so
        # Sym(6) and Alt(6) (3.0 and 0.6 s) are left out
        groups = {}
        for group in pool:
            if group.order() <= 120:
                groups.setdefault(group.elements(), group)
        verdicts = [is_nilpotent(g) for g in groups.values()]
        assert verdicts == [lower_central_nilpotent(g) for g in groups.values()]
        assert len(verdicts) >= 200 and verdicts.count(False) >= 50

    def test_certified_prime_power_order_needs_no_enumeration(self):
        # |Aut| = 3^13 is past the element cap, but the engine certified it
        group = automorphism_group(matrix(*tower_arcs(3, (1, 1, 1))))
        assert group.cached_order == 3**13 > permgroup.DEFAULT_ELEMENT_CAP
        assert is_nilpotent(group)

    def test_enumerates_unless_the_order_is_a_certified_prime_power(self, monkeypatch):
        enumerated = []
        real = PermGroup._closure

        def counted(group, *args):
            enumerated.append(group.cached_order)
            return real(group, *args)

        monkeypatch.setattr(PermGroup, "_closure", counted)
        z2_wr_z2 = wreath_product(PermGroup.cyclic(2), PermGroup.cyclic(2)).generators
        cases = [
            (PermGroup(4, z2_wr_z2), True, [None]),  # no cached order
            (PermGroup(4, z2_wr_z2, cached_order=8), True, []),
            (PermGroup(3, (), cached_order=1), True, []),
            (symmetric(3), False, [6]),  # 6 is no prime power
            (PermGroup.cyclic(6), True, [6]),
        ]
        for group, nilpotent, orders in cases:
            enumerated.clear()
            assert is_nilpotent(group) is nilpotent
            assert enumerated == orders

    def test_order_and_nilpotence_make_no_sorted_copy(self, monkeypatch):
        # both read the closure as it is built, bytes below degree 256 and tuples from 256 on
        cases = [
            (PermGroup(5, symmetric(5).generators), 120, False),
            (direct_product(PermGroup.cyclic(4), PermGroup.cyclic(3)), 12, True),
            (PermGroup(300, PermGroup.cyclic(300).generators), 300, True),
            (direct_product(symmetric(3), PermGroup.cyclic(100)), 600, False),
        ]

        def no_sorted_copy(group, *args):
            raise AssertionError("built the sorted tuple copy")

        monkeypatch.setattr(PermGroup, "elements", no_sorted_copy)
        for group, order, nilpotent in cases:
            assert group.cached_order is None
            assert group.order() == order
            assert is_nilpotent(group) is nilpotent

    def test_order_two_to_the_fifteen_tower_group(self):
        group = automorphism_group(matrix(*tower_arcs(2, (1, 1, 1, 1))))
        assert group.order() == 2**15
        start = time.perf_counter()
        assert is_nilpotent(group)
        assert time.perf_counter() - start < 1


class TestAutomorphismGroup:
    @pytest.mark.parametrize("k", [3, 4, 5, 7, 9])
    def test_directed_cycle(self, k):
        assert automorphism_group(cayley_digraph(k, {1})).cached_order == k

    def test_empty_graph_full_symmetric(self):
        assert automorphism_group(matrix(4, ())).cached_order == 24

    def test_tower_2_11(self):
        assert automorphism_group(matrix(*tower_arcs(2, (1, 1)))).cached_order == 8

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randrange(2, 6)
            arcs = {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.35}
            d = matrix(n, arcs)
            group = automorphism_group(d)
            brute = set(brute_automorphisms(d))
            assert group.cached_order == len(brute)
            assert set(group.elements()) == brute

    def test_paley_tournament_multiplier_stabilizer(self):
        # vertex-transitive with nontrivial point stabilizer: refinement alone
        # cannot split anything, so this exercises the search; 21 = 7 * 3 was
        # pinned by scanning all of Sym(7)
        d = cayley_digraph(7, {1, 2, 4})
        group = automorphism_group(d)
        assert group.cached_order == len(brute_automorphisms(d)) == 21
        assert automorphism_group(cayley_digraph(13, {1, 3, 9})).cached_order == 39

    def test_contains_rotations(self):
        rng = random.Random(37)
        for _ in range(12):
            n = rng.randrange(2, 31)
            s = {rng.randrange(n) for _ in range(rng.randrange(0, 5))}
            group = automorphism_group(cayley_digraph(n, s))
            imgs = set(group.elements(10**6)) if group.cached_order <= 10**6 else None
            if imgs is not None:
                assert PermGroup.cyclic(n).generators[0] in imgs
            else:
                # order too large to enumerate: rotation must still preserve arcs
                arcs = arc_set(cayley_digraph(n, s))
                assert all(((u + 1) % n, (v + 1) % n) in arcs for u, v in arcs)

    def test_wreath_embedding_lower_bound(self):
        rng = random.Random(41)
        for _ in range(10):
            n1, n2 = rng.randrange(1, 5), rng.randrange(1, 5)
            a = matrix(n1, {(u, v) for u in range(n1) for v in range(n1) if rng.random() < 0.3})
            b = matrix(n2, {(u, v) for u in range(n2) for v in range(n2) if rng.random() < 0.3})
            big = automorphism_group(wreath(a, b)).cached_order
            small = (
                automorphism_group(a).cached_order
                * automorphism_group(b).cached_order ** len(a)
            )
            assert big >= small

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            automorphism_group(matrix(65, ()))

    def test_capacity_error_before_the_matrix_is_built(self, monkeypatch):
        def refuse(circulant, u):
            raise AssertionError("adjacency row built past the vertex cap")

        monkeypatch.setattr(_refine.Circulant, "__getitem__", refuse)
        with pytest.raises(CapacityError):
            automorphism_group(cayley_digraph(65, {1}))
        with pytest.raises(CapacityError):
            automorphism_group(cayley_digraph(9, {1}), vertex_cap=8)

    def test_colored_structure(self):
        # two arc colors break the 4-cycle symmetry down to rotations of even step
        colors = [[0] * 4 for _ in range(4)]
        colors[0][1] = colors[2][3] = 1
        colors[1][2] = colors[3][0] = 2
        assert automorphism_group(colors).cached_order == 2

    @pytest.mark.parametrize("colors", [[[0, 1], [1]], [[0, 1, 2], [1, 0, 2]], [[0], [1, 0]]])
    def test_color_matrix_must_be_square(self, colors):
        with pytest.raises(ValueError, match="square"):
            automorphism_group(colors)


class TestCirculantColoring:
    """The engine's ``Circulant`` view of a first row, as the oracle hands it
    to ``automorphism_group``."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_cayley_adjacency_exhaustively(self, n):
        # cayley_digraph's view, built row by row, is the adjacency matrix of the arcs g -> g + s
        for mask in range(2**n):
            s = {x for x in range(n) if mask >> x & 1}
            built = [list(r) for r in cayley_digraph(n, s)]
            assert built == matrix(n, {(g, (g + x) % n) for g in range(n) for x in s}), s

    def test_entries_follow_the_difference(self):
        row = (5, 0, 3, 0, 7, 2, 1)
        colors = _refine.Circulant(row)
        assert all(colors[u][v] == row[(v - u) % 7] for u in range(7) for v in range(7))


class TestOrbitalColoring:
    """``orbital_coloring`` against the search over pairs in ``tests/brute.py``,
    orbit numbering included."""

    def test_criterion_9_catalogue(self):
        for g in criterion_9_catalogue():
            assert orbital_coloring(g) == brute_orbital_coloring(g)

    def test_random_groups(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randrange(1, 13)
            gens = [_random_permutation(rng, n) for _ in range(rng.randrange(0, 4))]
            g = PermGroup(n, gens)
            assert orbital_coloring(g) == brute_orbital_coloring(g), gens

    def test_seeded_circulant_automorphism_groups(self):
        # S a union of cosets of the subgroup of index m, half the time made
        # symmetric, so Aut ranges from Z_n through wreath products
        rng = random.Random(67)
        beyond_rotations = set()
        for _ in range(20):
            n = rng.randrange(16, 65)
            m = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            residues = {x for x in range(m) if rng.random() < 0.4}
            s = {x for x in range(1, n) if x % m in residues}
            if rng.random() < 0.5:
                s |= {n - x for x in s}
            g = automorphism_group(cayley_digraph(n, s))
            beyond_rotations.add(g.cached_order > n)
            assert orbital_coloring(g) == brute_orbital_coloring(g), (n, sorted(s))
        assert beyond_rotations == {False, True}


class TestTwoClosure:
    def test_vertex_cap_before_the_coloring_is_built(self, monkeypatch):
        def refuse(group):
            raise AssertionError("orbital coloring built past the vertex cap")

        monkeypatch.setattr(permgroup, "orbital_coloring", refuse)
        with pytest.raises(CapacityError) as err:
            two_closure(PermGroup.cyclic(65))
        assert err.value.cap == 64

    def test_trivial_group(self):
        assert two_closure(PermGroup(5, ())).cached_order == 1

    def test_symmetric_group_closed(self):
        g = two_closure(symmetric(4))
        assert g.cached_order == 24

    def test_regular_z4_closed_matches_brute(self):
        g = PermGroup.cyclic(4)
        closed = two_closure(g)
        brute = brute_pair_orbit_preservers(brute_orbital_coloring(g))
        assert closed.cached_order == len(brute) == 4
        assert set(closed.elements()) == set(brute)

    def test_contains_original_group(self):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randrange(2, 9)
            gens = [_random_permutation(rng, n) for _ in range(rng.randrange(1, 3))]
            g = PermGroup(n, gens)
            closed = two_closure(g)
            closed_set = set(closed.elements(10**6))
            assert all(gen in closed_set for gen in gens)

    def test_idempotent(self):
        rng = random.Random(47)
        for _ in range(8):
            n = rng.randrange(2, 9)
            gens = [_random_permutation(rng, n) for _ in range(rng.randrange(1, 3))]
            once = two_closure(PermGroup(n, gens))
            twice = two_closure(once)
            assert twice.cached_order == once.cached_order
            assert twice.elements(10**6) == once.elements(10**6)

    def test_matches_pair_orbit_brute_force(self):
        rng = random.Random(59)
        for _ in range(10):
            n = rng.randrange(2, 6)
            gens = [_random_permutation(rng, n) for _ in range(rng.randrange(1, 3))]
            g = PermGroup(n, gens)
            closed = two_closure(g)
            brute = brute_pair_orbit_preservers(brute_orbital_coloring(g))
            assert closed.cached_order == len(brute)
            assert set(closed.elements()) == set(brute)

    def test_digraph_automorphism_groups_are_closed(self):
        # the automorphism group of a digraph preserves its own pair orbits
        # exactly, so closing it again must not grow it
        for n, s in [(9, {3, 6}), (8, {4}), (12, {1, 2}), (7, {1, 2, 4})]:
            aut = automorphism_group(cayley_digraph(n, s))
            assert two_closure(aut).cached_order == aut.cached_order

    def test_nilpotent_closure_nilpotent_smoke(self):
        # the full 20-group suite lives in the acceptance tests
        for g in (
            wreath_product(PermGroup.cyclic(2), PermGroup.cyclic(2)),
            direct_product(PermGroup.cyclic(4), PermGroup.cyclic(3)),
            PermGroup.cyclic(12),
        ):
            assert is_nilpotent(two_closure(g))


def _random_permutation(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)
