import random

import pytest

from brute import brute_automorphisms
from circulant import digraph
from circulant.digraph import (
    Digraph,
    are_isomorphic,
    cayley_digraph,
    complete_digraph,
    directed_cycle,
    edge_list_text,
    dot_text,
    empty_digraph,
    parse_edge_list,
    tower_connection_set,
    tower_digraph,
    wreath,
)
from circulant.errors import CapacityError
from circulant.permgroup import automorphism_group

K2 = directed_cycle(2)  # the digon
K2BAR = empty_digraph(2)


def tower_order_formula(p, layers):
    """|Z_{p^k1} wr ... wr Z_{p^kj}| = prod (p^ki)^(p^(k1+...+k(i-1)))."""
    total = 0
    order = 1
    for k in layers:
        order *= (p**k) ** (p**total)
        total += k
    return order


class TestCayley:
    def test_directed_triangle(self):
        assert cayley_digraph(3, {1}).arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_bidirected_square(self):
        d = cayley_digraph(4, {1, 3})
        assert d.arc_count == 8
        assert all((v, u) in d.arcs for u, v in d.arcs)

    def test_out_of_range_element(self):
        with pytest.raises(ValueError):
            cayley_digraph(4, {4})

    def test_worked_example_n45(self):
        # the same set in Z_9 x Z_5 coordinates is {(3k, 0) : k in Z_3} plus
        # (1, 1); translate through the CRT isomorphism x -> (x mod 9, x mod 5)
        def crt(a, b):
            return next(x for x in range(45) if x % 9 == a and x % 5 == b)

        s = {crt((3 * k) % 9, 0) for k in range(3)} | {crt(1, 1)}
        assert s == {0, 1, 15, 30}
        d = cayley_digraph(45, s)
        assert d.arc_count == 180
        assert sum(1 for u, v in d.arcs if u == v) == 45

    def test_rotation_is_automorphism(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(2, 201)
            s = {rng.randrange(n) for _ in range(rng.randrange(0, 6))}
            d = cayley_digraph(n, s)
            assert all(((u + 1) % n, (v + 1) % n) in d.arcs for u, v in d.arcs)


class TestWreath:
    def test_arc_count_formula_examples(self):
        d3 = directed_cycle(3)
        assert wreath(d3, d3).arc_count == 3 * 3 + 3 * 9

    def test_arc_count_formula_random(self):
        # exact for loopless outer digraphs; inner loops are fine
        rng = random.Random(11)
        for _ in range(100):
            a = _random_digraph(rng, rng.randrange(1, 9), loops=False)
            b = _random_digraph(rng, rng.randrange(1, 9))
            w = wreath(a, b)
            assert w.vertex_count == a.vertex_count * b.vertex_count
            assert w.arc_count == (
                a.vertex_count * b.arc_count + a.arc_count * b.vertex_count**2
            )

    def test_arc_count_with_outer_loops(self):
        # an outer loop's complete bundle absorbs that fiber's inner copy
        rng = random.Random(12)
        for _ in range(50):
            a = _random_digraph(rng, rng.randrange(1, 9))
            b = _random_digraph(rng, rng.randrange(1, 9))
            w = wreath(a, b)
            outer_loops = sum(1 for u, v in a.arcs if u == v)
            assert w.arc_count == (
                a.vertex_count * b.arc_count
                + a.arc_count * b.vertex_count**2
                - outer_loops * b.arc_count
            )

    def test_kbar3_wr_k3_is_cay_9_36(self):
        w = wreath(empty_digraph(3), complete_digraph(3))
        witness = are_isomorphic(w, cayley_digraph(9, {3, 6}))
        assert witness is not None

    def test_identity_factor(self):
        d = cayley_digraph(5, {1, 2})
        assert are_isomorphic(wreath(d, empty_digraph(1)), d) is not None

    def test_associative_up_to_isomorphism(self):
        rng = random.Random(5)
        for _ in range(20):
            a, b, c = (_random_digraph(rng, rng.randrange(1, 4)) for _ in range(3))
            left = wreath(wreath(a, b), c)
            right = wreath(a, wreath(b, c))
            assert are_isomorphic(left, right) is not None


class TestTower:
    def test_single_layer_is_directed_cycle(self):
        assert are_isomorphic(tower_digraph(3, (1,)), directed_cycle(3)) is not None
        assert tower_digraph(5, (1,)) == directed_cycle(5)

    def test_p2_digon_alternation(self):
        t = tower_digraph(2, (1, 1))
        assert t == wreath(K2, K2BAR)
        # third factor is K_2 again because the second was K_2-bar
        t3 = tower_digraph(2, (1, 1, 1))
        assert t3 == wreath(wreath(K2, K2BAR), K2)

    def test_p2_11_automorphism_count_brute(self):
        assert len(brute_automorphisms(tower_digraph(2, (1, 1)))) == 8

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            tower_digraph(2, ())
        with pytest.raises(ValueError):
            tower_digraph(2, (0,))

    def test_arc_cap_is_checked_before_building(self, monkeypatch):
        # the arithmetic arc count is exact: a cap of arcs builds, arcs - 1 refuses
        towers = [(2, (1,)), (2, (1, 1, 1)), (2, (2, 1)), (3, (1, 2)), (5, (1, 1))]
        counts = [len(tower_digraph(p, layers).arcs) for p, layers in towers]
        for (p, layers), arcs in zip(towers, counts):
            monkeypatch.setattr(digraph, "DEFAULT_ELEMENT_CAP", arcs)
            assert len(tower_digraph(p, layers).arcs) == arcs
            monkeypatch.setattr(digraph, "DEFAULT_ELEMENT_CAP", arcs - 1)
            with pytest.raises(CapacityError):
                tower_digraph(p, layers)
        with pytest.raises(CapacityError, match="16777216 arcs"):
            tower_digraph(2, (24,))

    @pytest.mark.parametrize("p,max_total", [(2, 4), (3, 3)])
    def test_automorphism_order_matches_wreath_formula(self, p, max_total):
        # every tower with total degree <= 16 (p=2) resp. <= 27 (p=3); the
        # engine's cached order is exact even past the element cap (3^13)
        for total in range(1, max_total + 1):
            for layers in _compositions(total):
                group = automorphism_group(tower_digraph(p, layers))
                assert group.cached_order == tower_order_formula(p, layers), (p, layers)


class TestTowerConnectionSet:
    @pytest.mark.parametrize(
        "p,layers",
        [(2, (1, 1)), (2, (2, 1)), (2, (1, 1, 1)), (3, (1, 1)), (3, (2,)), (5, (1, 1)), (2, (1, 2))],
    )
    def test_circulant_presentation_is_isomorphic(self, p, layers):
        n, s = tower_connection_set(p, layers)
        assert are_isomorphic(cayley_digraph(n, s), tower_digraph(p, layers)) is not None

    def test_directed_cycle_case(self):
        n, s = tower_connection_set(3, (2,))
        assert (n, set(s)) == (9, {1})

    @pytest.mark.parametrize("p", [1, 0, -3, 4, 6])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            tower_connection_set(p, (1, 1))
        with pytest.raises(ValueError, match="p must be prime"):
            tower_digraph(p, (1,))


class TestIsomorphism:
    def test_cycle_and_its_reversal(self):
        d = directed_cycle(3)
        assert are_isomorphic(d, d.reverse()) is not None

    def test_k2_vs_k2bar(self):
        assert are_isomorphic(K2, K2BAR) is None

    def test_witness_maps_arcs_bijectively(self):
        rng = random.Random(17)
        for _ in range(30):
            a = _random_digraph(rng, rng.randrange(2, 7))
            perm = list(range(a.vertex_count))
            rng.shuffle(perm)
            b = Digraph(a.vertex_count, frozenset((perm[u], perm[v]) for u, v in a.arcs))
            witness = are_isomorphic(a, b)
            assert witness is not None
            assert {(witness[u], witness[v]) for u, v in a.arcs} == set(b.arcs)

    def test_non_isomorphic_same_degree_sequence(self):
        # directed 6-cycle vs two directed triangles
        two_triangles = Digraph(6, frozenset({(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}))
        assert are_isomorphic(directed_cycle(6), two_triangles) is None

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            are_isomorphic(empty_digraph(70), empty_digraph(70))
        with pytest.raises(CapacityError):
            are_isomorphic(empty_digraph(10), empty_digraph(10), vertex_cap=9)


class TestFormats:
    def test_edge_list_round_trip(self):
        d = cayley_digraph(5, {1, 2})
        assert parse_edge_list(edge_list_text(d)) == d

    def test_edge_list_header(self):
        text = edge_list_text(directed_cycle(3))
        assert text.splitlines()[0] == "n=3"
        assert "0 1" in text.splitlines()

    def test_dot_contains_arcs(self):
        text = dot_text(directed_cycle(3), name="c3")
        assert text.startswith("digraph c3 {")
        assert "  0 -> 1;" in text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_edge_list("0 1\n1 2")


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _random_digraph(rng, n, loops=True):
    arcs = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if (loops or u != v) and rng.random() < 0.3
    }
    return Digraph(n, frozenset(arcs))
