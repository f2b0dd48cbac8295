import random

import pytest

from brute import arc_set, brute_automorphisms, matrix, wreath, wreath_tower
from circulant import digraph
from circulant.digraph import (
    cayley_digraph,
    dot_lines,
    edge_list_lines,
    tower_arcs,
    tower_connection_set,
)
from circulant.errors import CapacityError
from circulant.permgroup import automorphism_group

K2 = cayley_digraph(2, {1})  # the digon
K2BAR = matrix(2, ())


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


# the named cases first, then every other tower on at most 32, 27 and 25 vertices
TOWERS = [(2, (1, 1)), (2, (2, 1)), (2, (1, 1, 1)), (3, (1, 1)), (3, (2,)), (5, (1, 1)), (2, (1, 2))]
TOWERS += [
    (p, layers)
    for p, max_total in [(2, 5), (3, 3), (5, 2)]
    for total in range(1, max_total + 1)
    for layers in _compositions(total)
    if (p, layers) not in TOWERS
]


def tower_vertex(p, layers, g):
    """The tower vertex of element g of the tower's circulant presentation.

    Outermost factor first, v takes g's residue mod q = p^k as the next
    fiber coordinate, and g drops to g // q for the factors inside it.
    """
    v = 0
    for k in layers:
        q = p**k
        v = v * q + g % q
        g //= q
    return v


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
        assert arc_set(cayley_digraph(3, {1})) == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_bidirected_square(self):
        arcs = arc_set(cayley_digraph(4, {1, 3}))
        assert len(arcs) == 8
        assert all((v, u) in arcs for u, v in arcs)

    def test_out_of_range_element(self):
        for x in (4, -1):
            with pytest.raises(ValueError, match=f"element {x} out of range for Z_4"):
                cayley_digraph(4, {1, x})

    def test_worked_example_n45(self):
        # the same set in Z_9 x Z_5 coordinates is {(3k, 0) : k in Z_3} plus
        # (1, 1); translate through the CRT isomorphism x -> (x mod 9, x mod 5)
        def crt(a, b):
            return next(x for x in range(45) if x % 9 == a and x % 5 == b)

        s = {crt((3 * k) % 9, 0) for k in range(3)} | {crt(1, 1)}
        assert s == {0, 1, 15, 30}
        arcs = arc_set(cayley_digraph(45, s))
        assert len(arcs) == 180
        assert sum(1 for u, v in arcs if u == v) == 45

    def test_rotation_is_automorphism(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(2, 201)
            s = {rng.randrange(n) for _ in range(rng.randrange(0, 6))}
            arcs = arc_set(cayley_digraph(n, s))
            assert arcs == {(g, (g + x) % n) for g in range(n) for x in s}
            assert all(((u + 1) % n, (v + 1) % n) in arcs for u, v in arcs)


class TestWreath:
    """The reference wreath product that ``brute.wreath_tower`` builds towers with."""

    def test_arc_count_formula_examples(self):
        d3 = cayley_digraph(3, {1})
        assert len(arc_set(wreath(d3, d3))) == 3 * 3 + 3 * 9

    def test_arc_count_formula_random(self):
        # exact for loopless outer digraphs; inner loops are fine
        rng = random.Random(11)
        for _ in range(100):
            a = _random_digraph(rng, rng.randrange(1, 9), loops=False)
            b = _random_digraph(rng, rng.randrange(1, 9))
            w = wreath(a, b)
            assert len(w) == len(a) * len(b)
            assert len(arc_set(w)) == len(a) * len(arc_set(b)) + len(arc_set(a)) * len(b) ** 2

    def test_arc_count_with_outer_loops(self):
        # an outer loop's complete bundle absorbs that fiber's inner copy
        rng = random.Random(12)
        for _ in range(50):
            a = _random_digraph(rng, rng.randrange(1, 9))
            b = _random_digraph(rng, rng.randrange(1, 9))
            w = wreath(a, b)
            outer_loops = sum(1 for u, v in arc_set(a) if u == v)
            assert len(arc_set(w)) == (
                len(a) * len(arc_set(b)) + len(arc_set(a)) * len(b) ** 2 - outer_loops * len(arc_set(b))
            )

    def test_kbar3_wr_k3_is_cay_9_36(self):
        # g -> (g % 3) * 3 + g // 3 carries Cay(Z_9, {3,6}) onto the wreath:
        # the cosets of <3> are the fibers
        w = wreath(matrix(3, ()), cayley_digraph(3, range(1, 3)))
        image = {((u % 3) * 3 + u // 3, (v % 3) * 3 + v // 3) for u, v in arc_set(cayley_digraph(9, {3, 6}))}
        assert image == arc_set(w)

    def test_identity_factor(self):
        d = cayley_digraph(5, {1, 2})
        assert arc_set(wreath(d, matrix(1, ()))) == arc_set(d)

    def test_associative_up_to_isomorphism(self):
        # the vertex numbering is mixed radix either way, so the two are equal
        rng = random.Random(5)
        for _ in range(20):
            a, b, c = (_random_digraph(rng, rng.randrange(1, 4)) for _ in range(3))
            assert wreath(wreath(a, b), c) == wreath(a, wreath(b, c))


class TestTower:
    def test_single_layer_is_directed_cycle(self):
        assert matrix(*tower_arcs(3, (1,))) == [list(r) for r in cayley_digraph(3, {1})]
        assert matrix(*tower_arcs(5, (1,))) == [list(r) for r in cayley_digraph(5, {1})]

    def test_p2_digon_alternation(self):
        t = matrix(*tower_arcs(2, (1, 1)))
        assert t == wreath(K2, K2BAR)
        # third factor is K_2 again because the second was K_2-bar
        t3 = matrix(*tower_arcs(2, (1, 1, 1)))
        assert t3 == wreath(wreath(K2, K2BAR), K2)

    def test_p2_11_automorphism_count_brute(self):
        assert len(brute_automorphisms(matrix(*tower_arcs(2, (1, 1))))) == 8

    @pytest.mark.parametrize("p,max_total", [(2, 7), (3, 4), (5, 3)])
    def test_arcs_come_in_sorted_order(self, p, max_total):
        # every tower on at most 128, 81 and 125 vertices: tower_arcs generates the
        # arcs of the factor-by-factor wreath build, each once, in sorted order, also
        # when the layers come as a one-shot iterator
        for total in range(1, max_total + 1):
            for layers in _compositions(total):
                n, arcs = tower_arcs(p, iter(layers))
                assert n == p**total
                assert list(arcs) == sorted(arc_set(wreath_tower(p, layers))), (p, layers)

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            tower_arcs(2, ())
        with pytest.raises(ValueError):
            tower_arcs(2, (0,))

    def test_arc_cap_is_checked_before_building(self, monkeypatch):
        # the arithmetic arc count is exact: a cap of arcs builds, arcs - 1 refuses
        towers = [(2, (1,)), (2, (1, 1, 1)), (2, (2, 1)), (3, (1, 2)), (5, (1, 1))]
        counts = [len(list(tower_arcs(p, layers)[1])) for p, layers in towers]
        for (p, layers), arcs in zip(towers, counts):
            monkeypatch.setattr(digraph, "DEFAULT_ELEMENT_CAP", arcs)
            assert len(list(tower_arcs(p, layers)[1])) == arcs
            monkeypatch.setattr(digraph, "DEFAULT_ELEMENT_CAP", arcs - 1)
            with pytest.raises(CapacityError):
                tower_arcs(p, layers)
        with pytest.raises(CapacityError, match="16777216 arcs"):
            tower_arcs(2, (24,))

    @pytest.mark.parametrize("p,max_total", [(2, 4), (3, 3)])
    def test_automorphism_order_matches_wreath_formula(self, p, max_total):
        # every tower with total degree <= 16 (p=2) resp. <= 27 (p=3); the
        # engine's cached order is exact even past the element cap (3^13)
        for total in range(1, max_total + 1):
            for layers in _compositions(total):
                group = automorphism_group(matrix(*tower_arcs(p, layers)))
                assert group.cached_order == tower_order_formula(p, layers), (p, layers)


class TestTowerConnectionSet:
    @pytest.mark.parametrize("p,layers", TOWERS)
    def test_circulant_presentation_is_isomorphic(self, p, layers):
        # tower_vertex is a bijection carrying the presentation's arcs onto the tower's
        n, s = tower_connection_set(p, layers)
        assert sorted(tower_vertex(p, layers, g) for g in range(n)) == list(range(n))
        image = {(tower_vertex(p, layers, u), tower_vertex(p, layers, v)) for u, v in arc_set(cayley_digraph(n, s))}
        assert image == arc_set(wreath_tower(p, layers))

    def test_element_cap_is_checked_before_building(self, monkeypatch):
        # the arithmetic size is exact: a cap of |S| builds, |S| - 1 refuses
        towers = [(2, (1,)), (2, (1, 1, 1)), (2, (2, 1)), (3, (1, 2)), (5, (1, 1))]
        presentations = [tower_connection_set(p, layers) for p, layers in towers]
        for (p, layers), (n, s) in zip(towers, presentations):
            monkeypatch.setattr(digraph, "DEFAULT_ELEMENT_CAP", len(s))
            assert tower_connection_set(p, layers) == (n, s)
            monkeypatch.setattr(digraph, "DEFAULT_ELEMENT_CAP", len(s) - 1)
            with pytest.raises(CapacityError, match=f"would have {len(s)} elements"):
                tower_connection_set(p, layers)

    def test_directed_cycle_case(self):
        n, s = tower_connection_set(3, (2,))
        assert (n, set(s)) == (9, {1})

    @pytest.mark.parametrize("p", [1, 0, -3, 4, 6])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            tower_connection_set(p, (1, 1))
        with pytest.raises(ValueError, match="p must be prime"):
            tower_arcs(p, (1,))


class TestFormats:
    def test_edge_list_text(self):
        lines = edge_list_lines(5, sorted(arc_set(cayley_digraph(5, {1, 2}))))
        assert "\n".join(lines) == "n=5\n0 1\n0 2\n1 2\n1 3\n2 3\n2 4\n3 0\n3 4\n4 0\n4 1"

    def test_edge_list_header(self):
        lines = list(edge_list_lines(3, sorted(arc_set(cayley_digraph(3, {1})))))
        assert lines[0] == "n=3"
        assert "0 1" in lines

    def test_dot_contains_arcs(self):
        lines = list(dot_lines(3, sorted(arc_set(cayley_digraph(3, {1}))), name="c3"))
        assert lines[0] == "digraph c3 {" and lines[-1] == "}"
        assert "  0 -> 1;" in lines


def _random_digraph(rng, n, loops=True):
    arcs = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if (loops or u != v) and rng.random() < 0.3
    }
    return matrix(n, arcs)
