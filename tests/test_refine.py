"""The refinement engine against its plain-loop reference and brute force.

A circulant in its natural labeling takes the shift-seeded shortcut at level
0 of the automorphism search; a relabeled copy does not, so comparing the
two exercises both paths.
"""

import random
from itertools import chain, combinations

import pytest

from brute import brute_automorphisms, brute_pair_orbit_preservers, brute_refine, reference_automorphisms
from circulant import _refine
from circulant.digraph import Digraph, cayley_digraph, directed_cycle
from circulant.permgroup import ArcColoring, automorphism_group


def cells(colors):
    out = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return sorted(out.values())


def seeded(m, individualized):
    """Diagonal colors with the given vertices individualized, as the searches seed them."""
    colors, next_color = _refine._diagonal_colors(m)
    for i, v in enumerate(individualized):
        colors[v] = next_color + i
    return colors


def relabel(m, perm):
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            out[perm[u]][perm[v]] = m[u][v]
    return out


def shift_invariant(m):
    n = len(m)
    return all(m[(u + 1) % n] == m[u][-1:] + m[u][:-1] for u in range(n))


def preserves(g, m):
    n = len(m)
    return all(m[g[u]][g[v]] == m[u][v] for u in range(n) for v in range(n))


def random_structure(rng):
    """A digraph, an arc coloring or a relabeled circulant on at most 40 vertices."""
    n = rng.randint(1, 40)
    kind = rng.randrange(3)
    if kind == 0:
        arcs = {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3}
        return Digraph(n, frozenset(arcs)).adjacency_matrix()
    if kind == 1:
        colors = tuple(tuple(rng.randrange(-1, 3) for _ in range(n)) for _ in range(n))
        return ArcColoring(colors).matrix()
    s = {x for x in range(n) if rng.random() < 0.4}
    m = cayley_digraph(n, s).adjacency_matrix()
    return relabel(m, rng.sample(range(n), n)) if rng.random() < 0.5 else m


class TestRefine:
    def test_matches_reference(self):
        rng = random.Random(83)
        for _ in range(150):
            m = random_structure(rng)
            n = len(m)
            for k in (0, 1, 2):
                colors = seeded(m, rng.sample(range(n), min(k, n)))
                assert cells(_refine.refine(m, colors)) == cells(brute_refine(m, colors)), (m, colors)

    def test_levels_start_from_the_last_stable_partition(self):
        # the search's seeding: diagonal, then each stable coloring with the
        # next base point individualized by one split on its pair codes
        rng = random.Random(101)
        for _ in range(150):
            m = random_structure(rng)
            n = len(m)
            codes = _refine._pair_codes(m)
            colors = _refine.refine(m, seeded(m, []), codes=codes)
            assert cells(colors) == cells(brute_refine(m, seeded(m, []))), m
            base = rng.sample(range(n), min(n, rng.randint(1, 4)))
            for k, x in enumerate(base, 1):
                colors = _refine.refine(m, _refine._individualize(*codes, colors, x), codes=codes)
                assert cells(colors) == cells(brute_refine(m, seeded(m, base[:k]))), (m, base[:k])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_circulant_pair_codes_are_rotations(self, n):
        rng = random.Random(n)
        rows = [[int(x in members) for x in range(n)] for k in range(n + 1) for members in combinations(range(n), k)]
        rows += [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(20)]
        for row in rows:
            m = [row[n - u :] + row[: n - u] for u in range(n)]
            assert shift_invariant(m)
            assert _refine._pair_codes(m, circulant=True) == _refine._pair_codes(m), row

    def test_pair_refinement_matches_reference_on_isomorphic_pairs(self):
        # two colorings of one circulant, x and x+1 individualized: the shift
        # maps one onto the other, so with a shared color table the second
        # coloring's classes are the first's, shifted
        rng = random.Random(89)
        for _ in range(60):
            n = rng.randint(1, 40)
            m = cayley_digraph(n, {x for x in range(n) if rng.random() < 0.4}).adjacency_matrix()
            x = rng.randrange(n)
            ca, cb = _refine._refine_joint(m, (seeded(m, [x]), seeded(m, [(x + 1) % n])))
            assert cells(ca) == cells(brute_refine(m, seeded(m, [x])))
            assert all(cb[(v + 1) % n] == ca[v] for v in range(n))

    def test_pair_refinement_rejects_mismatched_class_sizes(self):
        path = Digraph(3, frozenset({(0, 1), (1, 2)})).adjacency_matrix()
        # the ends of a directed path are told apart by refinement alone
        assert _refine._refine_joint(path, (seeded(path, [0]), seeded(path, [2]))) is None
        # and colorings whose classes differ in size from the start
        empty = Digraph(3, frozenset()).adjacency_matrix()
        assert _refine._refine_joint(empty, ([1, 0, 0], [1, 1, 0])) is None


class TestIsoSearch:
    @pytest.mark.parametrize("seed", range(4))
    def test_extends_exactly_when_brute_force_does(self, seed):
        # random digraphs and arc colorings on at most 6 vertices, every pair x, y
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(1, 6)
            if rng.random() < 0.5:
                d = Digraph(n, frozenset((u, v) for u in range(n) for v in range(n) if rng.random() < 0.4))
                m, group = d.adjacency_matrix(), brute_automorphisms(d)
            else:
                m = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
                group = brute_pair_orbit_preservers(m)
            for x in range(n):
                for y in range(n):
                    witness = _refine.iso_search(m, {x: y})
                    assert (witness is not None) == any(g[x] == y for g in group), (m, x, y)
                    if witness is not None:
                        assert witness[x] == y and sorted(witness) == list(range(n))
                        assert preserves(witness, m)


class TestAutomorphismPaths:
    def test_relabeled_circulants_keep_their_order(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(5, 40)
            s = set(rng.sample(range(1, n), rng.randint(1, n - 2)))
            m = cayley_digraph(n, s).adjacency_matrix()
            relabeled = relabel(m, rng.sample(range(n), n))
            while shift_invariant(relabeled):
                relabeled = relabel(m, rng.sample(range(n), n))
            gens, order = _refine.automorphisms(m)
            relabeled_gens, relabeled_order = _refine.automorphisms(relabeled)
            assert relabeled_order == order, (n, s)
            assert gens[0] == tuple(range(1, n)) + (0,)
            assert all(preserves(g, m) for g in gens)
            assert all(preserves(g, relabeled) for g in relabeled_gens)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_connection_set_matches_brute_force(self, n):
        subsets = chain.from_iterable(combinations(range(n), k) for k in range(n + 1))
        for members in subsets:
            d = cayley_digraph(n, members)
            group = automorphism_group(d)
            brute = set(brute_automorphisms(d))
            assert group.cached_order == len(brute), members
            assert {g.images for g in group.elements()} == brute, members

    @pytest.mark.parametrize("d", [directed_cycle(3), directed_cycle(12), cayley_digraph(40, {1, 2, 5, 17})])
    def test_cyclic_automorphism_group_needs_no_search(self, d, monkeypatch):
        calls = {"refine": 0, "iso_search": 0}
        for name in calls:
            real = getattr(_refine, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(_refine, name, counted)
        assert automorphism_group(d).cached_order == d.vertex_count
        assert calls == {"refine": 1, "iso_search": 0}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_circulant_matches_the_reference_search(self, n):
        # same generators and order as refining every level from the diagonal
        for members in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
            m = cayley_digraph(n, members).adjacency_matrix()
            assert _refine.automorphisms(m) == reference_automorphisms(m), members

    def test_relabeled_and_random_structures_match_the_reference_search(self):
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randint(2, 24)
            m = cayley_digraph(n, {x for x in range(n) if rng.random() < 0.4}).adjacency_matrix()
            relabeled = relabel(m, rng.sample(range(n), n))
            assert _refine.automorphisms(relabeled) == reference_automorphisms(relabeled), relabeled
        for _ in range(100):
            m = random_structure(rng)
            assert _refine.automorphisms(m) == reference_automorphisms(m), m

    def test_signature_rounds(self, monkeypatch):
        rounds = []
        real = _refine._signatures

        def counted(*args):
            rounds.append(1)
            return real(*args)

        monkeypatch.setattr(_refine, "_signatures", counted)
        m = cayley_digraph(40, {1, 2, 5, 17}).adjacency_matrix()
        # an already discrete coloring costs at most one round
        assert _refine.refine(m, list(range(40))) == list(range(40))
        assert len(rounds) <= 1
        # Z_40: level 1 splits by the codes to 0, two rounds make it
        # discrete, and no round confirms it
        rounds.clear()
        assert _refine.automorphisms(m)[1] == 40
        assert len(rounds) == 2

    def test_shift_must_preserve_the_diagonal(self):
        # the shift preserves every arc of the 6-cycle but not the loop at 0
        m = directed_cycle(6).adjacency_matrix()
        m[0][0] = 1
        assert _refine.automorphisms(m) == ([], 1)
        # a vertex color at 0 alone, over a circulant arc coloring
        colors = [[(v - u) % 6 // 3 for v in range(6)] for u in range(6)]
        colors[0][0] = 2
        group = automorphism_group(ArcColoring(tuple(map(tuple, colors))))
        assert group.cached_order == len(brute_pair_orbit_preservers(colors))
