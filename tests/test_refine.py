"""The refinement engine against its plain-loop reference and brute force.

A circulant in its natural labeling takes the shift-seeded shortcut at level
0 of the automorphism search; a relabeled copy does not, so comparing the
two exercises both paths.
"""

import random
import time
from collections import Counter
from itertools import chain, combinations
from math import factorial, gcd

import pytest

from brute import (
    brute_automorphisms,
    full_refine,
    matrix,
    brute_iso_search,
    brute_pair_orbit_preservers,
    brute_refine,
    reference_automorphisms,
    tower_row,
    tuple_key_certificate,
)
from circulant import _refine
from circulant.analyzer import ConnectionSet
from circulant.digraph import cayley_digraph, tower_connection_set
from circulant.oracle import _fixes_every_vertex, cross_validate
from circulant.permgroup import PermGroup, automorphism_group


def cells(colors):
    out = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return sorted(out.values())


def diagonal_ranks(m):
    """Each vertex's rank among the distinct values on m's diagonal."""
    rank = {d: i for i, d in enumerate(sorted({m[v][v] for v in range(len(m))}))}
    return [rank[m[v][v]] for v in range(len(m))]


def seeded(m, individualized):
    """Diagonal colors with the given vertices individualized, each a color of its own."""
    colors = diagonal_ranks(m)
    next_color = max(colors) + 1
    for i, v in enumerate(individualized):
        colors[v] = next_color + i
    return colors


def search_codes(m):
    """Whether the shift preserves m, and the codes ``automorphisms`` builds for m."""
    first = _refine._shift_row(m)
    return first is not None, _refine._pair_codes(m) if first is None else _refine._convolution(first)


def individualize(colors, points):
    """One coloring per point: ``colors`` with that point given the one new
    color max(colors) + 1, the seeds ``_refine_joint``'s ``points`` make."""
    seeds = [list(colors) for _ in points]
    for x, seed in zip(points, seeds):
        seed[x] = max(colors) + 1
    return seeds


def row_codes(m):
    """m's dense code rows, built entry by entry, as for a structure the shift does not preserve."""
    return _refine._pair_codes(m)


def relabel(m, perm):
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            out[perm[u]][perm[v]] = m[u][v]
    return out


def shrikhande():
    """The Shrikhande graph, Cay(Z4 x Z4, {±(0,1), ±(1,0), ±(1,1)}), on 16 vertices."""
    points = [(a, b) for a in range(4) for b in range(4)]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return [[int(((c - a) % 4, (d - b) % 4) in steps) for c, d in points] for a, b in points]


def circulant(row):
    n = len(row)
    return [row[n - u :] + row[: n - u] for u in range(n)]


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
        return matrix(n, arcs)
    if kind == 1:
        colors = tuple(tuple(rng.randrange(-1, 3) for _ in range(n)) for _ in range(n))
        return [list(row) for row in colors]
    s = {x for x in range(n) if rng.random() < 0.4}
    m = [list(r) for r in cayley_digraph(n, s)]
    return relabel(m, rng.sample(range(n), n)) if rng.random() < 0.5 else m


class TestRefine:
    def test_matches_reference(self):
        rng = random.Random(83)
        for _ in range(150):
            m = random_structure(rng)
            n = len(m)
            for k in (0, 1, 2):
                colors = seeded(m, rng.sample(range(n), min(k, n)))
                assert cells(_refine.refine(colors, codes=row_codes(m))) == cells(brute_refine(m, colors)), (m, colors)

    def test_levels_start_from_the_last_stable_partition(self):
        # the search's seeding: diagonal, every class a splitter, then each
        # stable coloring with the next base point individualized, that point
        # the one splitter
        rng = random.Random(101)
        for _ in range(150):
            m = random_structure(rng)
            n = len(m)
            codes = row_codes(m)
            colors = _refine.refine(seeded(m, []), codes=codes)
            assert cells(colors) == cells(brute_refine(m, seeded(m, []))), m
            base = rng.sample(range(n), min(n, rng.randint(1, 4)))
            for k, x in enumerate(base, 1):
                colors = _refine.refine(colors, codes=codes, point=x)
                assert cells(colors) == cells(brute_refine(m, seeded(m, base[:k]))), (m, base[:k])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_circulant_pair_codes_are_rotations(self, n):
        # a circulant's code rows are the ranks of its row 0's codes, rotated;
        # they rank the codes of the whole matrix
        rng = random.Random(n)
        rows = [[int(x in members) for x in range(n)] for k in range(n + 1) for members in combinations(range(n), k)]
        rows += [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(20)]
        for row in rows:
            m = circulant(row)
            assert shift_invariant(m)
            view = _refine._convolution(m[0])
            codes = _refine._pair_codes(m)
            rank = {code: j for j, code in enumerate(sorted(set(chain.from_iterable(codes))))}
            assert [list(r) for r in view] == [list(map(rank.__getitem__, r)) for r in codes], row

    def test_pair_refinement_matches_reference_on_isomorphic_pairs(self):
        # two colorings of one circulant, x and x+1 individualized: the shift
        # maps one onto the other, so with a shared color table the second
        # coloring's classes are the first's, shifted
        rng = random.Random(89)
        for _ in range(60):
            n = rng.randint(1, 40)
            m = [list(r) for r in cayley_digraph(n, {x for x in range(n) if rng.random() < 0.4})]
            x = rng.randrange(n)
            ca, cb = _refine._refine_joint((seeded(m, [x]), seeded(m, [(x + 1) % n])), row_codes(m))
            assert cells(ca) == cells(brute_refine(m, seeded(m, [x])))
            assert all(cb[(v + 1) % n] == ca[v] for v in range(n))

    def test_long_cycle(self):
        # C_1000: once 0 is individualized, the pairs {v, -v} split one
        # distance at a time, each split by a splitter of one or two vertices
        n = 1000
        start = time.perf_counter()
        group = automorphism_group(cayley_digraph(n, {1, n - 1}), vertex_cap=n)
        assert group.cached_order == 2 * n and len(group.generators) == 2
        assert time.perf_counter() - start < 5

    def test_pair_refinement_rejects_mismatched_class_sizes(self):
        path = matrix(3, {(0, 1), (1, 2)})
        # the ends of a directed path are told apart by refinement alone
        assert _refine._refine_joint((seeded(path, [0]), seeded(path, [2])), row_codes(path)) is None
        # and colorings whose classes differ in size from the start
        empty = matrix(3, ())
        assert _refine._refine_joint(([1, 0, 0], [1, 1, 0]), row_codes(empty)) is None


def rank_codes(m):
    """A circulant's code rows as ranks, from its row 0."""
    return _refine._convolution(m[0])


def both_codes(m, colors):
    """The stable coloring from a circulant's rank codes and from its dense codes."""
    return _refine.refine(colors, codes=rank_codes(m)), _refine.refine(colors, codes=row_codes(m))


def same_classes(one, other):
    """Whether two lists of colorings have the same classes under one shared renumbering."""
    flat_one, flat_other = sum(one, []), sum(other, [])
    pairs = set(zip(flat_one, flat_other))
    return len(pairs) == len(set(flat_one)) == len(set(flat_other))


class TestConvolution:
    """Refinement on a circulant's rank codes from ``_convolution`` against
    its dense codes and brute force."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_circulant(self, n):
        rng = random.Random(n)
        for members in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
            m = circulant([int(x in members) for x in range(n)])
            # a second base only up to n = 10, and brute force up to n = 8, for time
            for base in ([0], [0, rng.randrange(1, n)])[: 2 if n <= 10 else 1]:
                by_ranks, by_rows = both_codes(m, seeded(m, base))
                assert cells(by_ranks) == cells(by_rows), (members, base)
                if n <= 8:
                    assert cells(by_ranks) == cells(brute_refine(m, seeded(m, base))), (members, base)

    def test_arc_colored_rows(self):
        # negative colors, and code spans above 255: the Sylow search pairs
        # the tower coloring of Z_27 (colors up to 9) with the adjacency row
        rng = random.Random(107)
        rows = [[rng.randrange(-300, 300) for _ in range(rng.randint(2, 30))] for _ in range(40)]
        rows += [[rng.randrange(-2, 3) for _ in range(rng.randint(2, 30))] for _ in range(40)]
        rows += [[2 * c + (rng.random() < 0.4) for c in tower_row(3, 3)] for _ in range(20)]
        for row in rows:
            m = circulant(row)
            n = len(row)
            for k in (1, 2, 3):
                colors = seeded(m, rng.sample(range(n), min(k, n)))
                by_ranks, by_rows = both_codes(m, colors)
                assert cells(by_ranks) == cells(by_rows) == cells(brute_refine(m, colors)), (row, colors)

    def test_joint_refinement(self):
        # forced pairs x -> y, whether or not an automorphism maps x to y:
        # both codes give None, or the same classes under one renumbering
        rng = random.Random(109)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 30)
            if rng.random() < 0.5:
                row = [int(rng.random() < 0.4) for _ in range(n)]
            else:
                row = [rng.randrange(-3, 4) for _ in range(n)]
            m = circulant(row)
            forced = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))]
            ca, cb = seeded(m, []), seeded(m, [])
            for i, (a, b) in enumerate(forced):
                ca[a] = cb[b] = n + i
            by_ranks = _refine._refine_joint((ca, cb), rank_codes(m))
            by_rows = _refine._refine_joint((ca, cb), row_codes(m))
            outcomes.add(by_rows is None)
            assert (by_ranks is None) == (by_rows is None), (row, forced)
            if by_rows is not None:
                assert same_classes(by_ranks, by_rows), (row, forced)
        assert outcomes == {True, False}

    def test_ranks_up_to_254(self):
        # every difference its own color: 255 code ranks, so the code rows,
        # bytes, hold ranks up to 254, and the code to 0 alone splits every class
        row = random.Random(113).sample(range(1000), 255)
        m = circulant(row)
        colors = seeded(m, [0])
        by_ranks, by_rows = both_codes(m, colors)
        assert type(rank_codes(m)[0]) is bytes and max(rank_codes(m)[0]) == 254
        assert cells(by_ranks) == cells(by_rows) == cells(brute_refine(m, colors))
        assert cells(by_ranks) == [[v] for v in range(255)]

    @pytest.mark.parametrize("n,distinct", [(255, False), (256, False), (256, True), (300, True)])
    def test_searches_around_a_byte(self, n, distinct):
        # a dense 0/1 row, at most four code ranks, keeps bytes at any n; a
        # row with every difference its own color has n ranks, a list past 256
        rng = random.Random(n)
        row = rng.sample(range(10 * n), n) if distinct else [int(rng.random() < 0.8) for _ in range(n)]
        m = circulant(row)
        assert type(rank_codes(m)[0]) is (list if distinct and n > 256 else bytes)
        assert _refine.automorphisms(m) == reference_automorphisms(m)

    def test_searches_match_the_reference_search(self):
        # circulants and 3-color arc colorings at 16 <= n <= 32, and every
        # circulant with n <= 8, take the shift and their rank codes
        rng = random.Random(131)
        for _ in range(60):
            n, colors = rng.randint(16, 32), rng.choice((2, 3))
            m = circulant([rng.randrange(colors) for _ in range(n)])
            assert search_codes(m)[0]
            assert _refine.automorphisms(m) == reference_automorphisms(m), m
        for n in range(2, 9):
            for members in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
                m = circulant([int(x in members) for x in range(n)])
                assert _refine.automorphisms(m) == reference_automorphisms(m), members


def dense(row):
    """The circulant with first row ``row`` as tuple rows, entry by entry."""
    n = len(row)
    return tuple(tuple(row[(v - u) % n] for v in range(n)) for u in range(n))


class TestCodeRows:
    """A circulant's code rows from ``_convolution``: codes agree exactly when
    the pairs (m[v][u], m[u][v]) they code agree, held as bytes when every
    rank fits in a byte and as lists otherwise."""

    def assert_rows_code_the_pairs(self, row):
        n = len(row)
        rows = _refine._convolution(row)
        m = dense(row)
        code_of, pair_of = {}, {}
        for v in range(n):
            for u in range(n):
                pair, code = (m[v][u], m[u][v]), rows[v][u]
                assert code_of.setdefault(pair, code) == code and pair_of.setdefault(code, pair) == pair, (row, v, u)
        assert len(rows) == n and sorted(pair_of) == list(range(len(code_of))), row
        assert all(type(r) is (bytes if len(code_of) <= 256 else list) and len(r) == n for r in rows), row

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_adjacency_row(self, n):
        for mask in range(2**n):
            self.assert_rows_code_the_pairs([mask >> x & 1 for x in range(n)])

    @pytest.mark.parametrize("n", [16, 64, 255, 256])
    def test_three_color_rows(self, n):
        rng = random.Random(n)
        for _ in range(3):
            self.assert_rows_code_the_pairs([rng.randrange(3) for _ in range(n)])

    @pytest.mark.parametrize("n", [255, 256, 257, 300])
    def test_every_difference_its_own_color(self, n):
        # n code ranks: bytes up to 256 of them, lists past that
        self.assert_rows_code_the_pairs(random.Random(n).sample(range(10 * n), n))


class TestCirculantView:
    """A circulant given as its ``Circulant`` view against the same matrix as
    tuple rows, on which the engine tests the shift row by row."""

    def test_entries_follow_the_difference(self):
        rng = random.Random(137)
        for n in range(1, 20):
            row = [rng.randrange(-2, 3) for _ in range(n)]
            view = _refine.Circulant(row)
            assert len(view) == n and list(view) == list(dense(row)), row
            # a row is sliced afresh on each call, and equal each time
            u = rng.randrange(n)
            assert view[u] == view[u] == dense(row)[u]
            assert view[u - n] == dense(row)[u]

    def assert_same_search(self, row):
        m = dense(row)
        assert search_codes(m)[0] is (len(row) > 1)
        assert _refine.automorphisms(_refine.Circulant(row)) == _refine.automorphisms(m), row

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_adjacency_row(self, n):
        for mask in range(2**n):
            self.assert_same_search([mask >> x & 1 for x in range(n)])

    @pytest.mark.parametrize("n", [16, 25, 27, 40, 64])
    def test_arc_colored_rows(self, n):
        rng = random.Random(n)
        for _ in range(100):
            self.assert_same_search([rng.randrange(-2, 3) for _ in range(n)])

    @pytest.mark.parametrize("p,a", [(2, 4), (3, 3), (5, 2)])
    def test_tower_rows_paired_with_adjacency(self, p, a):
        # the Sylow search's colorings: the tower row paired with an adjacency row
        rng = random.Random(p**a)
        for _ in range(40):
            self.assert_same_search([2 * c + (rng.random() < 0.4) for c in tower_row(p, a)])

    def test_the_engine_reads_the_row_alone(self, monkeypatch):
        # inputs that refine and backtrack, with every row of the view
        # refused: the codes are rows of their own, and the engine reads the
        # view's ``row`` alone
        n = 64
        s = {y for x in range(1, n // 2) if bin(x).count("1") % 2 for y in (x, n - x)}
        rows = [[int(x in {1, 2, 5, 17}) for x in range(40)], [int(x in s) for x in range(n)]]
        rng = random.Random(211)
        for p, a in [(2, 4), (5, 2), (3, 3)]:
            # the Sylow search's pairing rows, and the tower paired with S empty
            paired = reference_rows(rng, [p**a])[2]
            rows += [paired, [c & 2 for c in paired]]
        rows += [[0], [1]]  # n = 1: no shift generator, and no row of the view either
        expected = [reference_automorphisms(dense(row)) for row in rows]
        assert expected[1][1] == 256 and [order for _, order in expected[3:-2:2]] == [2**15, 5**6, 3**13]
        assert expected[-2:] == [([], 1)] * 2

        def refuse(*args):
            raise AssertionError("a row of the Circulant view was indexed")

        searches = []
        real_search = _refine.iso_search

        def counted(*args, **kwargs):
            searches.append(args[1:3])  # x and y
            return real_search(*args, **kwargs)

        monkeypatch.setattr(_refine.Circulant, "__getitem__", refuse)
        monkeypatch.setattr(_refine.Circulant, "__iter__", refuse)
        monkeypatch.setattr(_refine, "iso_search", counted)
        for row, want in zip(rows, expected):
            searches.clear()
            assert _refine.automorphisms(_refine.Circulant(row)) == want, row
            # the shift alone gives order n; every larger order needs witnesses
            assert bool(searches) is (want[1] > len(row)), row

    def test_a_tuple_matrix_is_tested_for_the_shift(self):
        # the 6-cycle with a loop at 0 alone is not circulant; its tuple rows
        # get no shift, however close to circulant they are
        m = [list(r) for r in dense([0, 1, 0, 0, 0, 0])]
        m[0][0] = 1
        m = tuple(map(tuple, m))
        assert search_codes(m)[0] is False
        assert _refine.automorphisms(m) == ([], 1)


class TestRegularCertificate:
    """The oracle's ``_fixes_every_vertex`` on every adjacency row up to
    n = 12: it agrees with the tuple-keyed reference, and wherever it holds,
    the reference search gives order n and the engine, which no longer
    tries the certificate, gives the shift and order n by refinement."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_adjacency_row(self, n):
        fired = 0
        for mask in range(2**n):
            row = [mask >> x & 1 for x in range(n)]
            if _fixes_every_vertex(row):
                fired += 1
                expected = reference_automorphisms(_refine.Circulant(row))
                assert expected == ([tuple(range(1, n)) + (0,)], n), row
                assert _refine.automorphisms(_refine.Circulant(row)) == expected, row
        assert fired > 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lane_keys_match_tuple_keys_on_every_adjacency_row(self, n):
        for mask in range(2**n):
            row = [mask >> x & 1 for x in range(n)]
            assert _fixes_every_vertex(row) is tuple_key_certificate(row), row

    def test_a_singled_out_offset_must_generate_z_n(self):
        # Cay(Z_4, {2}): offset 2 is alone in its key, so Aut_0 fixes 0 and
        # 2, but not 1 and 3; |Aut| = 8
        d = cayley_digraph(4, {2})
        assert not _fixes_every_vertex(d.row)
        assert _refine.automorphisms(d)[1] == len(brute_automorphisms(d)) == 8

    def test_an_undecided_regular_circulant_is_refined(self):
        # |Aut| = 40, which the certificate does not see; refinement does
        d = cayley_digraph(40, {1, 2, 5, 17})
        assert not _fixes_every_vertex(d.row)
        assert _refine.automorphisms(d) == ([tuple(range(1, 40)) + (0,)], 40)


class TestJointRefinement:
    def test_returned_colorings_have_equal_class_sizes(self):
        # the pieces of every split are compared across the colorings, so
        # refinement that stops once the first coloring is discrete leaves
        # the second discrete too
        rng = random.Random(139)
        outcomes = Counter()
        for _ in range(400):
            m = random_structure(rng)
            n = len(m)
            ca, cb = seeded(m, []), seeded(m, [])
            for i in range(rng.randint(1, 2)):
                ca[rng.randrange(n)] = cb[rng.randrange(n)] = n + i
            refined = _refine._refine_joint((ca, cb), row_codes(m))
            outcomes[refined is None] += 1
            if refined is not None:
                assert Counter(refined[0]) == Counter(refined[1]), (m, ca, cb)
        assert outcomes[True] > 0 and outcomes[False] > 0


class TestIsoSearch:
    @pytest.mark.parametrize("seed", range(4))
    def test_extends_exactly_when_brute_force_does(self, seed):
        # random digraphs and arc colorings on at most 6 vertices: the stable
        # coloring of a random base, then every pair x, y off the base; the
        # witness is brute force's first one fixing the base and mapping x to y
        rng = random.Random(seed)
        outcomes = Counter()
        for _ in range(25):
            n = rng.randint(1, 6)
            if rng.random() < 0.5:
                m = matrix(n, {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.4})
                group = brute_automorphisms(m)
            else:
                m = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
                group = brute_pair_orbit_preservers(m)
            base = rng.sample(range(n), rng.randint(0, min(2, n - 1)))
            codes = row_codes(m)
            colors = _refine.refine(seeded(m, base), codes=codes)
            fixing = [g for g in group if all(g[b] == b for b in base)]
            for x in set(range(n)) - set(base):
                for y in set(range(n)) - set(base):
                    witness = _refine.iso_search(colors, x, y, codes=codes)
                    expected = brute_iso_search(m, {**{b: b for b in base}, x: y})
                    assert witness == (None if expected is None else list(expected)), (m, base, x, y)
                    assert (witness is not None) == any(g[x] == y for g in fixing), (m, base, x, y)
                    if witness is not None:
                        assert preserves(witness, m)
                    outcomes[witness is None] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_backtracks_on_relabeled_shrikhande(self):
        # the Shrikhande graph, Cay(Z4 x Z4, {±(0,1), ±(1,0), ±(1,1)}), is
        # strongly regular, so refinement leaves classes the search must
        # branch on: a leaf guess that extends a long way and fails.  Where a
        # guess fails, the witness is the first leaf of the tree that
        # succeeds, not the plain backtrack's first, so the groups are
        # compared, not the generator lists
        m = shrikhande()
        rng = random.Random(3)
        for _ in range(20):
            relabeled = relabel(m, rng.sample(range(16), 16))
            gens, order = _refine.automorphisms(relabeled)
            assert order == 192
            assert all(preserves(g, relabeled) for g in gens)
            reference, _ = reference_automorphisms(relabeled)
            assert set(PermGroup(16, gens).elements()) == set(PermGroup(16, reference).elements()), relabeled

    def test_relabeled_components_of_z_44(self):
        # Cay(Z_44, {12, 24}) is four copies of Cay(Z_11, {3, 6}); under this
        # relabeling the search that maps 0 to 1 once backtracked for minutes
        perm = [41, 21, 14, 38, 12, 7, 13, 22, 25, 23, 20, 8, 2, 10, 5, 18, 34, 32, 30, 28, 17, 35]
        perm += [6, 15, 24, 27, 29, 3, 1, 36, 16, 37, 33, 9, 0, 19, 4, 31, 26, 39, 42, 40, 11, 43]
        m = relabel([list(r) for r in cayley_digraph(44, {12, 24})], perm)
        start = time.perf_counter()
        gens, order = _refine.automorphisms(m)
        assert time.perf_counter() - start < 5
        assert order == 11**4 * factorial(4) == 351384
        assert all(preserves(g, m) for g in gens)

    def test_relabeled_disconnected_circulants(self):
        # S inside dZ_n with d >= 3 and n/d >= 3, relabeled at random: g =
        # gcd(n, S) components, each Cay(Z_{n/g}, S/g), so |Aut| =
        # |Aut(C)|^g g! with C's order from its natural labeling.  The first
        # three come with the seeds of relabelings on which a vertex-by-vertex
        # backtrack after one refinement took over 3 s each
        rng = random.Random(191)
        instances = [(40, {5, 20}, 1), (45, {9}, 0), (28, {7}, 3)]
        while len(instances) < 15:
            n = rng.randint(12, 48)
            divisors = [d for d in range(3, n // 3 + 1) if n % d == 0]
            if divisors:
                d = rng.choice(divisors)
                multiples = range(d, n, d)
                instances.append((n, set(rng.sample(multiples, len(multiples) // 2)) or {d}, rng.random()))
        for n, s, seed in instances:
            g = gcd(n, *s)
            _, component = _refine.automorphisms(cayley_digraph(n // g, {x // g for x in s}))
            m = relabel([list(r) for r in cayley_digraph(n, s)], random.Random(seed).sample(range(n), n))
            gens, order = _refine.automorphisms(m)
            assert order == component**g * factorial(g), (n, s, seed)
            assert all(preserves(gen, m) for gen in gens), (n, s, seed)

    def test_depth_past_the_recursion_limit(self):
        # a dihedral circulant on 1000 vertices: its one search maps 1000
        # vertices, more levels than Python's default recursion limit
        n = 1000
        s = {y for x in range(1, n // 2) if bin(x).count("1") % 2 for y in (x, n - x)}
        start = time.perf_counter()
        group = automorphism_group(cayley_digraph(n, s), vertex_cap=n)
        assert group.cached_order == 2 * n
        assert time.perf_counter() - start < 5


class TestIndividualize:
    def test_points_share_one_rank_table_and_one_color(self):
        # ``_refine_joint`` with x in the first coloring and y in the second:
        # the two points share one color, a class of their own in each, and
        # v in the first and u in the second share a color only when both
        # are the point, or neither is and their stable colors agree; a
        # single coloring keeps its point alone likewise
        rng = random.Random(149)
        outcomes = Counter()
        for _ in range(200):
            m = random_structure(rng)
            n = len(m)
            _, codes = search_codes(m)
            colors = _refine.refine(seeded(m, []), codes=codes)
            x, y = rng.randrange(n), rng.randrange(n)

            def key(v, point):
                return None if v == point else colors[v]

            (single,) = _refine._refine_joint((colors,), codes, (x,))
            assert single.count(single[x]) == 1, (m, x)
            assert all(key(v, x) == key(u, x) for v in range(n) for u in range(n) if single[v] == single[u]), (m, x)
            refined = _refine._refine_joint((colors, colors), codes, (x, y))
            outcomes[refined is None, x == y] += 1
            if refined is None:
                continue
            cx, cy = refined
            assert cx[x] == cy[y] and cx.count(cx[x]) == cy.count(cy[y]) == 1, (m, x, y)
            for v in range(n):
                for u in range(n):
                    assert cx[v] != cy[u] or key(v, x) == key(u, y), (m, x, y, v, u)
        assert set(outcomes) == {(True, False), (False, False), (False, True)}, outcomes


def relabel_values(values, rng, low, high):
    """``values`` with each distinct value sent to its own random int in [low, high)."""
    distinct = sorted(set(values))
    image = dict(zip(distinct, rng.sample(range(low, high), len(distinct))))
    return [image[v] for v in values]


class TestLabelIndependence:
    """Colors are numbered by first appearance, so the engine's partitions,
    base points and generators depend on which values are equal, never on the
    values themselves or their order."""

    def test_refinement_ignores_seed_color_values(self):
        # seed colors are any ints, negative and past 255 included, with
        # dense codes and with a circulant's rank codes
        rng = random.Random(151)
        for _ in range(200):
            m = random_structure(rng)
            n = len(m)
            colors = seeded(m, rng.sample(range(n), min(n, rng.randint(0, 2))))
            expected = cells(brute_refine(m, colors))
            paths = [(row_codes(m), -1000, 1000)]
            if shift_invariant(m):
                paths.append((rank_codes(m), -1000, 1000))
            for codes, low, high in paths:
                relabeled = relabel_values(colors, rng, low, high)
                assert cells(_refine.refine(relabeled, codes=codes)) == expected, (m, relabeled)
                (joint,) = _refine._refine_joint((relabeled,), codes)
                assert cells(joint) == expected, (m, relabeled)

    def test_joint_refinement_ignores_seed_color_values(self):
        # two colorings relabeled by one map: the same outcome, and the same
        # classes under one renumbering
        rng = random.Random(157)
        for _ in range(200):
            m = random_structure(rng)
            n = len(m)
            ca, cb = seeded(m, []), seeded(m, [])
            for i in range(rng.randint(1, 2)):
                ca[rng.randrange(n)] = cb[rng.randrange(n)] = n + i
            expected = _refine._refine_joint((ca, cb), row_codes(m))
            relabeled = relabel_values(ca + cb, rng, -1000, 1000)
            refined = _refine._refine_joint((relabeled[:n], relabeled[n:]), row_codes(m))
            assert (refined is None) == (expected is None), (m, ca, cb)
            if refined is not None:
                assert same_classes(refined, expected), (m, ca, cb)

    def test_automorphisms_ignore_arc_color_values(self):
        # every entry of the matrix relabeled by one injective map, negative
        # and past 255 included: circulants keep their shift and their rank
        # codes, the rest take dense codes, and both give the reference's
        # generators
        rng = random.Random(163)
        structures = [random_structure(rng) for _ in range(60)]
        structures += [circulant([rng.randrange(3) for _ in range(rng.randint(16, 40))]) for _ in range(40)]
        for m in structures:
            n = len(m)
            flat = relabel_values([e for row in m for e in row], rng, -1000, 1000)
            relabeled = [flat[u * n : (u + 1) * n] for u in range(n)]
            assert _refine.automorphisms(relabeled) == reference_automorphisms(m), m


class TestAutomorphismPaths:
    def test_relabeled_circulants_keep_their_order(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(5, 40)
            s = set(rng.sample(range(1, n), rng.randint(1, n - 2)))
            m = [list(r) for r in cayley_digraph(n, s)]
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
            assert set(group.elements()) == brute, members

    @pytest.mark.parametrize("d", [cayley_digraph(3, {1}), cayley_digraph(12, {1}), cayley_digraph(40, {1, 2, 5, 17})])
    def test_cyclic_automorphism_group_needs_no_search(self, d, monkeypatch):
        calls = {"refine": 0, "iso_search": 0}
        for name in calls:
            real = getattr(_refine, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(_refine, name, counted)
        assert automorphism_group(d).cached_order == len(d)
        # the shift resolves level 0, and one refinement call, from vertex 0
        # individualized, finishes the rest
        assert calls == {"refine": 1, "iso_search": 0}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_circulant_matches_the_reference_search(self, n):
        # same generators and order as refining every level from the diagonal
        for members in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
            m = [list(r) for r in cayley_digraph(n, members)]
            assert _refine.automorphisms(m) == reference_automorphisms(m), members

    def test_relabeled_and_random_structures_match_the_reference_search(self):
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randint(2, 24)
            m = [list(r) for r in cayley_digraph(n, {x for x in range(n) if rng.random() < 0.4})]
            relabeled = relabel(m, rng.sample(range(n), n))
            assert _refine.automorphisms(relabeled) == reference_automorphisms(relabeled), relabeled
        for _ in range(100):
            m = random_structure(rng)
            assert _refine.automorphisms(m) == reference_automorphisms(m), m

    def test_splitter_sizes(self, monkeypatch):
        # each splitter popped reads its members once in every coloring
        # refined, one itemgetter each
        sizes = []
        real = _refine.itemgetter

        def recorded(*members):
            sizes.append(len(members))
            return real(*members)

        monkeypatch.setattr(_refine, "itemgetter", recorded)
        m = [list(r) for r in cayley_digraph(40, {1, 2, 5, 17})]
        # an already discrete coloring pops no splitter
        assert _refine.refine(list(range(40)), codes=row_codes(m)) == list(range(40))
        assert sizes == []
        # Z_40: level 1 is 0 individualized, the splitter {0}, then the
        # pieces each split queues, every one but the largest of its class
        assert _refine.automorphisms(m)[1] == 40
        level_1 = [1, 4, 1, 2, 2, 1, 1, 1, 1, 1]
        assert sizes == level_1
        # a relabeled copy the shift does not preserve refines level 0 with
        # its one class as the splitter and level 1 as above; level 0 is then
        # resolved by one search, its two colorings side by side, each
        # splitter read in both
        relabeled = relabel(m, random.Random(127).sample(range(40), 40))
        assert not shift_invariant(relabeled)
        sizes.clear()
        assert _refine.automorphisms(relabeled)[1] == 40
        assert sizes == [40] + level_1 + [size for size in level_1 for _ in range(2)]

    def test_level_0_starts_from_the_diagonal_ranks(self, monkeypatch):
        # the descent's first coloring is the ranks of the codes' diagonal,
        # which are the ranks of m's diagonal: on dense digraphs with loops,
        # on arc colorings and on circulant views, uniform there
        firsts = []
        real = _refine.refine

        def recording(colors, *, codes, point=None):
            firsts.append(list(colors))
            return real(colors, codes=codes, point=point)

        monkeypatch.setattr(_refine, "refine", recording)
        rng = random.Random(229)
        structures = [random_structure(rng) for _ in range(150)]
        structures += [_refine.Circulant(row) for row in reference_rows(rng, range(2, 81, 3))]
        checked = Counter()
        for m in structures:
            _, codes = search_codes(m)
            expected = diagonal_ranks(m)
            diagonal = [row[v] for v, row in enumerate(codes)]
            assert cells(diagonal) == cells(expected), m
            firsts.clear()
            _refine.automorphisms(m)
            if firsts:
                assert firsts[0] == expected, m
                checked[type(m).__name__, len(set(expected)) > 1] += 1
        assert set(checked) == {("list", True), ("list", False), ("Circulant", False)}, checked

    def test_shift_must_preserve_the_diagonal(self):
        # the shift preserves every arc of the 6-cycle but not the loop at 0
        m = [list(r) for r in cayley_digraph(6, {1})]
        m[0][0] = 1
        assert _refine.automorphisms(m) == ([], 1)
        # a vertex color at 0 alone, over a circulant arc coloring
        colors = [[(v - u) % 6 // 3 for v in range(6)] for u in range(6)]
        colors[0][0] = 2
        group = automorphism_group(colors)
        assert group.cached_order == len(brute_pair_orbit_preservers(colors))


class TestGeneratorBound:
    """Levels resolved deepest first: each witness at least doubles the group
    found so far, so with the shift there are at most ceil(log2 |Aut|) + 1
    generators, and large groups take few searches."""

    def assert_bound(self, m):
        gens, order = _refine.automorphisms(m)
        assert len(gens) <= (order - 1).bit_length() + 1, (len(gens), order)
        assert all(preserves(g, m) for g in gens)
        return order

    @pytest.mark.parametrize(
        "n,members,order",
        [
            (64, range(1, 64), factorial(64)),  # K_64
            (60, range(0, 60, 6), factorial(10) ** 6 * factorial(6)),  # six K_10 with loops
            (64, [x for x in range(64) if x % 4], factorial(16) ** 4 * factorial(4)),  # K_{16,16,16,16}
            (48, range(2, 48, 2), factorial(24) ** 2 * 2),  # two K_24
            (63, range(3, 63, 3), factorial(21) ** 3 * factorial(3)),  # three K_21
        ],
        ids=["K_64", "6Z_60", "non-4Z_64", "even_48", "3Z_63"],
    )
    def test_wreath_products(self, n, members, order):
        m = [list(r) for r in cayley_digraph(n, members)]
        assert self.assert_bound(m) == order

    def test_relabeled_shrikhande_and_reference_rows(self):
        rng = random.Random(3)
        for _ in range(20):
            assert self.assert_bound(relabel(shrikhande(), rng.sample(range(16), 16))) == 192
        for row in reference_rows(random.Random(223), range(2, 81)):
            self.assert_bound(circulant(row))

    def test_two_complete_graphs_of_120(self):
        # Aut = S_120 wr S_2, order 2 (120!)^2, past the default vertex cap
        n = 240
        start = time.perf_counter()
        gens, order = _refine.automorphisms(cayley_digraph(n, range(2, n, 2)))
        assert time.perf_counter() - start < 5
        assert order == 2 * factorial(120) ** 2
        assert len(gens) <= (order - 1).bit_length() + 1


def reference_rows(rng, ns):
    """Circulant rows at each n of ``ns``: a 0/1 row, a 3-color row, and at
    a prime power the 4-color row ``_sylow_subgroup`` builds, its tower's
    0/1 row paired with an adjacency row."""
    rows = []
    for n in ns:
        rows.append([int(rng.random() < 0.4) for _ in range(n)])
        rows.append([rng.randrange(3) for _ in range(n)])
        p = next(q for q in range(2, n + 1) if n % q == 0)
        a = next(a for a in range(1, n) if p**a >= n)
        if p**a == n and a > 1:
            _, tower = tower_connection_set(p, (1,) * a)
            rows.append([2 * (x in tower) + (rng.random() < 0.4) for x in range(n)])
    return rows


class TestOpenCellRounds:
    """Splitter refinement, which splits only classes of two or more, and
    level 1 of a circulant from its one splitter, against ``full_refine``,
    which signs every vertex every round."""

    def test_refine_reaches_the_full_rounds_partition(self):
        # circulant rows at 2 <= n <= 80 with the engine's own codes (code
        # ranks), two levels each; and random
        # structures with row codes and up to two vertices individualized
        rng = random.Random(167)
        for row in reference_rows(rng, range(2, 81)):
            m = _refine.Circulant(row)
            n = len(row)
            _, codes = search_codes(m)
            colors = _refine.refine([0] * n, codes=codes, point=0)
            assert cells(colors) == cells(full_refine(m, [seeded(m, [0])])[0]), row
            x = rng.randrange(1, n)
            colors = _refine.refine(colors, codes=codes, point=x)
            assert cells(colors) == cells(full_refine(m, [seeded(m, [0, x])])[0]), (row, x)
        for _ in range(100):
            m = random_structure(rng)
            colors = seeded(m, rng.sample(range(len(m)), min(len(m), rng.randint(0, 2))))
            assert cells(_refine.refine(colors, codes=row_codes(m))) == cells(full_refine(m, [colors])[0]), m

    def test_every_level_of_automorphisms(self, monkeypatch):
        # each level's stable partition is the full rounds' partition of the
        # diagonal with every base point so far individualized
        levels = []
        real = _refine.refine

        def recording(colors, *, codes, point=None):
            refined = real(colors, codes=codes, point=point)
            levels.append((point, refined))
            return refined

        monkeypatch.setattr(_refine, "refine", recording)
        rng = random.Random(173)
        structures = [_refine.Circulant(row) for row in reference_rows(rng, range(2, 81, 3))]
        structures += [random_structure(rng) for _ in range(60)]
        for m in structures:
            levels.clear()
            assert _refine.automorphisms(m) == reference_automorphisms(m), m
            base = []
            for point, refined in levels:
                base += [] if point is None else [point]
                assert cells(refined) == cells(full_refine(m, [seeded(m, base)])[0]), (m, base)

    def test_joint_refinement_of_iso_search(self):
        # the stable coloring of a random base, with x individualized alone,
        # and with x and with y individualized side by side, refined with
        # every class queued and with the shared new color alone, as the
        # search does; y is a random vertex, x itself, or x's image under a
        # generator that keeps the coloring, so many pairs survive.  Where
        # the full rounds keep equal class sizes, the same classes under one
        # renumbering; where they refute x -> y, so does the search
        rng = random.Random(179)
        structures = [circulant(row) for row in reference_rows(rng, range(2, 81, 2))]
        structures += [_refine.Circulant(row) for row in reference_rows(rng, range(2, 81, 3))]
        structures += [random_structure(rng) for _ in range(150)]
        outcomes = Counter()
        for m in structures:
            n = len(m)
            _, codes = search_codes(m)
            colors = _refine.refine(diagonal_ranks(m), codes=codes)
            for x in rng.sample(range(n), min(n, rng.randint(0, 2))):
                colors = _refine.refine(colors, codes=codes, point=x)
            x = rng.randrange(n)
            (single,) = _refine._refine_joint((colors,), codes, (x,))
            assert cells(single) == cells(full_refine(m, individualize(colors, (x,)))[0]), (m, x)
            gens = _refine.automorphisms(m)[0]
            for y in [rng.randrange(n), x] + [g[x] for g in gens if all(colors[g[v]] == colors[v] for v in range(n))]:
                seeds = individualize(colors, (x, y))
                expected = full_refine(m, seeds)
                outcomes[expected is None] += 1
                for refined in (_refine._refine_joint(seeds, codes), _refine._refine_joint((colors, colors), codes, (x, y))):
                    if expected is None:
                        assert refined is None or _refine.iso_search(colors, x, y, codes=codes) is None, (m, x, y)
                    else:
                        assert refined is not None and same_classes(refined, expected), (m, x, y)
        assert outcomes[True] > 100 and outcomes[False] > 300, outcomes

    @pytest.mark.parametrize("n", range(16, 65))
    def test_first_level_is_one_full_round(self, n):
        # level 1 of a circulant: vertex 0 individualized in the uniform
        # diagonal, its color the one splitter; the split by the codes to 0
        # is one full round, signing every vertex, and the splits from there
        # reach the full rounds' stable partition
        rng = random.Random(n)
        for row in reference_rows(rng, [n]) + reference_rows(rng, [n]):
            m = _refine.Circulant(row)
            _, codes = search_codes(m)
            (individualized,) = individualize([0] * n, (0,))
            (one_round,) = full_refine(m, [individualized], rounds=1)
            assert cells([(individualized[v], codes[v][0]) for v in range(n)]) == cells(one_round), row
            (stable,) = full_refine(m, [individualized])
            assert cells(_refine.refine([0] * n, codes=codes, point=0)) == cells(stable), row

    def test_rounds_run_inside_refine_and_iso_search(self, monkeypatch):
        # perfbench times refinement as the spans of refine and iso_search:
        # every refinement, individualization included, must run inside one
        # of them
        depth, outside = [0], []

        def span(real):
            def wrapped(*args, **kwargs):
                depth[0] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapped

        def work(name, real):
            def wrapped(*args, **kwargs):
                if not depth[0]:
                    outside.append(name)
                return real(*args, **kwargs)

            return wrapped

        for name in ("refine", "iso_search"):
            monkeypatch.setattr(_refine, name, span(getattr(_refine, name)))
        monkeypatch.setattr(_refine, "_refine_joint", work("_refine_joint", _refine._refine_joint))
        rng = random.Random(181)
        paths = Counter()
        instances = [(n, {x for x in range(n) if rng.random() < 0.4}) for n in (6, 9, 12, 16, 25, 27, 40, 64)]
        instances += [(16, {1, 4, 5, 9, 13}), (12, {1, 4, 7, 10}), (40, set())]
        for n, s in instances:
            paths[cross_validate(ConnectionSet.of(n, s)).path] += 1
        assert outside == [] and set(paths) == {"regular", "symmetric", "sylow", "enumerate"}, paths
