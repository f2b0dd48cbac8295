"""The refinement engine against its plain-loop reference and brute force.

A circulant in its natural labeling takes the shift-seeded shortcut at level
0 of the automorphism search; a relabeled copy does not, so comparing the
two exercises both paths.
"""

import random
import time
from collections import Counter
from itertools import chain, combinations

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
from circulant.oracle import cross_validate
from circulant.permgroup import automorphism_group


def cells(colors):
    out = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return sorted(out.values())


def seeded(m, individualized):
    """Diagonal colors with the given vertices individualized, each a color of its own."""
    colors = _refine._diagonal_colors(m)
    next_color = max(colors) + 1
    for i, v in enumerate(individualized):
        colors[v] = next_color + i
    return colors


def search_codes(m):
    """Whether the shift preserves m, and the codes ``automorphisms`` builds for m."""
    first = _refine._shift_row(m)
    return first is not None, _refine._search_codes(m, first)


def row_codes(m):
    """m's pair codes with no convolution kernel: every round sorts rows."""
    return (*_refine._pair_codes(m), None)


def relabel(m, perm):
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            out[perm[u]][perm[v]] = m[u][v]
    return out


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
        # the search's seeding: diagonal, then each stable coloring with the
        # next base point individualized by one split on its pair codes
        rng = random.Random(101)
        for _ in range(150):
            m = random_structure(rng)
            n = len(m)
            codes = row_codes(m)
            colors = _refine.refine(seeded(m, []), codes=codes)
            assert cells(colors) == cells(brute_refine(m, seeded(m, []))), m
            base = rng.sample(range(n), min(n, rng.randint(1, 4)))
            for k, x in enumerate(base, 1):
                (colors,) = _refine._individualize(codes, colors, x)
                colors = _refine.refine(colors, codes=codes)
                assert cells(colors) == cells(brute_refine(m, seeded(m, base[:k]))), (m, base[:k])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_circulant_pair_codes_are_rotations(self, n):
        # a circulant's codes come as the view of the ranks of their row 0;
        # its rows, built, rank the codes of the whole matrix
        rng = random.Random(n)
        rows = [[int(x in members) for x in range(n)] for k in range(n + 1) for members in combinations(range(n), k)]
        rows += [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(20)]
        for row in rows:
            m = circulant(row)
            assert shift_invariant(m)
            view, width, _ = _refine._convolution(m[0])
            codes, _ = _refine._pair_codes(m)
            rank = {code: j for j, code in enumerate(sorted(set(chain.from_iterable(codes))))}
            assert [list(r) for r in view] == [list(map(rank.__getitem__, r)) for r in codes], row
            assert width == len(rank), row

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

    def test_pair_refinement_rejects_mismatched_class_sizes(self):
        path = matrix(3, {(0, 1), (1, 2)})
        # the ends of a directed path are told apart by refinement alone
        assert _refine._refine_joint((seeded(path, [0]), seeded(path, [2])), row_codes(path)) is None
        # and colorings whose classes differ in size from the start
        empty = matrix(3, ())
        assert _refine._refine_joint(([1, 0, 0], [1, 1, 0]), row_codes(empty)) is None


def kernel_codes(m):
    """A circulant's code ranks with their convolution kernel, at any n < 256."""
    return _refine._convolution(m[0])


def both_paths(m, colors):
    """The stable coloring by the convolution kernel and by row sorts."""
    return _refine.refine(colors, codes=kernel_codes(m)), _refine.refine(colors, codes=row_codes(m))


def same_classes(one, other):
    """Whether two lists of colorings have the same classes under one shared renumbering."""
    flat_one, flat_other = sum(one, []), sum(other, [])
    pairs = set(zip(flat_one, flat_other))
    return len(pairs) == len(set(flat_one)) == len(set(flat_other))


class TestConvolution:
    """Signature rounds by the circulant kernel against row sorts and brute force."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_circulant(self, n):
        rng = random.Random(n)
        for members in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
            m = circulant([int(x in members) for x in range(n)])
            # a second base only up to n = 10, and brute force up to n = 8, for time
            for base in ([0], [0, rng.randrange(1, n)])[: 2 if n <= 10 else 1]:
                by_kernel, by_rows = both_paths(m, seeded(m, base))
                assert cells(by_kernel) == cells(by_rows), (members, base)
                if n <= 8:
                    assert cells(by_kernel) == cells(brute_refine(m, seeded(m, base))), (members, base)

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
                by_kernel, by_rows = both_paths(m, colors)
                assert cells(by_kernel) == cells(by_rows) == cells(brute_refine(m, colors)), (row, colors)

    def test_joint_refinement(self):
        # forced pairs x -> y, whether or not an automorphism maps x to y:
        # both paths give None, or the same classes under one renumbering
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
            by_kernel = _refine._refine_joint((ca, cb), kernel_codes(m))
            by_rows = _refine._refine_joint((ca, cb), row_codes(m))
            outcomes.add(by_rows is None)
            assert (by_kernel is None) == (by_rows is None), (row, forced)
            if by_rows is not None:
                assert same_classes(by_kernel, by_rows), (row, forced)
        assert outcomes == {True, False}

    def test_counts_up_to_254_do_not_carry(self):
        # Z_255 with every non-zero difference an arc: rank 1 (an arc both
        # ways) has 254 entries, so one class of every vertex counts 254 at each v
        n = 255
        _, _, (r, products) = _refine._convolution([0] + [1] * (n - 1))
        assert r == bytes([0] + [1] * (n - 1)) and len(products) == 1
        x = int.from_bytes(b"\1" * 2 * n, "little")
        assert (x * products[0]).to_bytes(3 * n, "little")[n : 2 * n] == bytes([254]) * n

    def test_ranks_up_to_254(self):
        # every difference its own color: 255 code ranks, so the column of
        # the singleton class {0} holds bytes up to 254
        row = random.Random(113).sample(range(1000), 255)
        m = circulant(row)
        colors = seeded(m, [0])
        by_kernel, by_rows = both_paths(m, colors)
        assert max(kernel_codes(m)[2][0]) == 254
        assert cells(by_kernel) == cells(by_rows) == cells(brute_refine(m, colors))
        assert cells(by_kernel) == [[v] for v in range(255)]

    @pytest.mark.parametrize("n,kernel", [(1, False), (2, True), (255, True), (256, False)])
    def test_kernel_boundary(self, n, kernel):
        # the search uses the kernel on every circulant with 2 <= n < 256; n = 1
        # takes no shift, so no kernel; a dense S, with |Aut| = n
        rng = random.Random(n)
        m = circulant([int(rng.random() < 0.8) for _ in range(n)])
        shift, (_, _, by_kernel) = search_codes(m)
        assert shift is (n > 1) and (by_kernel is not None) is kernel
        assert _refine.automorphisms(m) == reference_automorphisms(m)

    def test_searches_match_the_reference_search(self):
        # circulants and 3-color arc colorings at 16 <= n <= 32, and every
        # circulant with n <= 8, take the kernel path
        rng = random.Random(131)
        for _ in range(60):
            n, colors = rng.randint(16, 32), rng.choice((2, 3))
            m = circulant([rng.randrange(colors) for _ in range(n)])
            assert search_codes(m)[1][2] is not None
            assert _refine.automorphisms(m) == reference_automorphisms(m), m
        for n in range(2, 9):
            for members in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
                m = circulant([int(x in members) for x in range(n)])
                assert _refine.automorphisms(m) == reference_automorphisms(m), members


def dense(row):
    """The circulant with first row ``row`` as tuple rows, entry by entry."""
    n = len(row)
    return tuple(tuple(row[(v - u) % n] for v in range(n)) for u in range(n))


class TestCirculantView:
    """A circulant given as its ``Circulant`` view against the same matrix as
    tuple rows, on which the engine tests the shift row by row."""

    def test_entries_follow_the_difference(self):
        rng = random.Random(137)
        for n in range(1, 20):
            row = [rng.randrange(-2, 3) for _ in range(n)]
            view = _refine.Circulant(row)
            assert len(view) == n and list(view) == list(dense(row)), row
            # a row indexed out of order is built once and kept
            u = rng.randrange(n)
            assert view[u] is view[u]
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

    def test_a_tuple_matrix_is_tested_for_the_shift(self):
        # the 6-cycle with a loop at 0 alone is not circulant; its tuple rows
        # get no shift, however close to circulant they are
        m = [list(r) for r in dense([0, 1, 0, 0, 0, 0])]
        m[0][0] = 1
        m = tuple(map(tuple, m))
        assert search_codes(m)[0] is False
        assert _refine.automorphisms(m) == ([], 1)


class TestRegularCertificate:
    """``_fixes_every_vertex``, which lets ``automorphisms`` return the shift
    and order n before any code is built: wherever it holds, the reference
    search must give order n and the same generators."""

    def assert_sound(self, rows):
        fired = 0
        for row in rows:
            if _refine._fixes_every_vertex(row):
                fired += 1
                expected = reference_automorphisms(_refine.Circulant(row))
                assert expected[1] == len(row), row
                assert _refine.automorphisms(_refine.Circulant(row)) == expected, row
        return fired

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_adjacency_row(self, n):
        assert self.assert_sound([[mask >> x & 1 for x in range(n)] for mask in range(2**n)]) > 0

    def test_arc_colored_rows(self):
        # negative colors, colors over 255, and the Sylow search's tower rows
        # paired with adjacency rows
        rng = random.Random(191)
        rows = [[rng.randrange(-3, 3) for _ in range(rng.randint(2, 40))] for _ in range(150)]
        rows += [[rng.randrange(-300, 700) for _ in range(rng.randint(2, 40))] for _ in range(100)]
        for p, a in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
            rows += [[2 * c + (rng.random() < 0.4) for c in tower_row(p, a)] for _ in range(30)]
        assert self.assert_sound(rows) > 30

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lane_keys_match_tuple_keys_on_every_adjacency_row(self, n):
        for mask in range(2**n):
            row = [mask >> x & 1 for x in range(n)]
            assert _refine._fixes_every_vertex(row) is tuple_key_certificate(row), row

    def test_lane_keys_match_tuple_keys_on_colored_rows(self):
        # rows with an entry outside 0..255 make bytes() raise, so x is read
        # by the comparison per entry instead of by translate
        rng = random.Random(199)
        rows = [[rng.randrange(4) for _ in range(rng.randint(1, 60))] for _ in range(300)]
        rows += [[rng.randrange(-3, 3) for _ in range(rng.randint(1, 60))] for _ in range(300)]
        rows += [[rng.randrange(250, 262) for _ in range(rng.randint(1, 60))] for _ in range(300)]
        rows += [[rng.randrange(-300, 700) for _ in range(rng.randint(1, 60))] for _ in range(300)]
        outside = 0
        for row in rows:
            outside += min(row) < 0 or max(row) > 255
            assert _refine._fixes_every_vertex(row) is tuple_key_certificate(row), row
        assert outside > 600
        assert sum(map(tuple_key_certificate, rows)) > 100

    def test_a_singled_out_offset_must_generate_z_n(self):
        # Cay(Z_4, {2}): offset 2 is alone in its key, so Aut_0 fixes 0 and
        # 2, but not 1 and 3; |Aut| = 8
        row = [0, 0, 1, 0]
        assert not _refine._fixes_every_vertex(row)
        d = cayley_digraph(4, {2})
        assert _refine.automorphisms(d)[1] == len(brute_automorphisms(d)) == 8

    def test_an_undecided_regular_circulant_is_refined(self):
        # |Aut| = 40, which the certificate does not see; refinement does
        d = cayley_digraph(40, {1, 2, 5, 17})
        assert not _refine._fixes_every_vertex(d.row)
        assert _refine.automorphisms(d) == ([tuple(range(1, 40)) + (0,)], 40)

    def test_dense_shift_invariant_rows_are_certified(self, monkeypatch):
        # the certificate reads row 0 wherever the shift holds, not only of
        # a Circulant view; no code is built
        monkeypatch.setattr(_refine, "_search_codes", None)
        m = dense([0, 1, 1, 1, 0, 0, 0])
        assert _refine.automorphisms(m) == ([(1, 2, 3, 4, 5, 6, 0)], 7)


class TestJointRefinement:
    def test_returned_colorings_have_equal_class_sizes(self):
        # a round may leave one coloring discrete and not the other; only a
        # single coloring returns right after its discrete round, two are
        # compared once more
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
        # backtrack over: a first candidate that extends a long way and fails
        points = [(a, b) for a in range(4) for b in range(4)]
        steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
        m = [[int(((c - a) % 4, (d - b) % 4) in steps) for c, d in points] for a, b in points]
        rng = random.Random(3)
        for _ in range(20):
            relabeled = relabel(m, rng.sample(range(16), 16))
            gens, order = _refine.automorphisms(relabeled)
            assert (gens, order) == reference_automorphisms(relabeled), relabeled
            assert order == 192

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
        # the colorings of x and of y: v in the first and u in the second get
        # one color exactly when both are the point, or neither is and their
        # stable colors and codes to the point agree
        rng = random.Random(149)
        for _ in range(200):
            m = random_structure(rng)
            n = len(m)
            _, codes = search_codes(m)
            colors = _refine.refine(seeded(m, []), codes=codes)
            x, y = rng.randrange(n), rng.randrange(n)
            cx, cy = _refine._individualize(codes, colors, x, y)
            rows = codes[0]

            def key(v, point):
                return None if v == point else (colors[v], rows[v][point])

            for v in range(n):
                for u in range(n):
                    assert (cx[v] == cy[u]) == (key(v, x) == key(u, y)), (m, x, y, v, u)


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
        # row sorts take any ints, negative and past 255 included; the
        # kernel takes bytes, so there the seed colors are relabeled in 0..255
        rng = random.Random(151)
        for _ in range(200):
            m = random_structure(rng)
            n = len(m)
            colors = seeded(m, rng.sample(range(n), min(n, rng.randint(0, 2))))
            expected = cells(brute_refine(m, colors))
            paths = [(row_codes(m), -1000, 1000)]
            if shift_invariant(m):
                paths.append((kernel_codes(m), 0, 256))
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
        # and past 255 included: circulants at n < 256 take the kernel, the
        # rest sort rows, and both give the reference's generators
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
        # Z_3 and Z_12 are certified by one product; Z_40 is not, and is
        # finished by one refinement call
        assert calls == {"refine": int(len(d) == 40), "iso_search": 0}

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

    def test_signature_rounds(self, monkeypatch):
        rounds, kernel_rounds, rows_sorted = [], [], []
        real = _refine._signatures
        real_counts, real_rows = _refine._code_counts, _refine._sorted_rows

        def counted(*args):
            rounds.append(1)
            return real(*args)

        def counted_counts(kernel, colors, sizes, opened):
            kernel_rounds.append(len(opened))
            return real_counts(kernel, colors, sizes, opened)

        def counted_rows(codes, width, colors, opened):
            rows_sorted.append(len(opened))
            return real_rows(codes, width, colors, opened)

        monkeypatch.setattr(_refine, "_signatures", counted)
        monkeypatch.setattr(_refine, "_code_counts", counted_counts)
        monkeypatch.setattr(_refine, "_sorted_rows", counted_rows)
        m = [list(r) for r in cayley_digraph(40, {1, 2, 5, 17})]
        # an already discrete coloring costs at most one round
        assert _refine.refine(list(range(40)), codes=row_codes(m)) == list(range(40))
        assert len(rounds) <= 1
        # Z_40: level 1 is 0 individualized, then a kernel round over the 39
        # other vertices and one over the 27 not yet alone in their class,
        # which makes it discrete, and no round confirms it; no row is sorted
        for calls in (rounds, kernel_rounds, rows_sorted):
            calls.clear()
        assert _refine.automorphisms(m)[1] == 40
        assert len(rounds) == 2
        assert kernel_rounds == [39, 27] and rows_sorted == []
        # a relabeled copy the shift does not preserve sorts rows instead,
        # and only the rows of vertices not alone in their class
        relabeled = relabel(m, random.Random(127).sample(range(40), 40))
        assert not shift_invariant(relabeled)
        for calls in (rounds, kernel_rounds, rows_sorted):
            calls.clear()
        assert _refine.automorphisms(relabeled)[1] == 40
        assert kernel_rounds == []
        assert len(rows_sorted) == len(rounds) and rows_sorted == [40, 39, 39, 27, 27, 39, 27]

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
    """Rounds that sign only vertices in classes of two or more, and level 1
    of a circulant from its convolution kernel, against ``full_refine``,
    which signs every vertex every round."""

    def test_refine_reaches_the_full_rounds_partition(self):
        # circulant rows at 2 <= n <= 80 with the engine's own codes (code
        # ranks and kernel), two levels each; and random
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
        # the stable coloring of a random base with x and with y
        # individualized: where the full rounds keep equal class sizes, the
        # same classes under one renumbering; where they refute x -> y, so
        # does the search
        rng = random.Random(179)
        structures = [circulant(row) for row in reference_rows(rng, range(2, 81, 2))]
        structures += [random_structure(rng) for _ in range(150)]
        outcomes = Counter()
        for m in structures:
            n = len(m)
            _, codes = search_codes(m)
            colors = _refine.refine(_refine._diagonal_colors(m), codes=codes)
            for x in rng.sample(range(n), min(n, rng.randint(0, 2))):
                colors = _refine.refine(colors, codes=codes, point=x)
            x, y = rng.randrange(n), rng.randrange(n)
            seeds = _refine._individualize(codes, colors, x, y)
            expected = full_refine(m, seeds)
            refined = _refine._refine_joint(seeds, codes)
            outcomes[expected is None] += 1
            if expected is None:
                assert refined is None or _refine.iso_search(colors, x, y, codes=codes) is None, (m, x, y)
            else:
                assert refined is not None and same_classes(refined, expected), (m, x, y)
        assert outcomes[True] > 0 and outcomes[False] > 0

    @pytest.mark.parametrize("n", range(16, 65))
    def test_first_level_is_one_full_round(self, n):
        # level 1 of a circulant: vertex 0 individualized in the uniform
        # diagonal, then one round of the engine, which signs the open
        # vertices alone, by the kernel or by sorted rows; the partition of
        # one round signing every vertex
        rng = random.Random(n)
        for row in reference_rows(rng, [n]) + reference_rows(rng, [n]):
            m = _refine.Circulant(row)
            _, codes = search_codes(m)
            (individualized,) = _refine._individualize(codes, [0] * n, 0)
            keys = _refine._signatures(codes, individualized, Counter(individualized))
            (expected,) = full_refine(m, [individualized], rounds=1)
            assert cells(keys) == cells(expected), row

    def test_rounds_run_inside_refine_and_iso_search(self, monkeypatch):
        # perfbench times refinement as the spans of refine and iso_search:
        # every signature round and every individualization must run
        # inside one of them
        depth, outside = [0], []

        def span(real):
            def wrapped(*args, **kwargs):
                depth[0] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapped

        def round_of(name, real):
            def wrapped(*args, **kwargs):
                if not depth[0]:
                    outside.append(name)
                return real(*args, **kwargs)

            return wrapped

        for name in ("refine", "iso_search"):
            monkeypatch.setattr(_refine, name, span(getattr(_refine, name)))
        for name in ("_signatures", "_individualize"):
            monkeypatch.setattr(_refine, name, round_of(name, getattr(_refine, name)))
        rng = random.Random(181)
        paths = Counter()
        instances = [(n, {x for x in range(n) if rng.random() < 0.4}) for n in (6, 9, 12, 16, 25, 27, 40, 64)]
        instances += [(16, {1, 4, 5, 9, 13}), (12, {1, 4, 7, 10}), (40, set())]
        for n, s in instances:
            paths[cross_validate(ConnectionSet.of(n, s)).path] += 1
        assert outside == [] and set(paths) == {"regular", "symmetric", "sylow", "enumerate"}, paths
