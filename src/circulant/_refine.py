"""Search engine for arc-colored digraphs: refinement and automorphisms.

A structure is an n x n matrix of small integer arc colors; entry [u][v] is
the color of the ordered pair (u, v) and the diagonal holds vertex colors
(for a plain digraph: 1 = arc/loop, 0 = none).  Vertex classes are refined
against one splitter class at a time and searches branch on refined
classes.  Refinement renumbers its colors in order of first appearance on
one shared table, not in sorted order: it needs the partition, not an order
on the colors, since no canonical labeling is computed (McKay and Piperno,
"Practical graph isomorphism, II", 2014).  Every choice the search makes
reads cells in vertex order, never color values, so results are
deterministic and independent of how colors are numbered.

Splitter refinement: every ordered pair (v, u) is coded by its two colors
m[v][u] and m[u][v] as one int, once per automorphism search.  Refinement
keeps each coloring's classes and a queue of splitter classes.  It pops one
splitter S at a time and splits every class of two or more vertices by the
multiset of codes from each member to S; a singleton splitter {u} costs one
lookup per vertex, the code to u.  When a class splits, its largest piece
keeps its color and every other piece gets a new color and is queued.  A
class still queued thus has all its pieces queued, and a class already
split against has all but the largest, whose multisets are the class's less
the other pieces' (Hopcroft's rule: Paige and Tarjan, "Three partition
refinement algorithms", SIAM J. Comput. 16, 1987).  The partition is stable,
the coarsest equitable partition finer than the seed, once the queue is
empty, and refinement stops as soon as it is discrete.  A class splitting
against itself counts the pair u = v too; that is harmless because its
entry depends on v's own color alone, as long as the colors refine the
diagonal, which every caller's colors do.  A search for an automorphism
mapping x to y refines the level's stable coloring with x and with y
individualized side by side, one shared color table for both:
corresponding pieces get the same color, and the pair is refuted at the
first split whose piece sizes differ between the two.  Each refined pair is
a node of the search's tree (individualization-refinement, after McKay and
Piperno): the node guesses the whole mapping once, class by class, and where
the guess fails it branches on one class, individualizing one more vertex
and each of its candidate images in turn, each child refined from that new
color alone.

Circulant input: a circulant may come in as its row 0, wrapped in the
read-only view ``Circulant``, an input format only: entry [u][v] is
row[(v - u) mod n], and the engine reads its ``row`` and indexes no row of
the view.  The shift v -> v+1 preserves such a matrix by construction, so
it is not tested row by row, and the diagonal is the constant row[0].  Any
other matrix must be square.

Codes are rows: every structure's pair codes reach refinement and search as
a list of n code rows.  A circulant's are their ranks, built in one pass
over row 0 (``_convolution``): row v is one slice of the doubled rank row,
bytes when every rank fits in a byte, else a list.  Refinement and search
read the pair codes alone, vertex colors included: a code (v, v) holds v's
diagonal entry, so the descent starts from the ranks of the codes'
diagonal.  Only the squareness check in ``automorphisms``, ``_shift_row``
and ``_pair_codes`` read the matrix.  The search walks its tree in a loop,
so Python's recursion limit does not bound its depth.

The automorphism search individualizes one vertex per level and multiplies
orbit sizes, which yields the exact group order without enumerating elements.
It first descends one path: each level starts from the previous level's
stable coloring, and its refinement, inside ``refine``, starts from the new
base point alone as splitter.  It then resolves the levels deepest
first, as nauty backtracks: a level's orbit starts as its base point's
orbit under every witness found below it, and only the cell members outside
that orbit are searched.  Each witness thus at least doubles the group
found so far, so there are at most log2 |Aut| of them.  When the shift
v -> v+1 preserves the whole matrix (every circulant in its natural
labeling), it is taken as the first generator and level 0 needs no
refinement and no search: its orbit is every vertex.  The shift closes no
orbit, since it fixes no base point, and the generators number at most
ceil(log2 |Aut|) + 1.
"""

from collections import Counter
from operator import itemgetter


class Circulant:
    """The read-only n x n matrix [u][v] = row[(v - u) mod n] of its row 0.

    An input format: indexing row u slices it, row 0 rotated right by u, on
    each call.  The engine reads a circulant's shift, diagonal and pair
    codes from ``row`` alone.
    """

    __slots__ = ("row",)

    def __init__(self, row):
        self.row = tuple(row)

    def __len__(self):
        return len(self.row)

    def __getitem__(self, u):
        n = len(self.row)
        u = range(n)[u]  # IndexError past either end, as for a list
        return self.row[n - u :] + self.row[: n - u]

    def __iter__(self):
        return map(self.__getitem__, range(len(self.row)))


def _pair_codes(m):
    """Row v codes each pair (v, u) by (m[v][u], m[u][v]).

    With k the span of the colors, the code a*k + b is one to one, and code
    (v, v), m[v][v]*(k + 1), grows with the diagonal entry.  A circulant's
    codes come from ``_convolution`` instead.
    """
    lo = min(map(min, m), default=0)
    k = max(map(max, m), default=0) - lo + 1
    return [[a * k + b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))]


def _convolution(first):
    """A circulant's pair codes as code ranks, from its row 0 ``first``.

    Code (v, u), the pair (m[v][u], m[u][v]), has rank r[(v - u) mod n],
    where r[e] is the rank of code (e, 0) among the codes.  Ranks replace
    the codes everywhere.  Row 0 holds r[-u] at u, and row v, row 0 rotated
    right by v, is one slice of row 0 doubled: bytes when every rank is
    below 256, else a list.
    """
    pairs = list(zip(first[:1] + first[:0:-1], first))  # m[e][0] = first[-e]
    rank = {code: j for j, code in enumerate(sorted(set(pairs)))}
    r = list(map(rank.__getitem__, pairs))
    if len(rank) <= 256:
        r = bytes(r)
    n, doubled = len(r), (r[:1] + r[:0:-1]) * 2
    return [doubled[n - v : 2 * n - v] for v in range(n)]


def _refine_joint(colorings, codes, points=None):
    """Refine several colorings of one structure side by side with one shared
    color table, against one splitter class at a time.

    With ``points``, each coloring's point is individualized first, all of
    them given one new color, max(colorings[0]) + 1, and that color is the
    one splitter queued; without, every class is queued.  Each popped
    splitter splits every class of two or more in every coloring by
    the multiset of codes from each member to the splitter's members in
    that coloring; corresponding pieces, those of one class with one
    multiset, get one color in every coloring.  The largest piece keeps the
    class's color and the others are queued, so a queued class has all its
    pieces queued and any other all but the largest.  Refinement stops
    when the queue is empty or the partition is discrete.  Returns None as
    soon as two colorings' classes differ in size, or a splitter's pieces
    do, a class of one included; else the stable colorings, numbered in
    order of first appearance, first coloring first.  The colorings must
    refine the diagonal.  ``codes`` are the n code rows ``automorphisms``
    builds.
    """
    n = len(codes)
    colorings = [list(colors) for colors in colorings]
    if points is not None:
        new = max(colorings[0]) + 1
        for colors, x in zip(colorings, points):
            colors[x] = new
    cells = []
    for colors in colorings:
        cell = {}
        for v, c in enumerate(colors):
            cell.setdefault(c, []).append(v)
        cells.append(cell)
    if any(Counter(colors) != Counter(colorings[0]) for colors in colorings[1:]):
        return None
    queue = list(cells[0]) if points is None else [new]
    fresh = max(colorings[0], default=0) + 1  # the colorings share one multiset of colors
    while queue and len(cells[0]) < n:
        s = queue.pop()
        keys = []
        for cell in cells:
            rows = map(itemgetter(*cell[s]), codes)
            keys.append(list(rows if len(cell[s]) == 1 else map(tuple, map(sorted, rows))))
        if any(sorted(zip(colors, key)) != sorted(zip(colorings[0], keys[0]))
               for colors, key in zip(colorings[1:], keys[1:])):
            return None
        pieces = set(zip(colorings[0], keys[0]))
        if len(pieces) == len(cells[0]):
            continue
        split = Counter(c for c, _ in pieces)
        for c in [c for c in cells[0] if split[c] > 1]:
            parts = []
            for cell, key in zip(cells, keys):
                part = {}
                for v in cell[c]:
                    part.setdefault(key[v], []).append(v)
                parts.append(part)
            *others, largest = sorted(parts[0], key=lambda k: len(parts[0][k]))
            for k in others:
                for colors, cell, part in zip(colorings, cells, parts):
                    cell[fresh] = part[k]
                    for v in part[k]:
                        colors[v] = fresh
                queue.append(fresh)
                fresh += 1
            for cell, part in zip(cells, parts):
                cell[c] = part[largest]
    table = {}
    return [[table.setdefault(c, len(table)) for c in colors] for colors in colorings]


def refine(colors, *, codes, point=None):
    """Refine one structure's coloring until the partition is stable.

    ``colors`` must refine the diagonal: equal colors, equal diagonal
    entries.  With ``point``, ``colors`` must be stable, and the point is
    individualized and its new color the one splitter queued; else every
    class is.  ``codes`` are as for ``_refine_joint``.
    """
    return _refine_joint((colors,), codes, None if point is None else (point,))[0]


def iso_search(colors, x, y, *, codes):
    """An automorphism that preserves the stable coloring ``colors`` and
    maps x to y, or None.

    A walk over a tree of coloring pairs (ca, cb), each refined side by
    side (``_refine_joint``).  The root is ``colors`` with x and with y
    individualized.  At a node, a vertex's candidate images are its class
    in cb, and the vertices are mapped once, with no backtracking, in order
    of their candidate count (ties by index): each to its first unused
    candidate u such that code (v, w) equals code (u, mapping[w]) for every
    w mapped before v.  A code holds both colors of its pair.  If every
    vertex is mapped, that mapping is the witness.  Otherwise the node
    branches on the first vertex v in that order with two or more
    candidates: one child per candidate u, in ascending order, with v and
    u individualized.  A child the joint refinement refutes is dropped, and
    a node with no such v is a dead leaf.  The walk is a loop over a stack
    of child iterators, so the witness is deterministic and Python's
    recursion limit does not bound the depth.  ``codes`` are as for
    ``_refine_joint``.
    """
    n = len(colors)
    stack = [filter(None, [_refine_joint((colors, colors), codes, (x, y))])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        ca, cb = node
        by_color = {}
        for u in range(n):
            by_color.setdefault(cb[u], []).append(u)
        cands = [by_color[c] for c in ca]
        order = sorted(range(n), key=lambda v: (len(cands[v]), v))
        mapping = [-1] * n
        used = [False] * n
        for depth, v in enumerate(order):
            row, mapped = codes[v], order[:depth]
            for u in cands[v]:
                if not used[u]:
                    image = codes[u]
                    if all(row[w] == image[mapping[w]] for w in mapped):
                        break
            else:
                break  # v has no image: the guess fails
            mapping[v] = u
            used[u] = True
        else:
            return mapping
        v = next((v for v in order if len(cands[v]) > 1), None)
        if v is not None:
            stack.append(filter(None, (_refine_joint((ca, cb), codes, (v, u)) for u in cands[v])))
    return None


def _shift_row(m):
    """Row 0 of m if the shift v -> v+1 preserves m, diagonal included;
    else None.

    A ``Circulant`` is preserved by definition, at every n, and its row 0
    is its ``row``, so no row of the view is built; any other matrix is
    tested by n row comparisons, from n = 2.
    """
    if isinstance(m, Circulant):
        return m.row
    n = len(m)
    if n < 2:
        return None
    doubled = m[0] * 2
    return m[0] if all(m[u] == doubled[n - u : 2 * n - u] for u in range(1, n)) else None


def _close_orbit(orbit, gens):
    orb = set(orbit)
    frontier = list(orb)
    while frontier:
        v = frontier.pop()
        for g in gens:
            u = g[v]
            if u not in orb:
                orb.add(u)
                frontier.append(u)
    return orb


def automorphisms(m):
    """Generators and exact order of the color-preserving automorphism group.

    Stabilizer-chain style, in two passes.  The descent individualizes, at
    each level, the first vertex of the first non-singleton refined cell,
    and records the level's stable coloring and that base point x_i, until
    the partition is discrete.  The levels are then resolved deepest first:
    x_i's orbit under the stabilizer of x_0, ..., x_{i-1} starts as its
    orbit under every witness found so far, all of which fix those points;
    one membership search runs per cell member outside it, and the orbit is
    closed again under every witness after each one found.  Each orbit is
    then whole, so the witnesses generate each stabilizer in turn and the
    group order is the product of the orbit sizes.  A witness maps x_i
    outside the orbit of the group found so far, so it at least doubles
    that group: with the shift, at most ceil(log2 |Aut|) + 1 generators.
    The search for one mapping x_i to a candidate y starts from the level's
    stable coloring, which every automorphism fixing the earlier base
    points preserves, so it repeats none of the level's splits.

    Pair codes are built once per call and shared by every refinement and
    search.  A level whose refined partition is discrete ends the descent.
    Level 0 refines the ranks of the codes' diagonal, which are the ranks of
    m's diagonal since a code is monotone in its diagonal entry, every class
    queued; each later level refines the previous level's stable coloring
    with its base point individualized (``refine``'s ``point``), the point
    alone queued.  Both reach the stable partition that refining the
    diagonal with every base point individualized reaches: refinement gives
    the coarsest equitable partition finer than its seed, and the two seeds
    have the same one.

    Shift seeding: if n >= 2 and the shift v -> v+1 preserves m, diagonal
    included (``_shift_row``), level 0 is resolved without refinement or
    search.  The shift is the first generator, vertex 0 the first base
    point, and its orbit is every vertex; it closes no deeper orbit, since
    it fixes no point.  This is the level the search would have reached,
    since a transitive group leaves one cell and 0 is its first vertex.
    The diagonal is then uniform and the pair codes are rotations of their
    row 0, and level 1 starts from the diagonal, stable under a transitive
    group, split by vertex 0.

    m may be a ``Circulant``, an input format: the engine reads its ``row``
    alone, indexes no row of the view and builds its code rows from that
    row (``_convolution``).  Any other m must be square: a ragged one is
    refused with ValueError before ``_shift_row``, which would take its
    row 0 as a circulant's row.
    """
    n = len(m)
    if not isinstance(m, Circulant) and any(len(row) != n for row in m):
        raise ValueError("color matrix must be square")
    first = _shift_row(m)
    gens, order, point = [], 1, None
    if first is not None and n > 1:  # at n = 1 the shift is the identity, no generator
        gens, order, point = [tuple(range(1, n)) + (0,)], n, 0
    codes = _pair_codes(m) if first is None else _convolution(first)
    diagonal = [row[v] for v, row in enumerate(codes)]
    rank = {d: i for i, d in enumerate(sorted(set(diagonal)))}
    colors = [rank[d] for d in diagonal]
    levels = []
    while True:
        colors = refine(colors, codes=codes, point=point)
        sizes = Counter(colors)
        point = next((v for v in range(n) if sizes[colors[v]] > 1), None)
        if point is None:
            break
        levels.append((colors, point))
    found = []
    for colors, x in reversed(levels):
        orbit = _close_orbit({x}, found)
        for y in range(x + 1, n):
            if colors[y] == colors[x] and y not in orbit:
                witness = iso_search(colors, x, y, codes=codes)
                if witness is not None:
                    found.append(tuple(witness))
                    orbit = _close_orbit(orbit, found)
        order *= len(orbit)
    return gens + found, order
