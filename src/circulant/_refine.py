"""Search engine for arc-colored digraphs: refinement and automorphisms.

A structure is an n x n matrix of small integer arc colors; entry [u][v] is
the color of the ordered pair (u, v) and the diagonal holds vertex colors
(for a plain digraph: 1 = arc/loop, 0 = none).  Vertex classes are refined by
iterated neighborhood signatures and searches backtrack over refined classes.
Each round numbers its colors in order of first appearance on one shared
table, not in sorted order: refinement needs the partition, not an order on
the colors, since no canonical labeling is computed (McKay and Piperno,
"Practical graph isomorphism, II", 2014).  Every choice the search makes
reads cells in vertex order, never color values, so results are
deterministic and independent of how colors are numbered.

Signature pass: every ordered pair (v, u) is coded by its two colors
m[v][u] and m[u][v] as one int, once per automorphism search (for a circulant
each row of codes is a rotation of row 0).  A round then gives vertex v its
color and the sorted multiset of (color of u, code of (v, u)) over all u,
each pair folded into one int, so the counting and sorting run at C level.
The pair u = v is counted too; that is harmless because its entry depends on
v's own color alone, as long as the colors refine the diagonal, which every
caller's colors do.  Only open vertices, those in classes of two or more,
are signed: a class of one cannot split, so its vertex keeps its color as
its key, and a round costs in proportion to the open vertices.  Refinement
stops as soon as the partition is discrete.  A search for an automorphism
mapping x to y refines the level's stable coloring with x and with y
individualized side by side, one shared color table for both, by the same
rounds; ``_individualize`` alone gives vertices colors of their own.

Convolution rounds: when the shift v -> v+1 preserves the matrix and
n < 256, a round need sort no rows.  The multiset above is the same as the
counts, per class i and code rank j, of the vertices u of class i whose
code to v has rank j, and for a circulant those counts are cyclic
correlations: a few int products per class give them for every v at once
(``_convolution``, ``_code_counts``).  The signature becomes
the color and the counts, which gives the same partition.  The products
cost about one pass over n per class and a sorted row about log2 n passes
per open vertex, so a round takes the products when the open vertices
times log2 n are no fewer than the classes and sorts rows otherwise.
Other structures, and circulants from n = 256 on, where a count could carry
into the next byte, sort rows.

Regular certificate: most circulants have Aut = Z_n, and one product of row
0 can prove it before any code is built (``_fixes_every_vertex``).  With x
the arcs of the row's top color, the 2-paths 0 -> u -> v of that color and
the arcs 0 -> v and v -> 0 key each v, and every automorphism fixing 0
keeps each key, so it fixes each vertex alone in its key.  Conjugating by
the shift, the points it fixes are closed under adding each such offset;
when those offsets and n have gcd 1, the stabilizer of 0 is trivial.

Circulant input: a circulant comes in as its row 0, wrapped in the
read-only view ``Circulant``: entry [u][v] is row[(v - u) mod n], and row u
is built only when it is indexed.  The shift v -> v+1 preserves such a
matrix by construction, so it is not tested row by row, its row 0 is read
as it is held, and the diagonal is the constant row[0].  The pair codes are
their ranks, held as the view of their row 0 and built with the kernel in
one pass over row 0 (``_convolution``), and individualizations and row
sorts read the codes of a vertex by index arithmetic on that row, so no row
of the codes is built for them.

Refinement and search read the pair codes alone; only ``_shift_row``,
``_search_codes`` and ``_diagonal_colors`` read the matrix.  The search
compares code rows, read through the ``Circulant`` view, which builds a row
when first indexed, and backtracks in a loop, so Python's recursion limit
does not bound its depth.

The automorphism search individualizes one vertex per level and multiplies
orbit sizes, which yields the exact group order without enumerating elements.
Each level starts from the previous level's stable coloring, and its first
round, inside ``refine``, is one pass over the codes to the new base point.
When the shift v -> v+1 preserves the whole matrix (every circulant in its
natural labeling), it is taken as the first generator and level 0 needs no
refinement and no search: its orbit is every vertex.
"""

from collections import Counter
from math import gcd
from operator import add


class Circulant:
    """The read-only n x n matrix [u][v] = row[(v - u) mod n] of its row 0.

    Row u, row 0 rotated right by u, is built when it is first indexed and
    kept; iterating builds every row.  The engine reads a circulant's shift,
    diagonal, pair codes and convolution kernel from ``row`` alone.
    """

    __slots__ = ("row", "_rows")

    def __init__(self, row):
        self.row = tuple(row)
        self._rows = [None] * len(self.row)

    def __len__(self):
        return len(self.row)

    def __getitem__(self, u):
        built = self._rows[u]
        if built is None:
            n = len(self.row)
            u %= n
            built = self._rows[u] = self.row[n - u :] + self.row[: n - u]
        return built

    def __iter__(self):
        return map(self.__getitem__, range(len(self.row)))


def _pair_codes(m):
    """Row v codes each pair (v, u) by (m[v][u], m[u][v]).

    With k the span of the colors, the code a*k + b is one to one and all
    codes lie in a window of k*k consecutive ints, the second value returned.
    A circulant's codes come from ``_convolution`` instead.
    """
    lo = min(map(min, m), default=0)
    k = max(map(max, m), default=0) - lo + 1
    return [[a * k + b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))], k * k


# bytes.translate tables: byte j to 1, every other to 0
_INDICATORS = [bytes(j) + b"\1" + bytes(255 - j) for j in range(256)]

# A product of indicator bytes counts vertices, at most n in each byte, so
# below this n no byte carries into the next.
_KERNEL_LIMIT = 256


def _convolution(first):
    """A circulant's pair codes as code ranks, from its row 0 ``first``,
    and their convolution kernel, or None from n = 256 on.

    Code (v, u), the pair (m[v][u], m[u][v]), has rank r[(v - u) mod n],
    where r[e] is the rank of code (e, 0) among the codes.  Ranks replace
    the codes everywhere: the first value returned is the ``Circulant`` of
    row 0 of the ranks, r[-u] at u, and the second their span.

    The kernel is r as bytes and, for each rank j > 0, the int whose byte e
    is 1 where r[e] = j (Kronecker substitution): for X the indicator bytes
    of a class, doubled, bytes n..2n-1 of X times that int count, for each
    v, the members u with code (v, u) of rank j.  Rank 0 is left out: its
    count is the class size less the others'.  From n = ``_KERNEL_LIMIT``
    on a count could carry into the next byte, and there is no kernel.
    """
    pairs = list(zip(first[:1] + first[:0:-1], first))  # m[e][0] = first[-e]
    rank = {code: j for j, code in enumerate(sorted(set(pairs)))}
    r = list(map(rank.__getitem__, pairs))
    kernel = None
    if len(r) < _KERNEL_LIMIT:
        r = bytes(r)
        kernel = r, [int.from_bytes(r.translate(_INDICATORS[j]), "little") for j in range(1, len(rank))]
    return Circulant(r[:1] + r[:0:-1]), len(rank), kernel


def _product_counts(x, ys, n):
    """For the indicator bytes x of a class, the bytes whose byte v counts
    the members u with code (v, u) of rank j, for each kernel int y of ``ys``."""
    x = int.from_bytes(x + x, "little")
    return [(x * y).to_bytes(3 * n, "little")[n : 2 * n] for y in ys]


def _fixes_every_vertex(first):
    """Whether one product proves that every automorphism fixing 0 of the
    shift-preserved matrix with row 0 ``first`` fixes every vertex.

    x holds the bytes of "entry e of ``first`` is its top value": x[v] and
    x[-v] are the arcs 0 -> v and v -> 0 of the top color, and one product,
    as ``_product_counts`` takes it, counts the 2-paths 0 -> u -> v of that
    color.  An automorphism fixing 0 keeps each key (paths[v], x[v], x[-v]),
    so it fixes v when v is alone in its key; conjugating by the shift, one
    fixing t then fixes t + v.  The points Aut_0 fixes thus contain 0 and
    are closed under adding each singled-out offset, so when those offsets
    and n have gcd 1, Aut_0 = 1; the scan stops once their gcd is 1.  n
    must be below ``_KERNEL_LIMIT``.

    x is read by one ``bytes.translate``, and by a comparison per entry only
    when some entry lies outside 0..255.  Each key is one int, the 16-bit
    lane whose two bytes are paths[v] and 2 x[v] + x[-v], each under 256,
    so equal ints are equal keys and equal keys equal ints.
    """
    n = len(first)
    top = max(first)
    try:
        x = bytes(first).translate(_INDICATORS[top])
    except ValueError:
        x = bytes(map(top.__eq__, first))
    arcs_out = int.from_bytes(x, "little")
    (paths,) = _product_counts(x, [arcs_out], n)
    arcs = 2 * arcs_out + int.from_bytes(x[:1] + x[:0:-1], "little")
    lanes = bytearray(2 * n)
    lanes[::2] = paths
    lanes[1::2] = arcs.to_bytes(n, "little")
    keys = memoryview(lanes).cast("H").tolist()
    sizes = Counter(keys)
    g = n
    for v, key in enumerate(keys):
        if sizes[key] == 1:
            g = gcd(g, v)
            if g == 1:
                return True
    return False


def _sorted_rows(codes, width, colors, opened):
    """The color of each vertex in ``opened`` and the sorted multiset of
    (color of u, code of (v, u)), one int each.

    Codes held as a ``Circulant`` are read by index arithmetic on row 0:
    row v is row 0 rotated right by v.
    """
    shifted = [c * width for c in colors]
    if isinstance(codes, Circulant):
        n, doubled = len(colors), codes.row * 2
        rows = (doubled[n - v : 2 * n - v] for v in opened)
    else:
        rows = map(codes.__getitem__, opened)
    return [(colors[v], tuple(sorted(map(add, row, shifted)))) for v, row in zip(opened, rows)]


def _code_counts(kernel, colors, sizes, opened):
    """The signature of each vertex v in ``opened``, a tuple: its color, then
    class by class the number of u in the class with code (v, u) of each
    rank, by ``_convolution``'s products.

    ``sizes`` maps each color to its class size; classes are taken in its
    order.  The counts fix the multiset ``_sorted_rows`` sorts and are fixed
    by it, so the two give the same partition.  Colors must be in 0..255, so
    they fit in a byte (``bytes`` raises otherwise).  The search's are:
    every coloring is numbered 0, 1, ... on a table, and colorings refined
    side by side have equal class sizes before each round, so they share at
    most n colors.  A singleton class {u} needs no product: its column is r
    rotated right by u, the rank of the code to u itself.  The first largest
    class in ``sizes`` is left out, since its counts are the code totals,
    the same for every vertex, less the other classes'.  Colorings given the
    same ``sizes`` therefore get comparable signatures.
    """
    r, products = kernel
    n = len(colors)
    members = bytes(colors)
    skip = max(sizes, key=sizes.__getitem__)
    columns = [members]
    for c in sizes:
        if c == skip:
            continue
        if sizes[c] == 1:
            u = members.index(c)
            columns.append(r[n - u :] + r[: n - u])
        else:
            columns += _product_counts(members.translate(_INDICATORS[c]), products, n)
    signatures = list(zip(*columns))
    return list(map(signatures.__getitem__, opened))


def _signatures(codes, colors, sizes):
    """One round's key of each vertex.

    A vertex alone in its class keeps its color as its key: a singleton
    cannot split, and an int equals no signature.  The others, the open
    vertices, are signed by ``_code_counts`` when ``codes`` carry a
    convolution kernel and the open vertices times log2 n are no fewer than
    the classes; else by ``_sorted_rows``.  The products cost about one
    pass over n per class, a sorted row about log2 n passes per open vertex
    (its comparisons).  ``sizes`` are the class sizes of ``colors``; they
    alone decide the path, so colorings refined side by side take the same.
    """
    rows, width, kernel = codes
    keys = list(colors)
    opened = [v for v, c in enumerate(colors) if sizes[c] > 1]
    if kernel is not None and len(opened) * len(colors).bit_length() >= len(sizes):
        signed = _code_counts(kernel, colors, sizes, opened)
    else:
        signed = _sorted_rows(rows, width, colors, opened)
    for v, key in zip(opened, signed):
        keys[v] = key
    return keys


def _refine_joint(colorings, codes):
    """Refine several colorings of one structure side by side with one shared
    color table.

    Returns the stable colorings, or None as soon as two colorings' color
    classes differ in size; sizes are counted once a round and compared
    before it, so the colorings of a round share them and ``_signatures``'
    choices.  Colors are numbered in order of first appearance, first
    coloring first.  The colorings must refine the diagonal.  A round that
    leaves the partition discrete ends the refinement, since a discrete
    partition is stable: a single coloring is returned right after that
    round, and several have their class sizes compared once more.  ``codes``
    are pair codes, their span and a convolution kernel or None, as
    ``_search_codes`` builds them.  With a kernel, colors must be below 256.
    """
    n = len(colorings[0])
    sizes = Counter(colorings[0])
    done = False
    while True:
        if any(Counter(other) != sizes for other in colorings[1:]):
            return None
        if done:
            return colorings
        keys = [_signatures(codes, colors, sizes) for colors in colorings]
        table = {}
        colorings = [[table.setdefault(k, len(table)) for k in ks] for ks in keys]
        done = len(table) in (len(sizes), n)
        if done and len(colorings) == 1:
            return colorings
        sizes = Counter(colorings[0])


def refine(colors, *, codes, point=None):
    """Iterate signature refinement on one structure until the partition is stable.

    ``colors`` must refine the diagonal: equal colors, equal diagonal
    entries.  With ``point``, ``colors`` must be stable, and the point is
    individualized first (``_individualize``).  A discrete coloring is
    returned as it is, with no round.  ``codes`` are as for
    ``_refine_joint``.
    """
    if point is not None:
        (colors,) = _individualize(codes, colors, point)
    if len(set(colors)) == len(colors):
        return list(colors)
    return _refine_joint((colors,), codes)[0]


def _individualize(codes, colors, *points):
    """The stable coloring ``colors`` with each of ``points`` individualized
    in turn, after one round: one coloring per point.

    In a stable coloring a vertex's multiset of (color of u, code of (v, u))
    depends on its color alone, so giving x a color of its own changes v's
    signature only through the pair (v, x): the round splits each class by
    the code of (v, x), and x is alone.  Every point's coloring is numbered
    on one shared table in order of first appearance, and every point gets
    color 0, the sentinel key None's, which no real key equals, so the
    colorings can be refined side by side.  For codes held as
    a ``Circulant``, code (v, x) is row[(x - v) mod n], so the column is a
    reversed slice of the doubled row 0.
    """
    rows, width, _ = codes
    if isinstance(rows, Circulant):
        doubled, n = rows.row * 2, len(rows)
        columns = [doubled[x + n : x : -1] for x in points]
    else:
        columns = [[row[x] for row in rows] for x in points]
    keyed = [[c * width + e for c, e in zip(colors, column)] for column in columns]
    for x, keys in zip(points, keyed):
        keys[x] = None
    table = {None: 0}
    return [[table.setdefault(k, len(table)) for k in keys] for keys in keyed]


def _diagonal_colors(m):
    """Each vertex's rank among the distinct diagonal values."""
    rank = {d: i for i, d in enumerate(sorted({m[v][v] for v in range(len(m))}))}
    return [rank[m[v][v]] for v in range(len(m))]


def iso_search(colors, x, y, *, codes):
    """An automorphism that preserves the stable coloring ``colors`` and
    maps x to y, or None.

    ``colors`` with x and with y individualized are refined side by side,
    and a vertex's candidate images are its class in the second.  Vertices
    are mapped in order of their candidate count (ties by index), each
    trying its images in ascending order, so the witness returned is
    deterministic.  v -> u extends the mapping when code (v, w) equals code
    (u, mapping[w]) for every w mapped before v; a code holds both colors
    of its pair.  Backtracking is a loop over a stack of candidate
    iterators.  ``codes`` are as for ``_refine_joint``.
    """
    rows = codes[0]
    n = len(colors)
    refined = _refine_joint(_individualize(codes, colors, x, y), codes)
    if refined is None:
        return None
    ca, cb = refined

    by_color = {}
    for u in range(n):
        by_color.setdefault(cb[u], []).append(u)
    cands = [by_color[c] for c in ca]
    order = sorted(range(n), key=lambda v: (len(cands[v]), v))

    mapping = [-1] * n
    used = [False] * n
    trials = [iter(cands[order[0]])]  # trials[i]: the images order[i] has left to try
    while trials:
        depth = len(trials) - 1
        v = order[depth]
        if mapping[v] >= 0:  # back from its image's failed subtree
            used[mapping[v]] = False
            mapping[v] = -1
        row = rows[v]
        mapped = order[:depth]
        for u in trials[-1]:
            if not used[u]:
                image = rows[u]
                if all(row[w] == image[mapping[w]] for w in mapped):
                    break
        else:
            trials.pop()
            continue
        mapping[v] = u
        used[u] = True
        if depth + 1 == n:
            return mapping
        trials.append(iter(cands[order[depth + 1]]))
    return None


def _shift_row(m):
    """Row 0 of m if the shift v -> v+1 preserves m, diagonal included;
    else None.

    A ``Circulant`` is preserved by definition, and its row 0 is its
    ``row``, so no row of the view is built; any other matrix is tested by
    n row comparisons.
    """
    n = len(m)
    if n < 2:
        return None
    if isinstance(m, Circulant):
        return m.row
    doubled = m[0] * 2
    return m[0] if all(m[u] == doubled[n - u : 2 * n - u] for u in range(1, n)) else None


def _search_codes(m, first):
    """m's pair codes, their span and a convolution kernel or None, given
    its ``_shift_row`` ``first``.

    With a row 0, codes and kernel come from it in one pass
    (``_convolution``); else the codes are dense and the kernel is None.
    """
    if first is not None:
        return _convolution(first)
    return (*_pair_codes(m), None)


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

    Stabilizer-chain style: at each level the first vertex of the first
    non-singleton refined cell is individualized; its orbit under the point
    stabilizer of the previously fixed vertices is measured by one membership
    search per unresolved candidate, and the group order is the product of
    the orbit sizes.  Found witnesses generate the full group.  The search
    for one mapping the base point x to a candidate y starts from the
    level's stable coloring, which every automorphism fixing the earlier
    base points preserves, so it repeats none of the level's rounds.

    Pair codes, and for a circulant below 256 vertices their convolution
    kernel, are built once per call and shared by every refinement and
    search.  A level whose refined partition is discrete ends the search.
    Level 0 refines the diagonal coloring; each later level refines the
    previous level's stable coloring with its base point individualized
    (``refine``'s ``point``), whose first round splits each class by the
    code to that point.  Both reach the stable partition that refining the
    diagonal with every base point individualized reaches: refinement gives
    the coarsest equitable partition finer than its seed, and the two seeds
    have the same one.

    Shift seeding: if the shift v -> v+1 preserves m, diagonal included
    (``_shift_row``), level 0 is resolved without refinement or search.
    The shift is the first generator, vertex 0 the first base point, and
    its orbit is every vertex; this is the level the search would have
    reached, since a transitive group leaves one cell and 0 is its first
    vertex.  The diagonal is then uniform and the pair codes are rotations
    of their row 0, and level 1 starts from the diagonal, stable under a
    transitive group, split by vertex 0.

    Regular certificate: below 256 vertices, ``_fixes_every_vertex`` first
    tries to prove from row 0 that Aut_0 = 1: an automorphism fixing 0
    keeps each vertex's 2-paths from 0 and arcs to and from 0 in the row's
    top color, so it fixes a vertex alone in that key, and, by the shift,
    the points it fixes are closed under adding such a vertex.  When the
    proof holds, (the shift, n) is returned before any code is built;
    refinement would return the same, since no search finds a witness in a
    trivial stabilizer.

    m may be a ``Circulant``: the engine reads its row 0 alone, and a level
    that needs a search builds the code rows the search reads.  A circulant
    with |Aut| = n that the certificate settles, or whose refinement with
    vertex 0 individualized is discrete, builds no row of the matrix or of
    its codes.
    """
    n = len(m)
    first = _shift_row(m)
    gens = []
    order = 1
    point = None
    if first is not None:
        gens.append(tuple(range(1, n)) + (0,))
        order = n
        point = 0
        if n < _KERNEL_LIMIT and _fixes_every_vertex(first):
            return gens, order
    codes = _search_codes(m, first)
    colors = [0] * n if first is not None else _diagonal_colors(m)
    while True:
        colors = refine(colors, codes=codes, point=point)
        if len(set(colors)) == n:
            return gens, order

        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = next(cells[c] for c in colors if len(cells[c]) > 1)
        x = target[0]
        orbit = {x}
        level_gens = []
        for y in target[1:]:
            if y in orbit:
                continue
            witness = iso_search(colors, x, y, codes=codes)
            if witness is not None:
                witness = tuple(witness)
                gens.append(witness)
                level_gens.append(witness)
                orbit = _close_orbit(orbit, level_gens)
        order *= len(orbit)
        point = x
