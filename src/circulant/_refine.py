"""Search engine for arc-colored digraphs: refinement and automorphisms.

A structure is an n x n matrix of small integer arc colors; entry [u][v] is
the color of the ordered pair (u, v) and the diagonal holds vertex colors
(for a plain digraph: 1 = arc/loop, 0 = none).  Vertex classes are refined by
iterated neighborhood signatures, searches backtrack over refined classes,
and every choice point iterates in sorted order so results are deterministic.

Signature pass: each refinement call first codes every ordered pair (v, u)
by its two colors m[v][u] and m[u][v] as one int, once.  A round then gives
vertex v its color and the sorted multiset of (color of u, code of (v, u))
over all u, each pair folded into one int, so the counting and sorting run
at C level.  The pair u = v is counted too; that is harmless because its
entry depends on v's own color alone, as long as the colors refine the
diagonal, which every caller's colors do.  A search for an automorphism
extending a partial map refines two colorings of one structure side by side
with one shared color table.

The automorphism search individualizes one vertex per level and multiplies
orbit sizes, which yields the exact group order without enumerating elements.
When the shift v -> v+1 preserves the whole matrix (every circulant in its
natural labeling), it is taken as the first generator and level 0 needs no
refinement and no search: its orbit is every vertex.
"""

from collections import Counter
from operator import add


def _pair_codes(m):
    """Row v codes each pair (v, u) by (m[v][u], m[u][v]).

    With k the span of the colors, the code a*k + b is one to one and all
    codes lie in a window of k*k consecutive ints, the second value returned.
    """
    lo = min(map(min, m), default=0)
    k = max(map(max, m), default=0) - lo + 1
    return [[a * k + b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))], k * k


def _signatures(codes, width, colors):
    shifted = [c * width for c in colors]
    return [(c, tuple(sorted(map(add, row, shifted)))) for row, c in zip(codes, colors)]


def _refine_joint(m, colorings):
    """Refine several colorings of one structure side by side with one shared
    color table.

    Returns the stable colorings, or None as soon as two colorings' color
    classes differ in size.  The colorings must refine the diagonal.
    """
    codes, width = _pair_codes(m)
    colorings = [list(c) for c in colorings]
    while True:
        sigs = [_signatures(codes, width, colors) for colors in colorings]
        table = {s: i for i, s in enumerate(sorted(set().union(*sigs)))}
        new = [[table[s] for s in ss] for ss in sigs]
        if any(Counter(other) != Counter(new[0]) for other in new[1:]):
            return None
        if len(table) == len(set(colorings[0])):
            return new
        colorings = new


def refine(m, colors):
    """Iterate signature refinement on one structure until the partition is stable.

    ``colors`` must refine the diagonal: equal colors, equal m[v][v].
    """
    return _refine_joint(m, (colors,))[0]


def _diagonal_colors(m):
    """Each vertex's rank among the distinct diagonal values, and their count."""
    rank = {d: i for i, d in enumerate(sorted({m[v][v] for v in range(len(m))}))}
    return [rank[m[v][v]] for v in range(len(m))], len(rank)


def iso_search(m, forced):
    """An automorphism of m extending the partial map ``forced``, or None.

    Vertices are mapped in order of their candidate count (ties by index),
    each trying its images in ascending order, so the witness returned is
    deterministic.
    """
    n = len(m)
    items = sorted(forced.items())
    if len({b for _, b in items}) != len(items):
        return None
    for a1, b1 in items:
        for a2, b2 in items:
            if m[a1][a2] != m[b1][b2]:
                return None

    ca, next_color = _diagonal_colors(m)
    cb = list(ca)
    for a, b in items:
        ca[a] = next_color
        cb[b] = next_color
        next_color += 1
    refined = _refine_joint(m, (ca, cb))
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

    def dfs(idx):
        if idx == n:
            return True
        v = order[idx]
        prefix = order[:idx]
        row_a = m[v]
        for u in cands[v]:
            if used[u]:
                continue
            row_b = m[u]
            ok = True
            for w in prefix:
                x = mapping[w]
                if row_a[w] != row_b[x] or m[w][v] != m[x][u]:
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if dfs(idx + 1):
                    return True
                mapping[v] = -1
                used[u] = False
        return False

    if dfs(0):
        return list(mapping)
    return None


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
    the orbit sizes.  Found witnesses generate the full group.

    Shift seeding: if the shift v -> v+1 preserves m, diagonal included (n
    row comparisons), level 0 is resolved without refinement or search.  The
    shift is the first generator, vertex 0 the first base point, and its
    orbit is every vertex; this is the level the search would have reached,
    since a transitive group leaves one cell and 0 is its first vertex.
    """
    n = len(m)
    ca, next_color = _diagonal_colors(m)
    base = []
    gens = []
    order = 1
    if n > 1 and all(m[(u + 1) % n] == m[u][-1:] + m[u][:-1] for u in range(n)):
        gens.append(tuple(range(1, n)) + (0,))
        base.append(0)
        order = n
    while True:
        seeded = list(ca)
        for i, b in enumerate(base):
            seeded[b] = next_color + i
        colors = refine(m, seeded)

        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for v in range(n):
            if len(cells[colors[v]]) > 1:
                target = cells[colors[v]]
                break
        if target is None:
            return gens, order

        x = target[0]
        forced_base = {b: b for b in base}
        orbit = {x}
        level_gens = []
        for y in target[1:]:
            if y in orbit:
                continue
            witness = iso_search(m, {**forced_base, x: y})
            if witness is not None:
                witness = tuple(witness)
                gens.append(witness)
                level_gens.append(witness)
                orbit = _close_orbit(orbit, level_gens)
        order *= len(orbit)
        base.append(x)
