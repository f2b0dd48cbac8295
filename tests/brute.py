"""Independent brute-force oracles used to derive and pin expected values.

These deliberately avoid the library's algorithms: subdivision is checked by
exhausting labeled bin assignments, automorphisms by scanning all of Sym(n),
pair-orbit preservation directly from the definition, pair orbits by a
search over pairs, the coset condition on the explicit subgroups of Z_n (or,
at large n, on every translate), the block-local translations one coset and
one t at a time, color
refinement by a plain loop over every ordered pair (of one coloring, or of
several side by side, every vertex signed every round), the automorphism search
by refining every level afresh and backtracking over plain pair checks,
element closure by testing every element of each new coset for membership,
regular abelian subgroups by building each candidate subgroup as a set of
elements, the regular certificate by keying each vertex with a tuple and
counting its 2-paths pair by pair, the tower group W by its coloring of
valuations and digits, the tower digraph by wreathing its factors one by
one, the abelian groups of order n by listing each exponent's partitions
recursively, up-sets and cover pairs of the partial order on them by
testing every group, or every pair, with ``preceq``, the dominance test
that is itself checked against strip peeling and subgroup chains, and
nilpotency by the lower central series.  Permutations are image tuples, composed by ``compose``.
The connection-set literal is read token by token, each stripped, read and
range-checked in turn (``parse_literal_loop``).
"""

from collections import Counter
from itertools import permutations, product
from math import gcd, lcm, prod

from circulant.abelian import AbelianType
from circulant.analyzer import ConnectionSet
from circulant.arith import factorize
from circulant.digraph import _tower_factors, cayley_digraph
from circulant.errors import CapacityError
from circulant.permgroup import PermGroup


def parse_literal_loop(text):
    """A literal "n=45; S=0,1,15,30" read token by token: the connection set and
    the message of each element reduced mod n, in the order written."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError(f"expected 'n=...; S=...' with one ';' in {text!r}")
    left, right = parts[0].strip(), parts[1].strip()
    if not left.startswith("n="):
        raise ValueError(f"expected 'n=<int>' at position 0 of {text!r}")
    if not right.startswith("S="):
        raise ValueError(f"expected 'S=<list>' after ';' in {text!r}")
    try:
        n = int(left[2:].strip())
    except ValueError:
        raise ValueError(f"bad modulus {left[2:]!r} in {text!r}") from None
    if n < 1:
        raise ValueError(f"modulus must be positive in {text!r}")
    body = right[2:].strip()
    members, messages = set(), []
    if body:
        for i, token in enumerate(body.split(",")):
            token = token.strip()
            try:
                value = int(token)
            except ValueError:
                raise ValueError(f"bad element {token!r} at index {i} in {text!r}") from None
            if not (0 <= value < n):
                messages.append(f"element {value} reduced mod {n}")
                value %= n
            members.add(value)
    return ConnectionSet(n, frozenset(members)), messages


def brute_subdivision(a, b):
    """Exhaust all assignments of entries of a to labeled bins with target sums b."""
    if sum(a) != sum(b):
        return False
    for assignment in product(range(len(b)), repeat=len(a)):
        sums = [0] * len(b)
        for x, j in zip(a, assignment):
            sums[j] += x
        if sums == list(b):
            return True
    return False


def preceq_p(g, h):
    """The realizability order on abelian p-groups, each a (p, parts) pair.

    g precedes h when g is isomorphic to the product of the cyclic quotients
    of some chain of subgroups of h.  Factoring out one cyclic subgroup
    removes a horizontal strip from the exponent partition (no two boxes in a
    column), so chains peel h's partition strip by strip and the achievable
    products are exactly the partitions dominated by h's: every leading
    partial sum of g's exponents is at most the corresponding sum of h's.

    Note this is strictly coarser than multiset-grouping subdivision: a
    diagonal subgroup can split exponents across factors, e.g. the quotient
    of Z_{p^3} x Z_p by a diagonal Z_{p^2} is cyclic, so (2,2) precedes (3,1)
    although {2,2} cannot be grouped into sums {3,1}.
    """
    (p, g_parts), (q, h_parts) = g, h
    if p != q:
        raise ValueError(f"mismatched primes: {p} vs {q}")
    if sum(g_parts) != sum(h_parts):
        return False
    sum_g = sum_h = 0
    for i in range(max(len(g_parts), len(h_parts))):
        sum_g += g_parts[i] if i < len(g_parts) else 0
        sum_h += h_parts[i] if i < len(h_parts) else 0
        if sum_g > sum_h:
            return False
    return True


def group_order(g):
    """The order of an abelian type, from its (p, parts) pairs."""
    return prod(p ** sum(parts) for p, parts in g.sylow)


def preceq(g, h):
    """Product order: compare Sylow subgroups prime by prime."""
    if group_order(g) != group_order(h):
        raise ValueError(f"orders differ: {group_order(g)} vs {group_order(h)}")
    h_parts = dict(h.sylow)
    return all(preceq_p((p, parts), (p, h_parts[p])) for p, parts in g.sylow)


def brute_partitions(k):
    """All partitions of k as non-increasing tuples, in ascending lexicographic
    order, by recursion on the largest part."""
    if k == 0:
        return ((),)
    out = []

    def extend(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for x in range(min(remaining, maxpart), 0, -1):
            extend(remaining - x, x, prefix + (x,))

    extend(k, k, ())
    return tuple(sorted(out))


def brute_enumerate_abelian(n):
    """Every abelian group of order n, one partition of each exponent per
    prime, lexicographic by prime then partition."""
    per_prime = [[(p, parts) for parts in brute_partitions(a)] for p, a in factorize(n)]
    return [AbelianType(combo) for combo in product(*per_prime)]


def brute_up_set(h):
    """Every abelian group of h's order that is >= h, in enumeration order."""
    return [k for k in brute_enumerate_abelian(group_order(h)) if preceq(h, k)]


def brute_hasse_edges(n):
    """Cover pairs (g, h): h > g with no group strictly between them."""
    groups = brute_enumerate_abelian(n)
    above = {g: [h for h in groups if h != g and preceq(g, h)] for g in groups}
    return [
        (g, h)
        for g in groups
        for h in above[g]
        if not any(preceq(k, h) for k in above[g] if k != h)
    ]


def subgroup_of_order(n, d):
    """The unique subgroup of Z_n of order d, for d dividing n, as a set."""
    return frozenset(range(0, n, n // d))


def brute_translation_check(s, p, level):
    """Every block-local translation, "add t on one coset of W, fix everything
    else", for every coset of W and every t in P, preserves the arcs u -> v,
    v - u in S.  Any level 1..a-1 is accepted, valid or not."""
    n, members = s.n, s.members
    a = 0
    while n % p ** (a + 1) == 0:
        a += 1
    generator = n // p**level
    envelope = p ** (a - level)  # W is the multiples of p^(a-level); its cosets are the residues mod it
    for rep in range(envelope):
        for t in range(generator, n, generator):
            image = [(x + t) % n if x % envelope == rep else x for x in range(n)]
            if any((image[(u + x) % n] - image[u]) % n not in members for u in range(n) for x in members):
                return False
    return True


def brute_coset_condition(s, p, level):
    """S outside W is a union of cosets of P, with P and W built as sets."""
    n = s.n
    a = 0
    while n % p ** (a + 1) == 0:
        a += 1
    subgroup = subgroup_of_order(n, p**level)
    envelope = subgroup_of_order(n, p**level * (n // p**a))
    members = s.members
    for x in members:
        if x in envelope:
            continue
        if any((x + t) % n not in members for t in subgroup):
            return False
    return True


def scan_coset_condition(s, p, level):
    """The coset condition with every translate in P tried and W tested by divisibility.

    For n too large to build P and W as sets: x lies in W exactly when
    p^(a - level) divides it, and P is the multiples of n / p^level.
    """
    n = s.n
    a = 0
    while n % p ** (a + 1) == 0:
        a += 1
    step, envelope = n // p**level, p ** (a - level)
    members = s.members
    return all(
        x % envelope == 0 or all((x + t) % n in members for t in range(step, n, step)) for x in members
    )


def brute_refine(m, colors):
    """Signature refinement to a stable partition, one Python loop over all pairs."""
    n = len(colors)
    colors = list(colors)
    while True:
        sigs = []
        for v in range(n):
            cnt = Counter()
            for u in range(n):
                if u != v:
                    cnt[(m[v][u], m[u][v], colors[u])] += 1
            sigs.append((colors[v], tuple(sorted(cnt.items()))))
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if len(table) == len(set(colors)):
            return new
        colors = new


def full_refine(m, colorings, rounds=None):
    """Refine colorings of m side by side on one shared color table, every
    vertex signed in every round, the engine's rule before it skipped
    singleton classes.

    A vertex's signature is its color and the sorted multiset of (color of
    u, m[v][u], m[u][v]) over every u.  Colors are numbered in order of first
    appearance, first coloring first.  Class sizes are compared before each
    round, and None is returned as soon as they differ.  Refinement stops
    after ``rounds`` rounds, if given, or once a round splits no class or
    leaves the partition discrete; a single coloring is then returned at
    once, several after one more comparison.
    """
    n = len(m)
    colorings = [list(c) for c in colorings]
    sizes = Counter(colorings[0])
    done = False
    while True:
        if any(Counter(c) != sizes for c in colorings[1:]):
            return None
        if done or rounds == 0:
            return colorings
        table = {}
        colorings = [
            [
                table.setdefault((c[v], tuple(sorted((c[u], m[v][u], m[u][v]) for u in range(n)))), len(table))
                for v in range(n)
            ]
            for c in colorings
        ]
        done = len(table) in (len(sizes), n)
        if done and len(colorings) == 1:
            return colorings
        sizes = Counter(colorings[0])
        rounds = None if rounds is None else rounds - 1


def brute_iso_search(m, forced):
    """The first automorphism of m extending ``forced`` in the engine's order,
    by plain backtracking, or None.

    Two copies of m, joined by arcs of a color m does not use, are refined as
    one structure with each forced pair given a color of its own, so a vertex's
    candidates are the second copy's vertices in its class.  Vertices are
    mapped in order of their candidate count (ties by index), each trying its
    candidates in ascending order, and every pair is checked.
    """
    n = len(m)
    cross = min(map(min, m)) - 1
    union = [[m[i % n][j % n] if (i < n) == (j < n) else cross for j in range(2 * n)] for i in range(2 * n)]
    rank = {d: i for i, d in enumerate(sorted({m[v][v] for v in range(n)}))}
    seed = [rank[m[v % n][v % n]] for v in range(2 * n)]
    for i, (a, b) in enumerate(sorted(forced.items())):
        seed[a] = seed[n + b] = len(rank) + i
    colors = brute_refine(union, seed)
    cands = [[u for u in range(n) if colors[n + u] == colors[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: (len(cands[v]), v))
    mapping = {}

    def dfs(idx):
        if idx == n:
            return True
        v = order[idx]
        for u in cands[v]:
            if u in mapping.values():
                continue
            mapping[v] = u
            if all(m[w][v] == m[mapping[w]][u] and m[v][w] == m[u][mapping[w]] for w in mapping):
                if dfs(idx + 1):
                    return True
            del mapping[v]
        return False

    return tuple(mapping[v] for v in range(n)) if dfs(0) else None


def reference_automorphisms(m):
    """Generators and order of Aut(m) as the engine's search finds them, with
    every level refined afresh from the diagonal.

    The descent: each level refines the diagonal colors with every base
    point so far individualized and takes the first vertex of the first
    class with more than one vertex as its base point.  The levels are then
    resolved deepest first: a level's orbit starts as its base point's orbit
    under every witness found so far, and one ``brute_iso_search``, fixing
    the earlier base points, runs per class member not yet in it, the orbit
    closed again under every witness after each one found.  When the shift
    v -> v+1 preserves m, it is the first generator, 0 the first base point
    and its orbit every vertex; it closes no orbit.
    """
    n = len(m)
    rank = {d: i for i, d in enumerate(sorted({m[v][v] for v in range(n)}))}
    base, shift, order = [], [], 1
    if n > 1 and all(m[(u + 1) % n][(v + 1) % n] == m[u][v] for u in range(n) for v in range(n)):
        shift.append(tuple((v + 1) % n for v in range(n)))
        base.append(0)
        order = n
    levels = []
    while True:
        seed = [rank[m[v][v]] for v in range(n)]
        for i, b in enumerate(base):
            seed[b] = len(rank) + i
        colors = brute_refine(m, seed)
        classes = [[u for u in range(n) if colors[u] == colors[v]] for v in range(n)]
        target = next((c for c in classes if len(c) > 1), None)
        if target is None:
            break
        levels.append((list(base), target))
        base.append(target[0])

    def close(orbit, gens):
        while len(grown := orbit | {g[v] for g in gens for v in orbit}) > len(orbit):
            orbit = grown
        return orbit

    found = []
    for fixed, (x, *others) in reversed(levels):
        orbit = close({x}, found)
        for y in others:
            if y in orbit:
                continue
            witness = brute_iso_search(m, {**{b: b for b in fixed}, x: y})
            if witness is not None:
                found.append(witness)
                orbit = close(orbit, found)
        order *= len(orbit)
    return shift + found, order


def tuple_key_certificate(first):
    """The regular certificate keyed by tuples: whether the vertices alone in
    their key (x[v], x[-v], paths[v]) have offsets of gcd 1 with n.

    x[e] is 1 where entry e of the row is its top value, and paths[v], the
    2-paths 0 -> u -> v of that color, is summed pair by pair.
    """
    n = len(first)
    top = max(first)
    x = [int(c == top) for c in first]
    paths = [sum(x[u] * x[(v - u) % n] for u in range(n)) for v in range(n)]
    keys = [(x[v], x[-v], paths[v]) for v in range(n)]
    sizes = Counter(keys)
    g = n
    for v, key in enumerate(keys):
        if sizes[key] == 1:
            g = gcd(g, v)
    return g == 1


def compose(p, q):
    """The image tuple of p after q: x -> p[q[x]]."""
    return tuple(p[x] for x in q)


def brute_closure(group, cap):
    """The elements of the group as image tuples, in Dimino's order: for each
    generator g not yet found, each new representative r adds r∘e for every
    e of the subgroup before g, each tested for membership one at a time,
    and queues t∘r for every generator t so far.  CapacityError past cap."""
    identity = tuple(range(group.degree))
    els_list, els_set = [identity], {identity}
    active = []
    for g in group.generators:
        if g in els_set:
            continue
        active.append(g)
        old = els_list[:]
        queue = [g]
        while queue:
            r = queue.pop()
            if r in els_set:
                continue
            for e in old:
                x = compose(r, e)
                if x not in els_set:
                    els_set.add(x)
                    els_list.append(x)
                    if len(els_set) > cap:
                        raise CapacityError("group order exceeds element cap", cap)
            for t in active:
                queue.append(compose(t, r))
    return els_list


def inverse(g):
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def is_identity(g):
    return g == tuple(range(len(g)))


def cycle_lengths(g):
    """Cycle lengths of g, sorted: the orbit sizes of the cyclic group <g>."""
    seen, lengths = set(), []
    for start in range(len(g)):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x = g[x]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def element_order(g):
    return lcm(*cycle_lengths(g))


def abelian_extension(subgroup, g, order):
    """Elements of <subgroup, g> for g of the given order commuting with all of
    subgroup; None unless the order grows by the full factor."""
    powers = [tuple(range(len(g)))]
    for _ in range(order - 1):
        powers.append(compose(powers[-1], g))
    extended = {compose(a, q) for a in subgroup for q in powers}
    if len(extended) != len(subgroup) * order:
        return None
    return extended


def from_cycles(n, cycles):
    """The permutation of {0..n-1} with these cycles, e.g. [(0, 1, 2), (3, 4)]."""
    images = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def has_fixed_point(g):
    return any(g[x] == x for x in range(len(g)))


def is_semiregular(elements):
    return all(is_identity(g) or not has_fixed_point(g) for g in elements)


def element_set_search(pools, factors, degree):
    """The oracle's backtracking over commuting tuples, with each candidate
    subgroup built as a set of elements and scanned for fixed points."""

    def extend(i, chosen, subgroup, start):
        if i == len(factors):
            return True
        d = factors[i]
        pool = pools.get(d, [])
        begin = start if i > 0 and factors[i - 1] == d else 0
        for j in range(begin, len(pool)):
            g = pool[j]
            if g in subgroup:
                continue
            if any(compose(g, c) != compose(c, g) for c in chosen):
                continue
            extended = abelian_extension(subgroup, g, d)
            if extended is None or not is_semiregular(extended):
                continue
            if extend(i + 1, chosen + [g], extended, j + 1):
                return True
        return False

    return extend(0, [], {tuple(range(degree))}, 0)


def element_set_types(group, n):
    """Regular abelian types of order n in the group, by element_set_search
    over pools of elements whose cycles all have one length d > 1 dividing n."""
    pools = {}
    for g in group.elements():
        lengths = set(cycle_lengths(g))
        d = lengths.pop()
        if not lengths and d > 1 and n % d == 0:
            pools.setdefault(d, []).append(g)
    return [
        t
        for t in brute_enumerate_abelian(n)
        if element_set_search(pools, t.invariant_factors(), n)
    ]


def lower_central_nilpotent(group):
    """Whether the lower central series G >= [G, G] >= [[G, G], G] >= ...
    reaches the trivial group, each term closed from every commutator
    x^-1 g^-1 x g of its predecessor's elements x with G's elements g."""
    els = group.elements()
    inv = {g: inverse(g) for g in els}
    current = set(els)
    while True:
        commutators = set()
        for x in current:
            for g in els:
                c = compose(compose(inv[x], inv[g]), compose(x, g))
                if not is_identity(c):
                    commutators.add(c)
        if not commutators:
            return True
        nxt = set(PermGroup(group.degree, tuple(commutators)).elements())
        if len(nxt) == len(current):
            return False
        current = nxt


def arc_set(m):
    """The arcs (u, v) of an adjacency matrix, m[u][v] nonzero."""
    return frozenset((u, v) for u, row in enumerate(m) for v, entry in enumerate(row) if entry)


def matrix(n, arcs):
    """The n x n 0/1 adjacency matrix of an arc set."""
    m = [[0] * n for _ in range(n)]
    for u, v in arcs:
        m[u][v] = 1
    return m


def brute_automorphisms(m):
    """Every arc-preserving permutation of an adjacency matrix, by scanning all of Sym(n)."""
    arcs = arc_set(m)
    found = []
    for p in permutations(range(len(m))):
        if all((p[u], p[v]) in arcs for u, v in arcs):
            found.append(p)
    return found


def brute_orbital_coloring(group):
    """Ordered pairs colored by their orbit under the group, diagonal
    included, by a search over pairs from each uncolored pair in turn, row
    by row; orbits are numbered in that order."""
    n = group.degree
    ids = [[-1] * n for _ in range(n)]
    next_id = 0
    for x in range(n):
        for y in range(n):
            if ids[x][y] != -1:
                continue
            ids[x][y] = next_id
            frontier = [(x, y)]
            while frontier:
                u, v = frontier.pop()
                for g in group.generators:
                    gu, gv = g[u], g[v]
                    if ids[gu][gv] == -1:
                        ids[gu][gv] = next_id
                        frontier.append((gu, gv))
            next_id += 1
    return tuple(tuple(row) for row in ids)


def brute_pair_orbit_preservers(colors):
    """All permutations preserving a complete coloring of ordered pairs."""
    n = len(colors)
    found = []
    for p in permutations(range(n)):
        if all(colors[p[x]][p[y]] == colors[x][y] for x in range(n) for y in range(n)):
            found.append(p)
    return found


def tower_row(p, a):
    """First row of the tower coloring of Z_{p^a}, the reference for the
    group W that the oracle's Sylow path takes from the tower circulant.

    x = p^j * y with y prime to p gets color j*p + y % p, and 0 gets a*p, so
    c(u, v) = row[v - u] names the smallest block of the coset chain
    Z_n > pZ_n > ... > 0 holding u and v, and which of its p sub-blocks,
    counted cyclically from u's, holds v.  Its automorphism group is the
    iterated wreath product Z_p wr ... wr Z_p on that chain, of order
    p^((p^a - 1)/(p - 1)): a Sylow p-subgroup of Sym(p^a) containing the
    rotations.
    """
    n = p**a
    row = [a * p] * n
    for j in range(a):
        step = p**j
        for x in range(step, n, step):
            row[x] = j * p + x // step % p  # multiples of p^(j+1) are recolored later
    return row


def wreath(outer, inner):
    """Wreath product of adjacency matrices: inner copied in each fiber,
    complete bundles along outer arcs.

    Vertex (u, v) is u * len(inner) + v.
    """
    k = len(inner)
    arcs = set()
    for u in range(len(outer)):
        for v, w in arc_set(inner):
            arcs.add((u * k + v, u * k + w))
    for u, u2 in arc_set(outer):
        for v in range(k):
            for w in range(k):
                arcs.add((u * k + v, u2 * k + w))
    return matrix(len(outer) * k, arcs)


def wreath_tower(p, layers):
    """The tower digraph's adjacency matrix built factor by factor, outermost
    first, by wreath: the reference for the circulant build of ``tower_digraph``."""
    result, *inner = [[list(r) for r in cayley_digraph(q, a)] for q, a in _tower_factors(p, tuple(layers))]
    for f in inner:
        result = wreath(result, f)
    return result


def _horizontal_strip_results(lam, c):
    """Partitions mu with lam/mu a horizontal strip of c boxes (interlacing)."""
    rows = len(lam)
    results = set()

    def build(i, remaining, prefix):
        if i == rows:
            if remaining == 0:
                results.add(tuple(x for x in prefix if x > 0))
            return
        upper = lam[i]
        lower = lam[i + 1] if i + 1 < rows else 0
        for mu_i in range(lower, upper + 1):
            drop = upper - mu_i
            if drop <= remaining:
                build(i + 1, remaining - drop, prefix + (mu_i,))

    build(0, c, ())
    return results


def brute_strip_peelings(lam):
    """All cyclic-exponent multisets reachable by repeatedly peeling horizontal strips."""
    lam = tuple(sorted(lam, reverse=True))
    if not lam:
        return {()}
    out = set()
    for c in range(1, lam[0] + 1):
        for mu in _horizontal_strip_results(lam, c):
            for rest in brute_strip_peelings(mu):
                out.add(tuple(sorted((c,) + rest, reverse=True)))
    return out


def brute_chain_products(parts, p):
    """Exponent multisets of cyclic-quotient chains in the actual abelian group.

    Works on honest group elements: enumerates every cyclic subgroup of
    Z_{p^parts[0]} x ..., identifies each quotient's type by its element-order
    profile, and recurses on the quotient type.  Ground truth for the
    realizability order at small orders.
    """
    from functools import lru_cache
    from itertools import product as iproduct
    from math import gcd, lcm

    def all_partitions(k, maxpart=None):
        maxpart = maxpart or k
        if k == 0:
            yield ()
            return
        for first in range(min(k, maxpart), 0, -1):
            for rest in all_partitions(k - first, first):
                yield (first,) + rest

    def elements(mods):
        return list(iproduct(*[range(m) for m in mods]))

    def order_profile(partition):
        mods = tuple(p**e for e in partition)
        counts = {}
        for x in elements(mods):
            o = 1
            for xi, m in zip(x, mods):
                if xi:
                    o = lcm(o, m // gcd(xi, m))
            counts[o] = counts.get(o, 0) + 1
        return tuple(sorted(counts.items()))

    @lru_cache(maxsize=None)
    def products(partition):
        if not partition:
            return frozenset({()})
        mods = tuple(p**e for e in partition)
        total = sum(partition)
        out = set()
        seen_subgroups = set()
        for x in elements(mods):
            if all(v == 0 for v in x):
                continue
            cyclic = set()
            cur = tuple(0 for _ in mods)
            while cur not in cyclic:
                cyclic.add(cur)
                cur = tuple((a + b) % m for a, b, m in zip(cur, x, mods))
            sub = frozenset(cyclic)
            if sub in seen_subgroups:
                continue
            seen_subgroups.add(sub)
            c = 0
            size = len(sub)
            while size > 1:
                size //= p
                c += 1
            # quotient order profile: each coset counted |sub| times
            counts = {}
            for y in elements(mods):
                cur, k = y, 1
                while cur not in sub:
                    cur = tuple((a + b) % m for a, b, m in zip(cur, y, mods))
                    k += 1
                counts[k] = counts.get(k, 0) + 1
            profile = tuple(sorted((k, v // len(sub)) for k, v in counts.items()))
            quotient = next(
                q for q in all_partitions(total - c) if order_profile(q) == profile
            )
            for rest in products(quotient):
                out.add(tuple(sorted((c,) + rest, reverse=True)))
        return frozenset(out)

    return set(products(tuple(sorted(parts, reverse=True))))
