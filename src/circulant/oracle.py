"""Brute-force ground truth and cross-validation of the analyzer.

The oracle first tries to prove from the circulant's 0/1 row alone that its
automorphism group is the rotation group (``_fixes_every_vertex``).  Else
it hands the automorphism engine that row, in the engine's
``_refine.Circulant`` view, and gets the exact order of the group.  It
decides the regular abelian subgroups from that order when it can;
otherwise it enumerates the group (or, for n = p^a, its meet with the
automorphism group of the tower circulant, a Sylow subgroup), under a cap,
and searches it, as its closure holds it, for regular abelian subgroups of
every candidate isomorphism type.  Each path, or the cap that stops it,
ends in the same evidence, from which one verdict and one report are made.
Agreement with the analyzer must be exact when the arithmetic condition
holds and a sound superset otherwise; anything else is a MISMATCH.
"""

from collections import Counter
from math import factorial, gcd
from typing import Optional

from ._record import Record, set_field
from ._refine import Circulant
from .abelian import AbelianType, enumerate_abelian, up_set_texts
from .analyzer import ConnectionSet, realizable_groups
from .arith import factorize
from .digraph import DEFAULT_ELEMENT_CAP, DEFAULT_VERTEX_CAP, cayley_digraph, tower_connection_set
from .errors import CapacityError
from .permgroup import PermGroup, _encoding, automorphism_group

EXACT_MATCH = "exact-match"
SOUND_SUBSET = "sound-subset"
MISMATCH = "MISMATCH"
ORACLE_CAPPED = "oracle-capped"

# The oracle's paths, in the order cross_validate tries them.
REGULAR = "regular"
SYMMETRIC = "symmetric"
SYLOW = "sylow"
ENUMERATE = "enumerate"


class ValidationReport(Record):
    """One verdict and its evidence.

    ``predicted`` and ``actual`` hold groups as their canonical texts
    (``AbelianType.text``), ``predicted`` in up_set's order; ``actual`` is
    None when a cap tripped.  Text is one to one on types, so the verdict
    compares sets of texts.  ``aut_order`` is the engine's exact |Aut|,
    None when the vertex cap tripped before the search; ``capped_by`` names
    the cap that tripped,
    ``{"cap": "vertex_cap" | "element_cap", "value": N}``, or is None;
    ``path`` names the oracle path that decided (or was capped), None when
    the vertex cap tripped.
    """

    __slots__ = ("n", "s", "predicted", "actual", "verdict", "aut_order", "capped_by", "path")
    n: int
    s: tuple[int, ...]
    predicted: tuple[str, ...]
    actual: Optional[tuple[str, ...]]
    verdict: str
    aut_order: Optional[int]
    capped_by: Optional[dict]
    path: Optional[str]

    def __init__(self, n, s, predicted, actual, verdict, aut_order=None, capped_by=None, path=None):
        set_field(self, "n", n)
        set_field(self, "s", s)
        set_field(self, "predicted", predicted)
        set_field(self, "actual", actual)
        set_field(self, "verdict", verdict)
        set_field(self, "aut_order", aut_order)
        set_field(self, "capped_by", capped_by)
        set_field(self, "path", path)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "S": list(self.s),
            "predicted": list(self.predicted),
            "actual": None if self.actual is None else list(self.actual),
            "verdict": self.verdict,
            "aut_order": self.aut_order,
            "capped_by": self.capped_by,
            "path": self.path,
        }


def _uniform_cycles(images) -> tuple[Optional[int], list[int]]:
    """Common cycle length of a permutation of range(len(images)) (None when
    the lengths differ), and the number of each point's cycle, counting cycles
    in the order of their least points.  The numbers are complete only when
    the length is not None."""
    n = len(images)
    cycle_of = [-1] * n
    common = None
    count = 0
    for start in range(n):
        if cycle_of[start] >= 0:
            continue
        length = 0
        x = start
        while cycle_of[x] < 0:
            cycle_of[x] = count
            x = images[x]
            length += 1
        if common is None:
            common = length
        elif length != common:
            return None, cycle_of
        count += 1
    return common, cycle_of


def _search_type(pools, factors: tuple[int, ...], degree: int) -> bool:
    """Backtrack over commuting tuples matching the invariant-factor orders.

    Invariant: every pool element at a node commutes with each element
    chosen above it.  A chosen g of order d cuts each pool of an order still
    to place to g's centralizer, the pool of order d from g's successor on
    (generators of equal order are interchangeable), and the child gets the
    cut pools.

    The chosen elements generate a semiregular abelian group H, kept only as
    its orbits: ``orbit_of[x]`` numbers the orbit of x.  A pool element g of
    order d, commuting with H, permutes these orbits, and <H, g> is
    semiregular of order |H|*d iff the induced permutation has every cycle of
    length exactly d; its cycles, merged, are the orbits of <H, g>.  If: when
    h*g^j fixes x, g^j fixes the orbit Hx, so d | j, g^j = 1 and h = 1 (and
    likewise the h*g^j are distinct).  Only if: when g^j fixes an orbit Hx
    for some 0 < j < d, some h^-1*g^j fixes x, so g^j is in H and the order
    falls short.  A g inside H induces the identity and is rejected too.
    Pools hold elements in ``_encoding(degree)``, each built into its table
    once per call.
    """
    _, table, compose = _encoding(degree)

    def centralizer(pool: list, g, g_table) -> list:
        # h commutes with g iff h(g(x)) = g(h(x)) for every x; x = 0 alone rejects most h at once
        return [(h, t) for h, t in pool if h[g[0]] == g[h[0]] and compose(h, g_table) == compose(g, t)]

    def extend(i: int, pools: dict, orbit_of: list[int]) -> bool:
        if i == len(factors):
            return True  # order n and semiregular, hence regular
        d = factors[i]
        pool = pools[d]
        for j, (g, g_table) in enumerate(pool):
            # g sends the orbit of x to the orbit of g(x)
            induced = dict(zip(orbit_of, map(orbit_of.__getitem__, g)))
            length, cycle_of = _uniform_cycles(induced)
            if length != d:
                continue
            cut = {e: centralizer(pool[j + 1 :] if e == d else pools[e], g, g_table) for e in set(factors[i + 1 :])}
            if extend(i + 1, cut, [cycle_of[o] for o in orbit_of]):
                return True
        return False

    return extend(0, {d: [(g, table(g)) for g in pools.get(d, [])] for d in set(factors)}, list(range(degree)))


def regular_abelian_types(group: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> list[AbelianType]:
    """All abelian types of order n, the group's degree, among its regular subgroups.

    A commuting tuple with the type's invariant-factor orders generating a
    semiregular subgroup of full order n is automatically regular, and its
    abstract type is forced by the orders, so existence of such a tuple is
    exactly containment of the type.  Every cycle of a member of a
    semiregular subgroup has the length of its order, so the search pools
    the closure's elements, unsorted, by their common cycle length d > 1.
    """
    n = group.degree
    pools = {}
    for g in group._closure(cap):
        length = _uniform_cycles(g)[0]
        if length is not None and length > 1:
            pools.setdefault(length, []).append(g)
    found = []
    for candidate in enumerate_abelian(n):
        factors = candidate.invariant_factors()
        if all(d in pools for d in factors) and _search_type(pools, factors, n):
            found.append(candidate)
    return found


def _sylow_subgroup(adjacency: tuple[int, ...]) -> Optional[PermGroup]:
    """Aut(Γ) ∩ W, a Sylow p-subgroup of Aut(Γ), for n = p^a with a >= 2;
    otherwise None.  W is the automorphism group of the tower circulant
    ``tower_connection_set(p, (1,) * a)``: the iterated wreath product
    Z_p wr ... wr Z_p on the coset chain Z_n > pZ_n > ... > 0.

    Lemma: every p-group P that holds the rotations C lies in W.  By
    induction on a: P is transitive, so it has a system of p blocks; that
    system is C's too, so the blocks are the cosets of pZ_n, and P acts on
    them as <c>.  The kernel K, on one block, is a p-group holding that
    block's regular <c^p>, so it lies in the block's W_{a-1}; so P = KC <= W.
    C lies in a Sylow p-subgroup of Aut(Γ); the lemma puts it in the
    p-group Aut(Γ) ∩ W, so it is that group.  Sylow's theorem conjugates
    each regular abelian subgroup, of order p^a, into it, type unchanged.
    It is the automorphism group of the adjacency row paired with the
    tower's 0/1 row, one more engine call, uncapped: cross_validate calls
    it only within its vertex cap.
    """
    factors = factorize(len(adjacency))
    if len(factors) != 1 or factors[0][1] < 2:
        return None
    ((p, a),) = factors
    _, tower = tower_connection_set(p, (1,) * a)
    paired = (2 * (x in tower) + adjacent for x, adjacent in enumerate(adjacency))
    return automorphism_group(Circulant(paired), vertex_cap=len(adjacency))


def _fixes_every_vertex(row) -> bool:
    """Whether one product proves that the stabilizer Aut_0 of vertex 0 in
    Aut(Cay(Z_n, S)), S given by its 0/1 row, is trivial, so |Aut| = n.

    x is the row's bytes: x[v] and x[-v] are the arcs 0 -> v and v -> 0.
    For X the int of x doubled and Y the int of x, bytes n..2n-1 of X * Y
    count, for each v, the 2-paths 0 -> u -> v (Kronecker substitution).
    An automorphism fixing 0 keeps each key (paths[v], x[v], x[-v]), so it
    fixes v when v is alone in its key; conjugating by the rotation, one
    fixing t then fixes t + v.  The points Aut_0 fixes thus contain 0 and
    are closed under adding each singled-out offset, so when those offsets
    and n have gcd 1, Aut_0 = 1; the scan stops once their gcd is 1.

    A count is at most n, so from n = 256 on it could carry into the next
    byte, and no proof is tried.  Each key is one int, the 16-bit lane
    whose two bytes are paths[v] and 2 x[v] + x[-v], each under 256, so
    equal ints are equal keys and equal keys equal ints.
    """
    n = len(row)
    if n >= 256:
        return False
    x = bytes(row)
    arcs_out = int.from_bytes(x, "little")
    paths = (int.from_bytes(x + x, "little") * arcs_out).to_bytes(3 * n, "little")[n : 2 * n]
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


def cross_validate(
    s: ConnectionSet,
    cap: int = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> ValidationReport:
    """Compare the analyzer's prediction against the oracle.

    n past ``vertex_cap`` is capped before anything is built.  Otherwise
    |Aut| = n when ``_fixes_every_vertex`` proves it from the 0/1 row, and
    else the engine gives |Aut| for the circulant matrix; the first path
    that applies decides the regular abelian types:

    - regular: |Aut| = n, so Aut is the rotation group and only Z_n occurs;
    - symmetric: |Aut| = n!, so every abelian group of order n occurs, each
      regular on itself (Cayley's theorem);
    - sylow: n = p^a, a >= 2: Aut ∩ W, a Sylow p-subgroup (see
      ``_sylow_subgroup``), is searched in place of Aut;
    - enumerate: Aut itself is searched.

    The last two enumerate a group under ``cap`` elements.  Each path ends
    in ``(actual, aut_order, capped_by, path)``, None where it did not get
    that far, and the verdict and the report are made once from it.
    """
    predicted, exact = realizable_groups(s)
    predicted = tuple(predicted)
    n = s.n
    actual = aut_order = capped_by = path = None
    if n > vertex_cap:
        capped_by = {"cap": "vertex_cap", "value": vertex_cap}
    else:
        digraph = cayley_digraph(n, s.members)
        aut = None if _fixes_every_vertex(digraph.row) else automorphism_group(digraph, vertex_cap=vertex_cap)
        aut_order = n if aut is None else aut.order()
        if aut_order == n:
            path, actual = REGULAR, tuple(up_set_texts([(p, (a,)) for p, a in factorize(n)]))  # Z_n alone
        elif aut_order == factorial(n):
            path, actual = SYMMETRIC, tuple(g.text() for g in enumerate_abelian(n))
        else:
            sylow = _sylow_subgroup(digraph.row)
            path, group = (ENUMERATE, aut) if sylow is None else (SYLOW, sylow)
            try:
                actual = tuple(g.text() for g in regular_abelian_types(group, cap))
            except CapacityError as exc:
                capped_by = {"cap": "element_cap", "value": exc.cap}
    if actual is None:
        verdict = ORACLE_CAPPED
    elif set(predicted) == set(actual):
        verdict = EXACT_MATCH
    elif set(predicted) < set(actual):
        verdict = MISMATCH if exact else SOUND_SUBSET  # completeness was promised
    else:
        verdict = MISMATCH  # soundness violated
    return ValidationReport(n, tuple(sorted(s.members)), predicted, actual, verdict, aut_order, capped_by, path)
