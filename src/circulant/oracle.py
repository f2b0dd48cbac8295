"""Brute-force ground truth and cross-validation of the analyzer.

The oracle hands the automorphism engine the circulant as its first row, in
the engine's ``_refine.Circulant`` view, and gets the exact order of its
automorphism group.  It decides the regular abelian subgroups from that
order when it can; otherwise it enumerates the group (or, for n = p^a, its
meet with the automorphism group of the tower circulant when that is a
Sylow subgroup), under a cap, and searches it for regular abelian subgroups
of every candidate isomorphism type.  Agreement with the analyzer must be
exact when the arithmetic condition holds and a sound superset otherwise;
anything else is a MISMATCH.
"""

from dataclasses import dataclass
from math import factorial
from typing import Optional

from ._refine import Circulant
from .abelian import AbelianType, enumerate_abelian
from .analyzer import ConnectionSet, realizable_groups
from .arith import factorize
from .digraph import DEFAULT_ELEMENT_CAP, DEFAULT_VERTEX_CAP, cayley_digraph, tower_connection_set
from .errors import CapacityError
from .permgroup import PermGroup, automorphism_group

EXACT_MATCH = "exact-match"
SOUND_SUBSET = "sound-subset"
MISMATCH = "MISMATCH"
ORACLE_CAPPED = "oracle-capped"

# The oracle's paths, in the order cross_validate tries them.
REGULAR = "regular"
SYMMETRIC = "symmetric"
SYLOW = "sylow"
ENUMERATE = "enumerate"


@dataclass(frozen=True)
class ValidationReport:
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

    n: int
    s: tuple[int, ...]
    predicted: tuple[str, ...]
    actual: Optional[tuple[str, ...]]
    verdict: str
    aut_order: Optional[int] = None
    capped_by: Optional[dict] = None
    path: Optional[str] = None

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


def _uniform_pools(elements: tuple[tuple[int, ...], ...], n: int) -> dict[int, list[tuple[int, ...]]]:
    """Group size-d candidates: elements whose cycles all have length exactly d.

    Any member of a semiregular subgroup has uniform cycle length equal to
    its order, so everything else is discarded up front.
    """
    pools: dict[int, list[tuple[int, ...]]] = {}
    for g in elements:
        length = _uniform_cycles(g)[0]
        if length is not None and length > 1 and n % length == 0:
            pools.setdefault(length, []).append(g)
    return pools


def _search_type(pools, factors: tuple[int, ...], degree: int) -> bool:
    """Backtrack over commuting tuples matching the invariant-factor orders.

    The chosen elements generate a semiregular abelian group H, kept only as
    its orbits: ``orbit_of[x]`` numbers the orbit of x.  A pool element g of
    order d that commutes with them permutes these orbits, and <H, g> is
    semiregular of order |H|*d iff the induced permutation has every cycle of
    length exactly d; its cycles, merged, are the orbits of <H, g>.  If: when
    h*g^j fixes x, g^j fixes the orbit Hx, so d | j, g^j = 1 and h = 1 (and
    likewise the h*g^j are distinct).  Only if: when g^j fixes an orbit Hx
    for some 0 < j < d, some h^-1*g^j fixes x, so g^j is in H and the order
    falls short.  A g inside H induces the identity and is rejected too.
    """

    def extend(i: int, chosen: list[tuple[int, ...]], orbit_of: list[int], start: int) -> bool:
        if i == len(factors):
            return True  # order n and semiregular, hence regular
        d = factors[i]
        pool = pools.get(d, [])
        # generators of equal order are interchangeable: scan forward only
        begin = start if i > 0 and factors[i - 1] == d else 0
        for j in range(begin, len(pool)):
            g = pool[j]
            # g commutes with c iff g(c(x)) = c(g(x)) for every x
            if any(tuple(map(g.__getitem__, c)) != tuple(map(c.__getitem__, g)) for c in chosen):
                continue
            # g sends the orbit of x to the orbit of g(x)
            induced = dict(zip(orbit_of, map(orbit_of.__getitem__, g)))
            length, cycle_of = _uniform_cycles(induced)
            if length != d:
                continue
            if extend(i + 1, chosen + [g], [cycle_of[o] for o in orbit_of], j + 1):
                return True
        return False

    return extend(0, [], list(range(degree)), 0)


def regular_abelian_types(group: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> list[AbelianType]:
    """All abelian types of order n, the group's degree, among its regular subgroups.

    A commuting tuple with the type's invariant-factor orders generating a
    semiregular subgroup of full order n is automatically regular, and its
    abstract type is forced by the orders, so existence of such a tuple is
    exactly containment of the type.
    """
    n = group.degree
    elements = group.elements(cap)
    pools = _uniform_pools(elements, n)
    found = []
    for candidate in enumerate_abelian(n):
        factors = candidate.invariant_factors()
        if all(d in pools for d in factors) and _search_type(pools, factors, n):
            found.append(candidate)
    return found


def _sylow_subgroup(aut_order: int, adjacency: tuple[int, ...], vertex_cap: int) -> Optional[PermGroup]:
    """Aut(Γ) ∩ W for n = p^a, a >= 2, when its index in Aut(Γ) is prime to
    p; otherwise None.

    W is the automorphism group of the tower circulant
    ``tower_connection_set(p, (1,) * a)``: the iterated wreath product
    Z_p wr ... wr Z_p on the coset chain Z_n > pZ_n > ... > 0, of order
    p^((p^a - 1)/(p - 1)), a Sylow p-subgroup of Sym(p^a) containing the
    rotations.  W is a p-group, so an intersection of index prime to p is a
    Sylow p-subgroup of Aut(Γ).  Every regular abelian subgroup, of order
    p^a, lies in a Sylow p-subgroup, and those are conjugate in Aut(Γ), so it
    is conjugate to a regular subgroup of the intersection of the same type.
    The intersection is the automorphism group of the tower's 0/1 row paired
    with the adjacency row, found by one more engine call.
    """
    factors = factorize(len(adjacency)).factors
    if len(factors) != 1 or factors[0][1] < 2:
        return None
    ((p, a),) = factors
    _, tower = tower_connection_set(p, (1,) * a)
    paired = (2 * (x in tower) + adjacent for x, adjacent in enumerate(adjacency))
    sylow = automorphism_group(Circulant(paired), vertex_cap=vertex_cap)
    if aut_order // sylow.order() % p == 0:
        return None
    return sylow


def cross_validate(
    s: ConnectionSet,
    cap: int = DEFAULT_ELEMENT_CAP,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> ValidationReport:
    """Compare the analyzer's prediction against the oracle.

    n past ``vertex_cap`` is capped before anything is built.  Otherwise the
    engine gives |Aut| for the circulant matrix, and the first path that
    applies decides the regular abelian types:

    - regular: |Aut| = n, so Aut is the rotation group and only Z_n occurs;
    - symmetric: |Aut| = n!, so every abelian group of order n occurs, each
      regular on itself (Cayley's theorem);
    - sylow: n = p^a, a >= 2, and Aut ∩ W is a Sylow p-subgroup (see
      ``_sylow_subgroup``), searched in place of Aut;
    - enumerate: Aut itself is searched.

    The last two enumerate a group under ``cap`` elements.
    """
    predicted, exact = realizable_groups(s)
    predicted = tuple(predicted)
    n = s.n
    members = tuple(sorted(s.members))
    if n > vertex_cap:
        capped_by = {"cap": "vertex_cap", "value": vertex_cap}
        return ValidationReport(n, members, predicted, None, ORACLE_CAPPED, capped_by=capped_by)
    digraph = cayley_digraph(n, s.members)
    aut = automorphism_group(digraph, vertex_cap=vertex_cap)
    aut_order = aut.order()
    if aut_order == n:
        path, actual = REGULAR, predicted[-1:]  # Z_n, last in every up-set
    elif aut_order == factorial(n):
        path, actual = SYMMETRIC, tuple(g.text() for g in enumerate_abelian(n))
    else:
        path, group = ENUMERATE, aut
        sylow = _sylow_subgroup(aut_order, digraph.row, vertex_cap)
        if sylow is not None:
            path, group = SYLOW, sylow
        try:
            actual = tuple(g.text() for g in regular_abelian_types(group, cap))
        except CapacityError as exc:
            capped_by = {"cap": "element_cap", "value": exc.cap}
            return ValidationReport(
                n, members, predicted, None, ORACLE_CAPPED,
                aut_order=aut_order, capped_by=capped_by, path=path,
            )
    predicted_set, actual_set = set(predicted), set(actual)
    if predicted_set == actual_set:
        verdict = EXACT_MATCH
    elif predicted_set < actual_set:
        verdict = MISMATCH if exact else SOUND_SUBSET  # completeness was promised
    else:
        verdict = MISMATCH  # soundness violated
    return ValidationReport(n, members, predicted, actual, verdict, aut_order=aut_order, path=path)
