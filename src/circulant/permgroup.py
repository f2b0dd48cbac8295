"""Desk-scale permutation groups: element closure, 2-closure, digraph automorphisms.

A permutation is its image tuple, held and composed as ``_encoding`` says,
and groups are given by generators.  Element enumeration is Dimino's
closure, a whole coset at a time, under a cap (default 10^6); it
deliberately uses no stabilizer chain, and nilpotency is read off a
certified prime-power order or Sylow counts.  Automorphism groups come
from the refinement search engine, which reads a square matrix of arc
colors (a digraph is its 0/1 adjacency matrix, in any input format the
engine takes), resolves a stabilizer chain deepest level first, and
reports the exact group order, cached on the returned group.
"""

from math import lcm
from typing import Optional, Sequence

from . import _refine
from ._record import Record, set_field
from .arith import factorize
from .digraph import DEFAULT_ELEMENT_CAP, DEFAULT_VERTEX_CAP
from .errors import CapacityError


def _encoding(degree: int):
    """``(encode, table, compose)`` for permutations of 0..degree-1, with
    ``compose(e, table(r))`` holding x -> r[e[x]].  Below degree 256 one is
    ``bytes`` and composing is one C-level ``bytes.translate``; from 256 on
    it is an image tuple.  Both index, iterate and sort like image tuples.
    """
    if degree < 256:
        pad = bytes(range(degree, 256))
        return bytes, lambda r: r + pad, bytes.translate
    return tuple, lambda r: r.__getitem__, lambda e, t: tuple(map(t, e))


class PermGroup(Record):
    """Permutation group of fixed degree given by generators, image tuples.

    ``cached_order``, when present, is trusted as the exact order (the
    automorphism engine sets it); otherwise the order comes from capped
    element enumeration.
    """

    __slots__ = ("degree", "generators", "cached_order")
    degree: int
    generators: tuple[tuple[int, ...], ...]
    cached_order: Optional[int]

    def __init__(self, degree, generators, cached_order=None):
        set_field(self, "degree", degree)
        set_field(self, "generators", tuple(generators))
        set_field(self, "cached_order", cached_order)
        for g in self.generators:
            if sorted(g) != list(range(self.degree)):
                raise ValueError(f"not a permutation of 0..{self.degree - 1}: {g}")

    @classmethod
    def cyclic(cls, n: int) -> "PermGroup":
        """The rotation group of Z_n in its regular action, generated by x -> x + 1."""
        return cls(n, (tuple((x + 1) % n for x in range(n)),), cached_order=n)

    def elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> tuple[tuple[int, ...], ...]:
        """All elements as sorted image tuples; CapacityError past the cap."""
        return tuple(map(tuple, sorted(self._closure(cap))))

    def _closure(self, cap: int) -> list:
        """All elements in ``_encoding(degree)``, unsorted, by Dimino's closure
        (G. Butler, *Fundamentals of Permutation Group Algorithms*, 1991).
        The elements are a union of cosets r∘K of K, the subgroup before g,
        so a coset whose r is new meets none of them and is added whole.
        CapacityError past the cap, at once when the cached order is, else
        before the coset that would pass it is composed; RuntimeError when
        the count disagrees with the cached order."""
        if self.cached_order is not None and self.cached_order > cap:
            raise CapacityError("group order exceeds element cap", cap)
        encode, table, compose = _encoding(self.degree)
        gens = [encode(g) for g in self.generators]
        identity = encode(range(self.degree))
        els_list = [identity]
        els_set = {identity}
        active: list = []
        for g in gens:
            if g in els_set:
                continue
            active.append(g)
            old = els_list[:]  # K
            step_tables = [table(s) for s in active]
            queue = [g]
            while queue:
                r = queue.pop()
                if r in els_set:
                    continue
                if len(els_list) + len(old) > cap:
                    raise CapacityError("group order exceeds element cap", cap)
                r_table = table(r)
                coset = [compose(e, r_table) for e in old]
                els_list += coset
                els_set.update(coset)
                queue += [compose(r, t) for t in step_tables]
        if self.cached_order is not None and self.cached_order != len(els_list):
            raise RuntimeError(f"cached order {self.cached_order} != enumerated {len(els_list)}")
        return els_list

    def order(self) -> int:
        if self.cached_order is not None:
            return self.cached_order
        return len(self._closure(DEFAULT_ELEMENT_CAP))

    def is_transitive(self) -> bool:
        return len(_refine._close_orbit({0}, self.generators)) == self.degree


def _outer_generators(g: PermGroup, k: int) -> list[tuple[int, ...]]:
    """G's generators moving the first coordinate of pairs (x, y) -> x * k + y."""
    return [tuple(gp[x] * k + y for x in range(g.degree) for y in range(k)) for gp in g.generators]


def direct_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """G x H in the product action on pairs (x, y) -> x * h.degree + y."""
    k = h.degree
    gens = _outer_generators(g, k)
    gens += [tuple(x * k + hp[y] for x in range(g.degree) for y in range(k)) for hp in h.generators]
    return PermGroup(g.degree * k, tuple(gens))


def wreath_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """G wr H on pairs: G permutes fibers, H acts independently inside each fiber.

    Needs G transitive so the fiber copies of H are conjugate into place.
    """
    if not g.is_transitive():
        raise ValueError("wreath_product needs a transitive outer group")
    k = h.degree
    gens = _outer_generators(g, k)
    for hp in h.generators:
        images = list(range(g.degree * k))
        for y in range(k):
            images[y] = hp[y]
        gens.append(tuple(images))
    return PermGroup(g.degree * k, tuple(gens))


def orbital_coloring(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Color ordered pairs by their orbit under the group (diagonal included).

    Pair (x, y) is the point x * n + y of the pair action, and orbits are
    numbered 0, 1, ... in the order of their first pair, row by row.
    """
    n = group.degree
    gens = [tuple(gx * n + gy for gx in g for gy in g) for g in group.generators]
    ids = [-1] * (n * n)
    next_id = 0
    for point in range(n * n):
        if ids[point] == -1:
            for q in _refine._close_orbit({point}, gens):
                ids[q] = next_id
            next_id += 1
    return tuple(tuple(ids[x * n:(x + 1) * n]) for x in range(n))


def automorphism_group(matrix: Sequence[Sequence[int]], vertex_cap: int = DEFAULT_VERTEX_CAP) -> PermGroup:
    """Full automorphism group of a square matrix of arc colors, with exact
    order cached.

    Entry [u][v] colors the ordered pair (u, v), and the diagonal colors the
    vertices; a digraph is its 0/1 adjacency matrix.  The matrix is read in
    any input format the engine takes (see ``_refine.automorphisms``), which
    also refuses one that is not square.
    """
    n = len(matrix)
    if n > vertex_cap:
        raise CapacityError("structure too large for automorphism search", vertex_cap)
    gens, order = _refine.automorphisms(matrix)
    return PermGroup(n, gens, cached_order=order)


def two_closure(group: PermGroup) -> PermGroup:
    """Largest group with the same orbits on ordered pairs: the automorphism
    group of the orbital coloring, refused past the vertex cap before the
    n x n coloring is built."""
    if group.degree > DEFAULT_VERTEX_CAP:
        raise CapacityError("structure too large for automorphism search", DEFAULT_VERTEX_CAP)
    return automorphism_group(orbital_coloring(group))


def is_nilpotent(group: PermGroup) -> bool:
    """Whether every Sylow subgroup is normal (D. J. S. Robinson, *A Course in
    the Theory of Groups*, 5.2.4), true at once for a cached prime-power order.
    A Sylow p-subgroup is normal iff it holds every p-element, so iff the
    elements whose order divides the p-part p^a of |G| number exactly p^a."""
    if group.cached_order is not None and len(factorize(group.cached_order)) <= 1:
        return True
    orders = [_element_order(g) for g in group._closure(DEFAULT_ELEMENT_CAP)]
    return all(sum(p**a % order == 0 for order in orders) == p**a for p, a in factorize(len(orders)))


def _element_order(g: Sequence[int]) -> int:
    """The lcm of g's cycle lengths, g an image tuple or ``bytes``."""
    order, seen = 1, set()
    for x in g:
        if x not in seen:
            y, length = g[x], 1
            while y != x:
                seen.add(y)
                y, length = g[y], length + 1
            order = lcm(order, length)
    return order
