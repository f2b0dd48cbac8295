"""Desk-scale permutation groups: element closure, 2-closure, digraph automorphisms.

Groups are given by generators.  Element enumeration is a Dimino-style
closure under a configurable cap (default 10^6); there is deliberately no
stabilizer chain machinery.  Automorphism groups come from the refinement
search engine, which reads a digraph's adjacency matrix or any square matrix
of arc colors (a circulant as the engine's view of its first row) and also
reports the exact group order, cached on the returned group.
"""

from dataclasses import dataclass
from operator import ne
from typing import Optional, Sequence, Union

from . import _refine
from .digraph import DEFAULT_ELEMENT_CAP, DEFAULT_VERTEX_CAP, Digraph
from .errors import CapacityError


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection on {0..n-1} in image form; (p * q)(x) = p(q(x))."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def _make(cls, images: tuple[int, ...]) -> "Permutation":
        # internal fast path: skips bijection validation (closed operations preserve it)
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation._make(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._make(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return not any(map(ne, self.images, range(len(self.images))))


@dataclass
class PermGroup:
    """Permutation group of fixed degree given by generators.

    ``cached_order``, when present, is trusted as the exact order (the
    automorphism engine sets it); otherwise the order comes from capped
    element enumeration.
    """

    degree: int
    generators: tuple[Permutation, ...]
    cached_order: Optional[int] = None

    def __post_init__(self):
        self.generators = tuple(self.generators)
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError(f"generator degree {g.degree} != group degree {self.degree}")

    @classmethod
    def cyclic(cls, n: int) -> "PermGroup":
        """The rotation group of Z_n in its regular action, generated by x -> x + 1."""
        return cls(n, (Permutation(tuple((x + 1) % n for x in range(n))),), cached_order=n)

    def elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> tuple[Permutation, ...]:
        """All elements, sorted, by BFS closure; CapacityError past the cap."""
        if self.cached_order is not None and self.cached_order > cap:
            raise CapacityError("group order exceeds element cap", cap)
        els = self._closure(cap)
        if self.cached_order is not None and self.cached_order != len(els):
            raise RuntimeError(f"cached order {self.cached_order} != enumerated {len(els)}")
        return els

    def _closure(self, cap: int) -> tuple[Permutation, ...]:
        # Dimino-style incremental closure.  compose(e, table(r)) has images
        # x -> r[e[x]]: below degree 256 images are bytes and composing is one
        # C-level translate, from 256 on they are tuples.
        if self.degree < 256:
            pad = bytes(range(self.degree, 256))
            encode, table, compose = bytes, lambda r: r + pad, bytes.translate
        else:
            encode, table, compose = tuple, lambda r: r.__getitem__, lambda e, t: tuple(map(t, e))
        gens = [encode(g.images) for g in self.generators]
        identity = encode(range(self.degree))
        els_list = [identity]
        els_set = {identity}
        active: list = []
        for g in gens:
            if g in els_set:
                continue
            active.append(g)
            old = els_list[:]  # subgroup before adding g; new elements fill whole cosets of it
            step_tables = [table(s) for s in active]
            queue = [g]
            while queue:
                r = queue.pop()
                if r in els_set:
                    continue
                r_table = table(r)
                for e in old:
                    x = compose(e, r_table)
                    if x not in els_set:
                        els_set.add(x)
                        els_list.append(x)
                        if len(els_set) > cap:
                            raise CapacityError("group order exceeds element cap", cap)
                for t in step_tables:
                    queue.append(compose(r, t))
        return tuple(Permutation._make(tuple(b)) for b in sorted(els_set))

    def order(self) -> int:
        if self.cached_order is not None:
            return self.cached_order
        return len(self.elements())

    def is_transitive(self) -> bool:
        return len(_refine._close_orbit({0}, [g.images for g in self.generators])) == self.degree


def _outer_generators(g: PermGroup, k: int) -> list[Permutation]:
    """G's generators moving the first coordinate of pairs (x, y) -> x * k + y."""
    return [
        Permutation(tuple(gp(x) * k + y for x in range(g.degree) for y in range(k)))
        for gp in g.generators
    ]


def direct_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """G x H in the product action on pairs (x, y) -> x * h.degree + y."""
    k = h.degree
    gens = _outer_generators(g, k)
    gens += [
        Permutation(tuple(x * k + hp(y) for x in range(g.degree) for y in range(k)))
        for hp in h.generators
    ]
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
            images[y] = hp(y)
        gens.append(Permutation(tuple(images)))
    return PermGroup(g.degree * k, tuple(gens))


def orbital_coloring(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Color ordered pairs by their orbit under the group (diagonal included)."""
    n = group.degree
    gens = [g.images for g in group.generators]
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
                for g in gens:
                    gu, gv = g[u], g[v]
                    if ids[gu][gv] == -1:
                        ids[gu][gv] = next_id
                        frontier.append((gu, gv))
            next_id += 1
    return tuple(tuple(row) for row in ids)


def automorphism_group(
    structure: Union[Digraph, Sequence[Sequence[int]]], vertex_cap: int = DEFAULT_VERTEX_CAP
) -> PermGroup:
    """Full automorphism group of a digraph, or of a square matrix of arc
    colors, with exact order cached.

    Entry [u][v] colors the ordered pair (u, v), and the diagonal colors the
    vertices.  The matrix may be the engine's ``_refine.Circulant`` view of a
    first row, which builds row u only when it is indexed.
    """
    digraph = isinstance(structure, Digraph)
    n = structure.vertex_count if digraph else len(structure)
    if n > vertex_cap:
        raise CapacityError("structure too large for automorphism search", vertex_cap)
    if digraph:
        structure = structure.adjacency_matrix()
    elif not isinstance(structure, _refine.Circulant) and any(len(row) != n for row in structure):
        raise ValueError("color matrix must be square")
    # the engine only reads the matrix, so a color matrix goes in as it is
    gens, order = _refine.automorphisms(structure)
    return PermGroup(n, tuple(Permutation(g) for g in gens), cached_order=order)


def two_closure(group: PermGroup) -> PermGroup:
    """Largest group with the same orbits on ordered pairs: the automorphism
    group of the orbital coloring."""
    return automorphism_group(orbital_coloring(group))


def is_nilpotent(group: PermGroup) -> bool:
    """Whether the lower central series reaches the trivial group."""
    els = group.elements()
    current = set(els)
    while True:
        commutators = set()
        for x in current:
            x_inv = x.inverse()
            for g in els:
                c = x_inv * g.inverse() * x * g
                if not c.is_identity:
                    commutators.add(c)
        if not commutators:
            return True
        nxt = set(PermGroup(group.degree, tuple(commutators)).elements())
        if len(nxt) == len(current):
            return False
        current = nxt

