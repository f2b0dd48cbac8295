"""Digraphs as adjacency matrices: Cayley construction and canonical towers.

A digraph is the 0/1 matrix the automorphism engine reads, and a Cayley
digraph is the ``Circulant`` view of its adjacency row.  A tower, whose
automorphism group is the iterated wreath product of cyclic groups of orders
p^k, is a circulant too (``tower_connection_set``); ``tower_arcs`` streams
its arcs relabeled so that each factor's copies are blocks of consecutive
vertices.  Loops are ordinary arcs (v, v); K_2 means the digon carrying both
arcs and K_2-bar the arcless graph on two vertices, which is exactly the
distinction the tower construction's case split needs.
"""

from typing import Collection, Iterable, Iterator

from ._refine import Circulant
from .arith import factorize
from .errors import CapacityError

DEFAULT_VERTEX_CAP = 64
DEFAULT_ELEMENT_CAP = 10**6  # caps group elements, tower arcs and tower connection sets


def cayley_digraph(n: int, members: Collection[int]) -> Circulant:
    """Cay(Z_n, S), arcs g -> g+s for each s in S, as the ``Circulant`` of its adjacency row."""
    if members and (min(members) < 0 or max(members) >= n):
        x = next(x for x in members if not 0 <= x < n)
        raise ValueError(f"connection set element {x} out of range for Z_{n}")
    row = [0] * n
    for x in members:
        row[x] = 1
    return Circulant(row)


def _tower_factors(p: int, layers: tuple[int, ...]) -> list[tuple[int, frozenset[int]]]:
    """Each factor as its connection set (q, A), so that it is Cay(Z_q, A),
    outermost first.

    A factor is the directed cycle of length q = p^k, except that order-2
    factors alternate between the digon and the arcless pair, so that
    consecutive Sym(2) factors cannot merge into a larger symmetric group.
    """
    if p < 2 or factorize(p) != ((p, 1),):
        raise ValueError(f"p must be prime, got {p}")
    if not layers or any(k < 1 for k in layers):
        raise ValueError(f"layers must be a nonempty sequence of positive integers: {layers}")
    factors = []
    prev_is_digon = False
    for i, k in enumerate(layers):
        q = p ** k
        if q > 2:
            factors.append((q, frozenset({1})))  # directed q-cycle
            prev_is_digon = False
        elif i == 0 or not prev_is_digon:
            factors.append((2, frozenset({1})))  # K_2, the digon
            prev_is_digon = True
        else:
            factors.append((2, frozenset()))  # K_2-bar
            prev_is_digon = False
    return factors


def _tower_size(factors: list[tuple[int, frozenset[int]]]) -> tuple[int, int]:
    """(n, |S|) of the tower's circulant presentation Cay(Z_n, S), by arithmetic.

    Wrapping an outer factor Cay(Z_q, A) around Cay(Z_m, S) adds |A| * m
    elements to S and multiplies the order by q (see tower_connection_set).
    """
    n, size = 1, 0
    for q, a in reversed(factors):
        size += len(a) * n
        n *= q
    return n, size


def tower_arcs(p: int, layers: Iterable[int]) -> tuple[int, Iterator[tuple[int, int]]]:
    """The tower digraph's vertex count n and its arcs, generated in sorted order.

    The tower is Cay(Z_n, S) for (n, S) = tower_connection_set(p, layers),
    relabeled so that each factor's copies are blocks of consecutive
    vertices: x = d_1 + q_1 * (d_2 + q_2 * (...)) becomes the vertex whose
    mixed-radix digits, outermost first, are (d_1, d_2, ...).  It has
    n * |S| arcs.  That count is computed first, and a tower with more than
    DEFAULT_ELEMENT_CAP arcs raises CapacityError before anything is built.
    The arcs are not held: each vertex's are made from the label table, its
    inverse and S when the generator reaches it.
    """
    layers = tuple(layers)
    factors = _tower_factors(p, layers)
    n, size = _tower_size(factors)
    arcs = n * size
    if arcs > DEFAULT_ELEMENT_CAP:
        raise CapacityError(f"tower digraph would have {arcs} arcs", DEFAULT_ELEMENT_CAP)
    label = [0]
    for q, _ in reversed(factors):
        label = [d * len(label) + v for v in label for d in range(q)]
    position = sorted(range(n), key=label.__getitem__)  # label[position[u]] == u
    _, members = tower_connection_set(p, layers)
    return n, ((u, v) for u in range(n) for v in sorted(label[(position[u] + x) % n] for x in members))


def tower_connection_set(p: int, layers: Iterable[int]) -> tuple[int, frozenset[int]]:
    """Connection set presenting the tower digraph as a circulant.

    Each factor is itself a circulant Cay(Z_q, A); wrapping an outer factor
    around Cay(Z_m, S) keeps q*S and adds the full residue class a + qZ_m for
    every a in A, which is the coset structure the wreath product demands.
    A set of more than DEFAULT_ELEMENT_CAP elements raises CapacityError
    before anything is built.
    """
    factors = _tower_factors(p, tuple(layers))
    _, size = _tower_size(factors)
    if size > DEFAULT_ELEMENT_CAP:
        raise CapacityError(f"tower connection set would have {size} elements", DEFAULT_ELEMENT_CAP)
    n = 1
    s: set[int] = set()
    for q, a in reversed(factors):
        s = {q * x for x in s} | {e + q * t for e in a for t in range(n)}
        n *= q
    return n, frozenset(s)


def edge_list_lines(n: int, arcs: Iterable[tuple[int, int]]) -> Iterator[str]:
    """Edge-list format, line by line: "n=<count>" then "u v" for each arc, in the order given."""
    yield f"n={n}"
    for u, v in arcs:
        yield f"{u} {v}"


def dot_lines(n: int, arcs: Iterable[tuple[int, int]], name: str = "G") -> Iterator[str]:
    """Graphviz format, line by line: every vertex, then each arc in the order given."""
    yield f"digraph {name} {{"
    for v in range(n):
        yield f"  {v};"
    for u, v in arcs:
        yield f"  {u} -> {v};"
    yield "}"
