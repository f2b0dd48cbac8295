"""Decision procedure for circulant digraphs Cay(Z_n, S).

For each prime power p^a || n and each level 1 <= l <= a-1, the connection
set either is or is not a union of cosets of the unique subgroup of order p^l
outside the unique subgroup of order p^l * n/p^a.  The valid levels cut the
exponent a into layers; the layer partitions assemble the minimal abelian
group realizing the digraph, and its up-set is the realizable list (complete
exactly when gcd(k, phi(k)) = 1 for k the radical of n).
"""

import warnings
from dataclasses import dataclass

from .abelian import AbelianType, PPartition, up_set
from .arith import arithmetic_condition, big_omega, factorize
from .digraph import Digraph, cayley_digraph, tower_digraph


@dataclass(frozen=True)
class ConnectionSet:
    """Subset of Z_n defining the circulant digraph Cay(Z_n, S)."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        for x in self.members:
            if not (0 <= x < self.n):
                raise ValueError(f"element {x} out of range for Z_{self.n}")

    @classmethod
    def of(cls, n: int, members) -> "ConnectionSet":
        return cls(n, frozenset(members))

    def text(self) -> str:
        body = ",".join(str(x) for x in sorted(self.members))
        return f"n={self.n}; S={body}"

    def digraph(self) -> Digraph:
        return cayley_digraph(self.n, self.members)


def parse_connection_set(text: str) -> ConnectionSet:
    """Parse the literal form "n=45; S=0,1,15,30".

    Elements outside [0, n) are reduced mod n with a warning; a malformed
    literal raises ValueError naming the offending position.
    """
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
    members = set()
    if body:
        for i, token in enumerate(body.split(",")):
            token = token.strip()
            try:
                value = int(token)
            except ValueError:
                raise ValueError(f"bad element {token!r} at index {i} in {text!r}") from None
            if not (0 <= value < n):
                warnings.warn(f"element {value} reduced mod {n}", stacklevel=2)
                value %= n
            members.add(value)
    return ConnectionSet(n, frozenset(members))


def subgroup_of_order(n: int, d: int) -> frozenset[int]:
    """The unique subgroup of Z_n of order d (d must divide n)."""
    if d < 1 or n % d != 0:
        raise ValueError(f"{d} does not divide {n}")
    step = n // d
    return frozenset(range(0, n, step))


@dataclass(frozen=True)
class PrimeLayers:
    """Valid levels and induced layers for one prime power p^a || n."""

    p: int
    a: int
    valid_levels: tuple[int, ...]
    layer_sizes: tuple[int, ...]

    @property
    def minimal_sylow(self) -> PPartition:
        return PPartition(self.p, tuple(sorted(self.layer_sizes, reverse=True)))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "valid_levels": list(self.valid_levels),
            "layers": list(self.layer_sizes),
        }


@dataclass(frozen=True)
class LayerDecomposition:
    n: int
    per_prime: tuple[PrimeLayers, ...]

    def for_prime(self, p: int) -> PrimeLayers:
        for layers in self.per_prime:
            if layers.p == p:
                return layers
        raise KeyError(f"{p} does not divide {self.n}")

    def minimal_group(self) -> AbelianType:
        return AbelianType(tuple(layers.minimal_sylow for layers in self.per_prime))


def _prime_exponent(n: int, p: int) -> int:
    """The exponent of the prime p in n, counted by division; n is not factorized."""
    if p < 2 or n % p != 0 or big_omega(p) != 1:
        raise ValueError(f"{p} does not divide {n}")
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def coset_condition(s: ConnectionSet, p: int, level: int) -> bool:
    """Whether S outside W is a union of cosets of P.

    P = <n/p^level> is the subgroup of order p^level and W = <p^(a-level)>
    the subgroup of order p^level * n/p^a, i.e. P extended by the full Hall
    p'-part.  Membership in W is divisibility and P is scanned lazily, so
    nothing grows with n.
    """
    n = s.n
    a = _prime_exponent(n, p)
    if not (1 <= level <= a - 1):
        raise ValueError(f"level {level} outside 1..{a - 1} for p={p}, n={n}")
    return _holds(s, p, a, level)


def _holds(s: ConnectionSet, p: int, a: int, level: int) -> bool:
    """The coset condition for p^a || n and 1 <= level <= a-1, taken as given."""
    n = s.n
    envelope_step = p ** (a - level)
    subgroup_step = n // p**level
    members = s.members
    for x in members:
        if x % envelope_step == 0:
            continue
        if any((x + t) % n not in members for t in range(subgroup_step, n, subgroup_step)):
            return False
    return True


def decompose(s: ConnectionSet) -> LayerDecomposition:
    """Valid levels and layer sizes for every prime dividing n.

    Z_n has one subgroup per divisor, so the maximal chain of valid levels is
    canonical and layer sizes are just the gaps between consecutive
    boundaries.
    """
    if s.n < 2:
        raise ValueError(f"decomposition needs n >= 2, got {s.n}")
    per_prime = []
    for p, a in factorize(s.n).factors:
        valid = tuple(l for l in range(1, a) if _holds(s, p, a, l))
        bounds = (0,) + valid + (a,)
        sizes = tuple(b - c for b, c in zip(bounds[1:], bounds))
        per_prime.append(PrimeLayers(p, a, valid, sizes))
    return LayerDecomposition(s.n, tuple(per_prime))


def minimal_group(s: ConnectionSet) -> AbelianType:
    """The minimal abelian group (under the product order) realizing Cay(Z_n, S)."""
    return decompose(s).minimal_group()


def realizable_groups(s: ConnectionSet) -> tuple[list[AbelianType], bool]:
    """Groups realizing the digraph plus an exactness flag.

    The list (the up-set of the minimal group) is always sound; it is
    complete exactly when the arithmetic condition on n holds.
    """
    return up_set(minimal_group(s)), arithmetic_condition(s.n)


def product_type_witness(s: ConnectionSet) -> list[tuple[int, Digraph]]:
    """Per prime p, in increasing order, p and the canonical tower digraph
    over p's layers.

    Layers feed the tower top-down (reversed), so the outermost wreath factor
    corresponds to the topmost layer, matching how block-local translations
    sit inside quotient actions.
    """
    decomposition = decompose(s)
    return [
        (layers.p, tower_digraph(layers.p, tuple(reversed(layers.layer_sizes))))
        for layers in decomposition.per_prime
    ]


def translation_check(s: ConnectionSet, p: int, level: int) -> bool:
    """Directly verify that block-local translations are digraph automorphisms.

    For W the envelope subgroup and P the level subgroup, the permutation
    "add t on one coset of W, fix everything else" must preserve the arc set
    for every coset and every t in P.  This is the structural consequence of
    the coset condition, checked on arcs rather than via the condition.
    """
    n = s.n
    a = _prime_exponent(n, p)
    decomposition = decompose(s)
    if level not in decomposition.for_prime(p).valid_levels:
        raise ValueError(f"level {level} is not a valid level for p={p}")
    arcs = s.digraph().arcs
    subgroup = sorted(subgroup_of_order(n, p**level))
    envelope = subgroup_of_order(n, p**level * (n // p**a))
    coset_count = n // len(envelope)
    for rep in range(coset_count):
        coset = {(rep + w) % n for w in envelope}
        for t in subgroup:
            if t == 0:
                continue
            image = [(x + t) % n if x in coset else x for x in range(n)]
            if any((image[u], image[v]) not in arcs for u, v in arcs):
                return False
    return True


def analysis_report(s: ConnectionSet) -> dict:
    """JSON-ready report of the full analysis."""
    decomposition = decompose(s)
    minimal = decomposition.minimal_group()
    realizable, exact = up_set(minimal), arithmetic_condition(s.n)
    return {
        "n": s.n,
        "S": sorted(s.members),
        "arithmetic_condition": exact,
        "per_prime": [layers.to_json_dict() for layers in decomposition.per_prime],
        "minimal_group": minimal.text(),
        "realizable": [g.text() for g in realizable],
        "exact": exact,
    }
