"""Decision procedure for circulant digraphs Cay(Z_n, S).

For each prime power p^a || n and each level 1 <= l <= a-1, the connection
set either is or is not a union of cosets of the unique subgroup of order p^l
outside the unique subgroup of order p^l * n/p^a.  The valid levels cut the
exponent a into layers; the layer partitions assemble the minimal abelian
group realizing the digraph, and its up-set is the realizable list (complete
exactly when gcd(k, phi(k)) = 1 for k the radical of n).

Each prime takes one pass.  Write P_l = <n/p^l> and W_l = <p^(a-l)>.  Level
l holds iff every x in S outside W_l has x + n/p^l in S: P_l lies in W_l, so
x + t stays outside W_l for every t in P_l, and S outside W_l closed under
the generator of P_l is a union of P_l-cosets.  Let low be the least p-adic
valuation of a nonzero member of S (a if there is none), the valuation of
gcd(n, S).  Every nonzero x then lies in W_l once a - l <= low, so the levels
l >= a - low hold outright, and only the levels below them are tested, each
stopping at its first failing x.

translation_check witnesses the same verdict from the automorphism side,
without the decomposition: level l is valid exactly when the block-local
translations lie in Aut(Cay(Z_n, S)), and one map per level decides that, in
either direction.
"""

from math import gcd
from operator import sub
from typing import Iterator

# up_set has no caller here: it stays as the patch point of perfbench's
# abelian.up_set span, as ConnectionSet.digraph stays for digraph.digraph.
from .abelian import AbelianType, up_set, up_set_texts
from ._record import Record, set_field
from ._refine import Circulant
from .arith import _radical_condition, factorize
from .digraph import cayley_digraph, tower_arcs


class ConnectionSet(Record):
    """Subset of Z_n defining the circulant digraph Cay(Z_n, S)."""

    __slots__ = ("n", "members")
    n: int
    members: frozenset[int]

    def __init__(self, n, members):
        set_field(self, "n", n)
        set_field(self, "members", members)
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        if self.members and (min(self.members) < 0 or max(self.members) >= self.n):
            x = next(x for x in self.members if not 0 <= x < self.n)
            raise ValueError(f"element {x} out of range for Z_{self.n}")

    @classmethod
    def of(cls, n: int, members) -> "ConnectionSet":
        return cls(n, frozenset(members))

    def text(self) -> str:
        body = ",".join(str(x) for x in sorted(self.members))
        return f"n={self.n}; S={body}"

    def digraph(self) -> Circulant:
        return cayley_digraph(self.n, self.members)


def _parse_literal(text: str) -> tuple[ConnectionSet, list[str]]:
    """The connection set a literal names, and the message of each element
    reduced mod n, one per element in the order written.

    The elements are read by one ``map(int, ...)``, which ignores the
    whitespace around a token.  Only when that raises are the tokens
    stripped and read one by one: that names the first bad token, and reads
    a token that ``strip`` clears and ``int`` does not (U+001C to U+001F).
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
    tokens = body.split(",") if body else []
    try:
        values = list(map(int, tokens))
    except ValueError:
        values = []
        for i, token in enumerate(tokens):
            token = token.strip()
            try:
                values.append(int(token))
            except ValueError:
                raise ValueError(f"bad element {token!r} at index {i} in {text!r}") from None
    messages = []
    if values and (min(values) < 0 or max(values) >= n):
        messages = [f"element {x} reduced mod {n}" for x in values if not 0 <= x < n]
        values = [x % n for x in values]
    return ConnectionSet(n, frozenset(values)), messages


class PrimeLayers(Record):
    """Valid levels and induced layers for one prime power p^a || n."""

    __slots__ = ("p", "a", "valid_levels", "layer_sizes")
    p: int
    a: int
    valid_levels: tuple[int, ...]
    layer_sizes: tuple[int, ...]

    def __init__(self, p, a, valid_levels, layer_sizes):
        set_field(self, "p", p)
        set_field(self, "a", a)
        set_field(self, "valid_levels", valid_levels)
        set_field(self, "layer_sizes", layer_sizes)

    @property
    def minimal_parts(self) -> tuple[int, ...]:
        """The layer sizes, largest first: the partition of the minimal Sylow p-subgroup."""
        return tuple(sorted(self.layer_sizes, reverse=True))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "valid_levels": list(self.valid_levels),
            "layers": list(self.layer_sizes),
        }


class LayerDecomposition(Record):
    __slots__ = ("n", "per_prime")
    n: int
    per_prime: tuple[PrimeLayers, ...]

    def __init__(self, n, per_prime):
        set_field(self, "n", n)
        set_field(self, "per_prime", per_prime)

    def for_prime(self, p: int) -> PrimeLayers:
        """The layers of the prime p.  A p that is not a prime dividing n is
        refused as translation_check and ``decompose --prime`` refuse it."""
        for layers in self.per_prime:
            if layers.p == p:
                return layers
        raise _not_a_prime_divisor(p, self.n)

    def minimal_group(self) -> AbelianType:
        return AbelianType(tuple((layers.p, layers.minimal_parts) for layers in self.per_prime))

    def realizable(self) -> list[str]:
        """The canonical texts of the minimal group's up-set, in up_set's
        order: the minimal group's text first and Z_n's last."""
        return up_set_texts([(layers.p, layers.minimal_parts) for layers in self.per_prime])

    def arithmetic_condition(self) -> bool:
        """gcd(k, phi(k)) = 1 for k the radical of n, read off the factorization."""
        return _radical_condition([layers.p for layers in self.per_prime])


def _not_a_prime_divisor(p: int, n: int) -> ValueError:
    """The refusal of a p that is not a prime dividing n: a divisor of n is
    named as no prime, and any other p, 0 among them, as no divisor."""
    if p and n % p == 0:
        return ValueError(f"{p} is not a prime dividing {n}")
    return ValueError(f"{p} does not divide {n}")


def _valid_levels(s: ConnectionSet, p: int, a: int) -> tuple[int, ...]:
    """The levels 1 <= l <= a-1 at which the coset condition holds, for p^a || n.

    Membership in W_l is divisibility by p^(a-l), and only the generator
    n/p^l of P_l is added to each x (see the module docstring).  The levels
    from a - low up, low the valuation of gcd(n, S) at p, hold untested.  A
    member x0 of valuation low lies outside every W_l tested, so it is
    tried first, and most failing levels cost one lookup.
    """
    if a == 1:
        return ()
    n, members = s.n, s.members
    g, low = gcd(n, *members), 0
    while g % p == 0:  # g divides n, so low ends at most a
        g //= p
        low += 1
    valid = []
    if low < a - 1:
        x0 = next(x for x in members if x % p ** (low + 1))
        envelope, step = p ** (a - 1), n // p
        for level in range(1, a - low):
            if (x0 + step) % n in members:
                for x in members:
                    if x % envelope and (x + step) % n not in members:
                        break
                else:
                    valid.append(level)
            envelope //= p
            step //= p
    return (*valid, *range(max(1, a - low), a))


def decompose(s: ConnectionSet) -> LayerDecomposition:
    """Valid levels and layer sizes for every prime dividing n, n >= 1.

    Z_n has one subgroup per divisor, so the maximal chain of valid levels is
    canonical and layer sizes are just the gaps between consecutive
    boundaries.  n = 1 has no prime, so its decomposition has no layers and
    its minimal group is the empty product, Z1.
    """
    per_prime = []
    for p, a in factorize(s.n):
        valid = _valid_levels(s, p, a)
        sizes = tuple(map(sub, (*valid, a), (0, *valid)))
        per_prime.append(PrimeLayers(p, a, valid, sizes))
    return LayerDecomposition(s.n, tuple(per_prime))


def realizable_groups(s: ConnectionSet) -> tuple[list[str], bool]:
    """The canonical texts of the groups realizing the digraph, plus an
    exactness flag.

    The texts are the up-set of the minimal group, in up_set's order, so
    Z_n comes last.  The list is always sound; it is complete exactly when
    the arithmetic condition on n holds.
    """
    decomposition = decompose(s)
    return decomposition.realizable(), decomposition.arithmetic_condition()


def product_type_witness(s: ConnectionSet) -> list[tuple[int, int, Iterator[tuple[int, int]]]]:
    """Per prime p, in increasing order, p and the canonical tower digraph
    over p's layers as ``tower_arcs`` gives it: its vertex count and its arcs
    in sorted order.  Every tower's arc cap is checked before this returns.

    Layers feed the tower top-down (reversed), so the outermost wreath factor
    corresponds to the topmost layer, matching how block-local translations
    sit inside quotient actions.
    """
    return [
        (layers.p, *tower_arcs(layers.p, tuple(reversed(layers.layer_sizes))))
        for layers in decompose(s).per_prime
    ]


def translation_check(s: ConnectionSet, p: int, level: int) -> bool:
    """Whether the block-local translations at this level are digraph automorphisms.

    Write P = <n/p^l> and W = <p^(a-l)> for p^a || n.  A block-local
    translation adds some t in P on one coset of W and fixes everything
    else.  One map is checked, tau: add n/p^l on W itself.  The rotation by
    c is an automorphism and conjugates tau to the same map on the coset
    c + W, and the powers of tau add every t in P on W, so tau preserves the
    arcs exactly when every block-local translation does.  tau is a
    bijection, so preserving the arcs makes it an automorphism.  u -> v is
    an arc exactly when v - u lies in S, so the arcs are checked by
    difference and no digraph is built.

    decompose is not consulted, yet by the paper's lemma the answer is True
    exactly when l is one of its valid levels.  A p that is not a prime
    divisor of n is refused as ``LayerDecomposition.for_prime`` refuses it,
    and a level outside 1..a-1 is refused with that range; a level in the
    range that fails the coset condition gives False.
    """
    n, members = s.n, s.members
    a = dict(factorize(n)).get(p)
    if a is None:
        raise _not_a_prime_divisor(p, n)
    if not 1 <= level < a:
        raise ValueError(f"level {level} is outside 1..a-1 for p^a = {p}^{a}")
    envelope, step = p ** (a - level), n // p**level
    image = [(x + step) % n if x % envelope == 0 else x for x in range(n)]
    return all((image[(u + x) % n] - image[u]) % n in members for u in range(n) for x in members)


def analysis_report(s: ConnectionSet) -> dict:
    """JSON-ready report of the full analysis.

    Groups are written as text straight from their per-prime partitions
    (``LayerDecomposition.realizable``); the list matches up_set's, in its
    order, and the minimal group's text is its first.
    """
    decomposition = decompose(s)
    realizable = decomposition.realizable()
    exact = decomposition.arithmetic_condition()
    return {
        "n": s.n,
        "S": sorted(s.members),
        "arithmetic_condition": exact,
        "per_prime": [layers.to_json_dict() for layers in decomposition.per_prime],
        "minimal_group": realizable[0],
        "realizable": realizable,
        "exact": exact,
    }
