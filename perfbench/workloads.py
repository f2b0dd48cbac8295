"""Seeded instance generators, the property each workload's instances must
have, and the checks applied to the program's reports.

Nothing here imports the program: the number theory the checks need is
recomputed independently, so a defect in the program's own arithmetic cannot
hide itself.
"""

import random
from dataclasses import dataclass, field, replace
from itertools import islice
from math import gcd, prod

# Every workload's classes are drawn with this fixed seed, the criterion-5
# corpus's (the ROADMAP's end-to-end row); the run's seed orders and
# relabels them (see corpus()).
CORPUS_SEED = 20260810
PRIME_POWER_NS = (4, 8, 9, 16, 25, 27)
CONNECTED_NS = (40, 45, 48, 51, 56, 60, 63, 64)
CONNECTED_PER_N = 15
DISCONNECTED_NS = (12, 16, 18, 20)
DISCONNECTED_COUNT = 40
LARGE_NS = tuple(2**k for k in range(16, 23)) + (3**13, 5**9, 2**10 * 3**6, 2**12 * 5**4)
LARGE_ROUNDS = 4
LARGE_MAX_S = 8
# A run answers each instance once per labeling cS (c a unit), one pass per
# labeling, and keeps the fastest: the host's speed wanders by tens of
# percent within seconds, and the fastest of several labelings is steady.
# Each workload gets as many passes as fit well within 60 s on a slow host.
LABELINGS = {"verify_prime_power": 2, "verify_connected": 6, "verify_disconnected": 1, "analyze_large": 4}

EXACT_MATCH = "exact-match"
MISMATCH = "MISMATCH"
ORACLE_CAPPED = "oracle-capped"


@dataclass(frozen=True)
class Instance:
    n: int
    s: frozenset
    # p -> levels planted valid; a dict cannot be hashed, so it stays out of eq and hash
    planted: dict = field(default_factory=dict, compare=False)
    units: tuple = field(default=(1,), compare=False)  # labelings cS, one per pass

    def text(self) -> str:
        return f"n={self.n}; S={','.join(map(str, sorted(self.s)))}"

    def labeled(self, k: int) -> "Instance":
        """The instance with S relabeled by its k-th unit."""
        c = self.units[k]
        return Instance(self.n, frozenset(c * x % self.n for x in self.s), self.planted)


# --- number theory, independent of the program ---------------------------

def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def arithmetic_condition(n: int) -> bool:
    """gcd(k, phi(k)) = 1 for k the radical of n."""
    primes = [p for p, _ in factorize(n)]
    return gcd(prod(primes), prod(p - 1 for p in primes)) == 1


def random_unit(rng: random.Random, n: int) -> int:
    """A uniformly random unit of Z_n (n >= 2)."""
    while True:
        c = rng.randrange(1, n)
        if gcd(c, n) == 1:
            return c


def levels_checked(n: int) -> int:
    """Levels the analyzer tests: the sum of a - 1 over p^a || n."""
    return sum(a - 1 for _, a in factorize(n))


def level_holds(n: int, s: frozenset, p: int, a: int, level: int) -> bool:
    """Coset condition at one level: S outside W is a union of cosets of P.

    P (order p^level) is generated by n / p^level, and x lies in W (order
    p^level * n / p^a) exactly when p^(a - level) divides x.
    """
    step, envelope = n // p**level, p ** (a - level)
    return all(x % envelope == 0 or (x + step) % n in s for x in s)


def group_order(text: str) -> int:
    """Order of an abelian group written as "Z9xZ5" or "Z3^2xZ5"."""
    order = 1
    for part in text.split("x"):
        base, _, exp = part[1:].partition("^")
        order *= int(base) ** int(exp or 1)
    return order


def generating(n: int, s) -> bool:
    return gcd(n, *s) == 1


# --- generators ------------------------------------------------------------
#
# Each generator draws its workload's classes from an rng seeded with
# CORPUS_SEED, the same in every run; corpus() lets the run's seed order them
# and pick their labelings.

def _distinct(pairs):
    seen = set()
    for n, s in pairs:
        if (n, s) not in seen:
            seen.add((n, s))
            yield Instance(n, s)


def prime_power(rng: random.Random) -> list[Instance]:
    """The criterion-5 corpus: 200 random S for each n, de-duplicated."""
    return list(_distinct(
        (n, frozenset(rng.sample(range(n), rng.randrange(0, n + 1))))
        for n in PRIME_POWER_NS
        for _ in range(200)
    ))


def connected(rng: random.Random) -> list[Instance]:
    """CONNECTED_PER_N uniform random S at each n in CONNECTED_NS.

    S and Z_n minus S both generate Z_n.  The work per instance grows
    steeply with n, so each n gets the same count.
    """
    def draws(n):
        while True:
            s = frozenset(x for x in range(n) if rng.random() < 0.5)
            if generating(n, s) and generating(n, set(range(n)) - s):
                yield n, s

    return [inst for n in CONNECTED_NS for inst in islice(_distinct(draws(n)), CONNECTED_PER_N)]


def disconnected_divisors(n: int) -> list[int]:
    """d with S inside dZ_n giving at least 3 components of at least 3 vertices."""
    return [d for d in range(3, n) if n % d == 0 and n // d >= 3]


def disconnected(rng: random.Random) -> list[Instance]:
    """Random n in DISCONNECTED_NS; S or its complement is a random subset of dZ_n."""
    def draws():
        while True:
            n = rng.choice(DISCONNECTED_NS)
            d = rng.choice(disconnected_divisors(n))
            s = frozenset(x for x in range(0, n, d) if rng.random() < 0.5)
            if rng.random() < 0.5:
                s = frozenset(range(n)) - s
            yield n, s

    return list(islice(_distinct(draws()), DISCONNECTED_COUNT))


def _planted(rng: random.Random, n: int) -> Instance:
    """Sparse S, a union of cosets of Q = prod p^L_p, so levels 1..L_p are valid.

    The first prime (in random order) gets L_p >= 1; |Q| times the number of
    cosets stays within LARGE_MAX_S.
    """
    factors = factorize(n)
    rng.shuffle(factors)
    budget, depth = LARGE_MAX_S, {}
    for i, (p, a) in enumerate(factors):
        top = 0
        while top < a - 1 and p ** (top + 1) <= budget:
            top += 1
        depth[p] = rng.randint(min(1, top) if i == 0 else 0, top)
        budget //= p ** depth[p]
    q = prod(p**level for p, level in depth.items())
    step = n // q
    starts = rng.sample(range(n), rng.randint(1, LARGE_MAX_S // q))
    s = frozenset((x + j * step) % n for x in starts for j in range(q))
    planted = {p: tuple(range(1, level + 1)) for p, level in depth.items() if level}
    return Instance(n, s, planted)


def large(rng: random.Random) -> list[Instance]:
    """LARGE_ROUNDS rounds, one planted instance per n in LARGE_NS each."""
    return [_planted(rng, n) for _ in range(LARGE_ROUNDS) for n in LARGE_NS]


GENERATORS = {
    "verify_prime_power": prime_power,
    "verify_connected": connected,
    "verify_disconnected": disconnected,
    "analyze_large": large,
}


def _candidate_units(rng: random.Random, n: int):
    """A few random units of Z_n, then every unit when n is small enough to list."""
    for _ in range(8):
        yield random_unit(rng, n)
    if n <= 1000:
        yield from (c for c in range(1, n) if gcd(c, n) == 1)


def corpus(workload: str, seed: int) -> list[Instance]:
    """The workload's classes in an order drawn from `seed`, with their labelings.

    Each instance gets up to LABELINGS[workload] labelings cS, c a unit drawn
    from `seed`.  Multiplying by a unit is an isomorphism, so every labeling
    has the same answer and about the same work.  No two labelings in the
    corpus are the same input, so no result can be reused; an S that few
    units move (at small n) gets fewer labelings, but every instance gets
    one, because each round gives every instance one more.

    The classes are the same for every seed.  A fresh draw per seed would
    move a run by more than its bounds allow: a criterion-5 draw holds each
    of a few instances with |Aut| near 10^5 (Z_5 wr S_5 at n = 25, for one)
    with probability about 1/4, which moved a pass between 25 s and 36 s,
    and the verify_connected classes of one seed took 10% longer than those
    of another.
    """
    classes = GENERATORS[workload](random.Random(CORPUS_SEED))
    rng = random.Random(seed)
    rng.shuffle(classes)
    used, units = set(), [[] for _ in classes]
    for _ in range(LABELINGS[workload]):
        for inst, mine in zip(classes, units):
            for c in _candidate_units(rng, inst.n):
                key = (inst.n, frozenset(c * x % inst.n for x in inst.s))
                if key not in used:
                    used.add(key)
                    mine.append(c)
                    break
    return [replace(inst, units=tuple(mine)) for inst, mine in zip(classes, units)]


def has_property(workload: str, inst: Instance) -> bool:
    """The defining property of a workload's instances."""
    n, s = inst.n, inst.s
    if workload == "verify_prime_power":
        return n in PRIME_POWER_NS and len(factorize(n)) == 1
    if workload == "verify_connected":
        return n in CONNECTED_NS and generating(n, s) and generating(n, set(range(n)) - s)
    if workload == "verify_disconnected":
        complement = set(range(n)) - s
        return n in DISCONNECTED_NS and max(gcd(n, *s), gcd(n, *complement)) >= 3
    if workload == "analyze_large":
        exps = dict(factorize(n))
        return (
            n in LARGE_NS
            and 1 <= len(s) <= LARGE_MAX_S
            and bool(inst.planted)
            and len(inst.units) == LABELINGS[workload]
            and all(level_holds(n, s, p, exps[p], l) for p, ls in inst.planted.items() for l in ls)
        )
    raise KeyError(workload)


# --- output checks ---------------------------------------------------------

def check_verify(inst: Instance, report: dict) -> list[str]:
    """Problems with one `verify --format json` report; empty when it is right."""
    problems = []
    if report.get("n") != inst.n or report.get("S") != sorted(inst.s):
        problems.append("report is for another instance")
    verdict, actual = report.get("verdict"), report.get("actual")
    if verdict == MISMATCH:
        problems.append("MISMATCH")
    if actual is not None and not set(report.get("predicted", ())) <= set(actual):
        problems.append("predicted not a subset of actual")
    if arithmetic_condition(inst.n) and verdict not in (EXACT_MATCH, ORACLE_CAPPED):
        problems.append(f"verdict {verdict} although the gcd condition holds")
    return problems


def check_analyze(inst: Instance, reports: dict) -> list[str]:
    """Problems with the `analyze --format json` reports of an instance.

    `reports` maps a labeling k to the report for inst.labeled(k).  A unit
    maps the cosets of each subgroup of Z_n to cosets of the same subgroup,
    so the planted levels hold in every labeling, and all the reports must
    be the same apart from S.
    """
    problems = []
    for k, other in reports.items():
        if other.get("n") != inst.n or other.get("S") != sorted(inst.labeled(k).s):
            problems.append(f"report for labeling {k} is for another instance")
    if 0 not in reports:  # the first labeling got no report: the instance has failed already
        return problems
    report = reports[0]
    valid = {e["p"]: set(e["valid_levels"]) for e in report.get("per_prime", ())}
    for p, levels in inst.planted.items():
        if not set(levels) <= valid.get(p, set()):
            problems.append(f"planted levels {levels} at p={p} not all reported valid")
    if group_order(report.get("minimal_group", "Z0")) != inst.n:
        problems.append(f"minimal group {report.get('minimal_group')} has the wrong order")
    for k, other in reports.items():
        if {key: v for key, v in report.items() if key != "S"} != {key: v for key, v in other.items() if key != "S"}:
            problems.append(f"report changes under S -> {inst.units[k]}S")
    return problems
