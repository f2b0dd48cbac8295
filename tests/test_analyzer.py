import json
import random
from itertools import chain, combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_coset_condition, brute_up_set, matrix, parse_literal_loop, preceq, scan_coset_condition
from circulant import abelian, analyzer, arith
from circulant.abelian import AbelianType, enumerate_abelian, partitions, up_set
from circulant.analyzer import (
    ConnectionSet,
    analysis_report,
    decompose,
    product_type_witness,
    realizable_groups,
    subgroup_of_order,
    translation_check,
)
from circulant.arith import factorize
from circulant.digraph import cayley_digraph, tower_connection_set, tower_digraph
from circulant.permgroup import automorphism_group

# the n of perfbench's analyze_large workload
LARGE_NS = [2**k for k in range(16, 23)] + [3**13, 5**9, 2**10 * 3**6, 2**12 * 5**4]

EXAMPLE_45 = ConnectionSet.of(45, [0, 1, 15, 30])
EXAMPLE_9 = ConnectionSet.of(9, [3, 6])
EXAMPLE_8 = ConnectionSet.of(8, [4])


# whitespace that int() and strip() both clear, and U+001C, which only strip() clears
_SPACES = st.sampled_from(["", "", " ", "  ", "\t", "\xa0", "\u2003", "\x1c"])
_HUGE = "1" + "0" * 4300  # 4,301 digits: past int()'s default limit on conversions


@st.composite
def _tokens(draw, n):
    """An element as written: in or out of range, signed, with underscores or
    spaces, or not a number at all."""
    kind = draw(st.sampled_from(["in", "in", "out", "out", "negative", "sign", "underscore", "empty", "junk", "huge"]))
    if kind == "in":
        text = str(draw(st.integers(0, max(0, n - 1))))
    elif kind == "out":
        text = str(draw(st.integers(n, 3 * n + 5)))
    elif kind == "negative":
        text = str(draw(st.integers(-3 * n - 5, -1)))
    elif kind == "sign":
        text = "+" + str(draw(st.integers(0, 2 * n)))
    elif kind == "underscore":
        digits = str(draw(st.integers(10, 10**4)))
        text = digits[:1] + "_" + digits[1:]
    else:
        text = {"empty": "", "junk": draw(st.sampled_from(["x", "1.5", "--1", "1__0", "0x1f", "1 2"])), "huge": _HUGE}[kind]
    return draw(_SPACES) + text + draw(_SPACES)


@st.composite
def _literals(draw):
    """Literal texts around the form "n=45; S=0,1,15,30", mostly well formed."""
    n = draw(st.sampled_from([1, 1, 2, 7, 12, 45, 2**20, 10**30]))
    modulus = draw(st.sampled_from([str(n)] * 6 + ["0", "-4", "x", "", _HUGE, f"+{n}", f" {n} "]))
    tokens = draw(st.lists(_tokens(n), max_size=6))
    if tokens and draw(st.booleans()):
        tokens.append(draw(st.sampled_from(tokens)))  # a duplicate
    body = ",".join(tokens)
    shape = draw(st.sampled_from(["{sp}n={m}{sp};{sp}S={b}{sp}"] * 6 + ["n={m}", "n={m}; S={b}; S=", "S={b}; n={m}"]))
    return shape.format(sp=draw(_SPACES), m=modulus, b=body)


def holds(s, p, level):
    """Whether the coset condition holds for p at this level, as decompose finds it."""
    return level in decompose(s).for_prime(p).valid_levels


class TestConnectionSet:
    def test_validates_range(self):
        for x in (5, -1):
            with pytest.raises(ValueError, match=f"element {x} out of range for Z_5"):
                ConnectionSet.of(5, [1, x])

    def test_text_form(self):
        assert EXAMPLE_45.text() == "n=45; S=0,1,15,30"
        assert ConnectionSet.of(4, []).text() == "n=4; S="

    def test_parse_round_trip(self):
        for s in (EXAMPLE_45, EXAMPLE_9, ConnectionSet.of(6, [])):
            assert analyzer._parse_literal(s.text()) == (s, [])

    def test_parse_tolerates_spacing(self):
        assert analyzer._parse_literal(" n=9 ;S= 3 , 6 ") == (EXAMPLE_9, [])

    def test_parse_reduces_mod_n_with_warning(self):
        s, messages = analyzer._parse_literal("n=9; S=10,-1")
        assert s == ConnectionSet.of(9, [1, 8])
        assert messages == ["element 10 reduced mod 9", "element -1 reduced mod 9"]

    @pytest.mark.parametrize(
        "bad", ["n=9", "S=1,2", "n=9; S=1; S=2", "n=x; S=1", "n=9; S=1,y", "n=0; S="]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            analyzer._parse_literal(bad)

    @settings(max_examples=300)
    @given(_literals())
    def test_parse_matches_the_token_loop(self, text):
        # the same set, the same messages in the same order, or the same error
        try:
            expected = parse_literal_loop(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                analyzer._parse_literal(text)
            assert str(raised.value) == str(exc)
            return
        assert analyzer._parse_literal(text) == expected


class TestSubgroupOfOrder:
    def test_order_three_in_45(self):
        assert subgroup_of_order(45, 3) == frozenset({0, 15, 30})

    def test_order_fifteen_in_45(self):
        assert subgroup_of_order(45, 15) == frozenset(range(0, 45, 3))

    def test_non_divisor(self):
        with pytest.raises(ValueError):
            subgroup_of_order(45, 2)

    def test_group_laws(self):
        for n, d in ((12, 4), (100, 10), (7, 7), (9, 1)):
            sub = subgroup_of_order(n, d)
            assert len(sub) == d
            assert all((a + b) % n in sub for a in sub for b in sub)


class TestCosetCondition:
    def test_worked_example_fails_at_level_1(self):
        # 1 is outside W = <3> and 1 + {0,15,30} is not inside S
        assert holds(EXAMPLE_45, 3, 1) is False

    def test_block_example_vacuously_true(self):
        assert holds(EXAMPLE_9, 3, 1) is True

    def test_directed_nine_cycle_fails(self):
        assert holds(ConnectionSet.of(9, [1]), 3, 1) is False

    def test_invalid_level(self):
        # a level outside 1..a-1 is never valid, so translation_check refuses it
        with pytest.raises(ValueError):
            translation_check(EXAMPLE_9, 3, 2)
        with pytest.raises(ValueError):
            translation_check(EXAMPLE_9, 3, 0)
        with pytest.raises(ValueError):
            translation_check(EXAMPLE_45, 5, 1)  # a=1 admits no levels

    @pytest.mark.parametrize("n,p", [(16, 4), (15, 2), (16, 1), (16, 0), (16, -3)])
    def test_rejects_p_that_is_not_a_prime_divisor(self, n, p):
        with pytest.raises(ValueError, match=f"{p} does not divide {n}"):
            translation_check(ConnectionSet.of(n, [1]), p, 1)

    def test_full_coset_union_satisfies(self):
        # S = (1 + <5>) in Z_25 is one full coset of the order-5 subgroup
        s = ConnectionSet.of(25, {(1 + 5 * k) % 25 for k in range(5)})
        assert holds(s, 5, 1) is True

    @pytest.mark.parametrize("n", [8, 9, 12, 16])
    def test_matches_brute_force_exhaustively(self, n):
        subsets = chain.from_iterable(combinations(range(n), k) for k in range(n + 1))
        checked = 0
        for members in subsets:
            s = ConnectionSet.of(n, members)
            for p, a in factorize(n).factors:
                for level in range(1, a):
                    assert holds(s, p, level) == brute_coset_condition(s, p, level), (s, p, level)
                    checked += 1
        assert checked >= 2**n


class TestDecompose:
    def test_worked_example(self):
        d = decompose(EXAMPLE_45)
        p3 = d.for_prime(3)
        assert p3.valid_levels == ()
        assert p3.layer_sizes == (2,)
        assert p3.minimal_parts == (2,)
        assert d.for_prime(5).minimal_parts == (1,)
        with pytest.raises(ValueError, match="7 does not divide 45"):
            d.for_prime(7)

    def test_block_example(self):
        p3 = decompose(EXAMPLE_9).for_prime(3)
        assert p3.valid_levels == (1,)
        assert p3.layer_sizes == (1, 1)
        assert p3.minimal_parts == (1, 1)

    def test_digon_stack(self):
        p2 = decompose(EXAMPLE_8).for_prime(2)
        assert p2.valid_levels == (1, 2)
        assert p2.layer_sizes == (1, 1, 1)

    def test_boundaries_sum(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randrange(2, 101)
            s = ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, 8))})
            d = decompose(s)
            for layers in d.per_prime:
                assert sum(layers.layer_sizes) == layers.a
                assert len(layers.layer_sizes) == len(layers.valid_levels) + 1

    def test_rotation_invariance_under_units(self):
        rng = random.Random(29)
        import math

        for _ in range(60):
            n = rng.randrange(2, 61)
            s = ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, 8))})
            units = [c for c in range(1, n) if math.gcd(c, n) == 1]
            c = rng.choice(units)
            assert decompose(s) == decompose(ConnectionSet.of(n, {c * x % n for x in s.members}))

    @staticmethod
    def _assert_levels_match_brute_force(s):
        """Check every prime's levels against the brute-force condition; the
        number of valid levels."""
        valid = 0
        for layers in decompose(s).per_prime:
            expected = tuple(l for l in range(1, layers.a) if brute_coset_condition(s, layers.p, l))
            assert layers.valid_levels == expected, (s, layers.p)
            valid += len(expected)
        return valid

    @pytest.mark.parametrize("n", range(2, 17))
    def test_levels_match_brute_force_exhaustively(self, n):
        for members in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
            self._assert_levels_match_brute_force(ConnectionSet.of(n, members))

    @pytest.mark.parametrize("n", [16, 27, 32, 48, 64, 81])
    def test_levels_match_brute_force_random(self, n):
        rng = random.Random(n)
        for _ in range(200):
            self._assert_levels_match_brute_force(_random_instance(rng, n))

    def test_levels_match_brute_force_random_up_to_200(self):
        rng = random.Random(71)
        valid = 0
        for _ in range(1000):
            valid += self._assert_levels_match_brute_force(_random_instance(rng, rng.randrange(4, 201)))
        assert valid > 100

    @pytest.mark.parametrize("n", LARGE_NS)
    def test_levels_match_translate_scan_at_large_n(self, n):
        # sparse coset unions whose members have random valuations, so that
        # levels hold by coset, by valuation, or not at all
        rng = random.Random(n)
        valid = 0
        for _ in range(40):
            s = _sparse_coset_union(rng, n)
            for layers in decompose(s).per_prime:
                expected = tuple(l for l in range(1, layers.a) if scan_coset_condition(s, layers.p, l))
                assert layers.valid_levels == expected, (s, layers.p)
                valid += len(expected)
        assert valid > 40


class TestMinimalAndRealizable:
    def test_worked_example_minimal_cyclic(self):
        assert decompose(EXAMPLE_45).minimal_group() == AbelianType.cyclic(45)

    def test_block_example_elementary(self):
        assert decompose(EXAMPLE_9).minimal_group() == AbelianType.from_parts({3: (1, 1)})

    def test_digon_stack_elementary(self):
        assert decompose(EXAMPLE_8).minimal_group() == AbelianType.from_parts({2: (1, 1, 1)})

    def test_realizable_sets(self):
        groups, exact = realizable_groups(EXAMPLE_9)
        assert set(groups) == {"Z3^2", "Z9"}
        assert exact is True

        groups, exact = realizable_groups(EXAMPLE_45)
        assert groups == ["Z9xZ5"]
        assert exact is True

        groups, exact = realizable_groups(EXAMPLE_8)
        assert set(groups) == {"Z2^3", "Z4xZ2", "Z8"}
        assert exact is True

    def test_wreathed_four_cycles_realize_three_groups(self):
        # Cay(Z_16, {1,4,5,9,13}) is the wreath of two directed 4-cycles:
        # level 2 is the only valid level, and the chain order admits
        # Z_8 x Z_2 above Z_4 x Z_4 through a diagonal subgroup
        s = ConnectionSet.of(16, [1, 4, 5, 9, 13])
        layers = decompose(s).for_prime(2)
        assert layers.valid_levels == (2,)
        assert decompose(s).minimal_group() == AbelianType.from_parts({2: (2, 2)})
        groups, exact = realizable_groups(s)
        assert set(groups) == {"Z4^2", "Z8xZ2", "Z16"}
        assert exact is True

    def test_exactness_flag_tracks_condition(self):
        assert realizable_groups(ConnectionSet.of(12, [1]))[1] is False
        assert realizable_groups(ConnectionSet.of(45, [1]))[1] is True

    def test_minimal_preceq_every_realizable(self):
        rng = random.Random(53)
        for _ in range(80):
            n = rng.randrange(2, 101)
            s = ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, 8))})
            h = decompose(s).minimal_group()
            groups, _ = realizable_groups(s)
            by_text = {g.text(): g for g in enumerate_abelian(n)}
            assert all(preceq(h, by_text[k]) for k in groups)


class TestUpSetTexts:
    """``_up_set_texts``, shared by the report and the oracle's prediction,
    against the brute-force up-set written as text."""

    @staticmethod
    def assert_brute(s, cache):
        minimal = decompose(s).minimal_group()
        if minimal not in cache:
            cache[minimal] = [g.text() for g in brute_up_set(minimal)]
        assert analyzer._up_set_texts(decompose(s)) == (minimal.text(), cache[minimal]), s
        assert realizable_groups(s)[0] == cache[minimal], s
        return len(minimal.invariant_factors()) > 1

    def test_every_set_at_small_n(self):
        cache, walked = {}, 0
        for n in range(2, 13):
            for mask in range(2**n):
                walked += self.assert_brute(ConnectionSet.of(n, [x for x in range(n) if mask >> x & 1]), cache)
        assert walked > 500  # 600 sets have a minimal group that is not cyclic

    def test_seeded_sets_up_to_2_to_the_40(self):
        # n = 2^a 3^b 5^c q, q = 1 or a prime: every up-set stays small enough
        # for brute_up_set; sparse coset unions make valid levels occur
        rng = random.Random(307)
        cache, walked = {}, 0
        for _ in range(500):
            n = 2 ** rng.randrange(11) * 3 ** rng.randrange(7) * 5 ** rng.randrange(4)
            n = max(2, n * rng.choice([1, 1, 7, 11, 8191]))
            assert n <= 2**40
            walked += self.assert_brute(_sparse_coset_union(rng, n), cache)
        assert walked > 400  # 478 of them walk an up-set


def witness_towers(s):
    """``product_type_witness`` with each tower's arcs collected into an adjacency matrix."""
    return [(p, matrix(n, arcs)) for p, n, arcs in product_type_witness(s)]


class TestWitness:
    def test_block_example_tower(self):
        ((p, tower),) = witness_towers(EXAMPLE_9)
        assert p == 3
        assert tower == tower_digraph(3, (1, 1))

    def test_worked_example_directed_cycles(self):
        cycles = [(3, cayley_digraph(9, {1})), (5, cayley_digraph(5, {1}))]
        assert witness_towers(EXAMPLE_45) == [(p, [list(r) for r in cycle]) for p, cycle in cycles]

    def test_digon_stack_tower(self):
        ((_, tower),) = witness_towers(EXAMPLE_8)
        assert tower == tower_digraph(2, (1, 1, 1))

    def test_witness_tower_matches_wreathed_four_cycles(self):
        # the (2,2)-layer instance IS its own witness tower's circulant
        # presentation (isomorphic to the tower, see test_digraph), and the
        # tower's automorphism order matches the digraph's exactly
        s = ConnectionSet.of(16, [1, 4, 5, 9, 13])
        ((_, tower),) = witness_towers(s)
        assert tower == tower_digraph(2, (2, 2))
        assert tower_connection_set(2, (2, 2)) == (s.n, s.members)
        assert automorphism_group(tower).cached_order == 1024
        assert automorphism_group(s.digraph()).cached_order == 1024

    def test_tower_order_respects_layer_order(self):
        # only level 1 valid in Z_8: layers (1, 2) bottom-up, so the outer
        # factor is the directed 4-cycle and the inner one the digon
        s = ConnectionSet.of(8, [1, 5])
        layers = decompose(s).for_prime(2)
        assert layers.valid_levels == (1,)
        assert layers.layer_sizes == (1, 2)
        ((_, tower),) = witness_towers(s)
        assert tower == tower_digraph(2, (2, 1))
        # the swapped tower is not isomorphic: its automorphism group is smaller
        assert automorphism_group(tower).cached_order == 64
        assert automorphism_group(tower_digraph(2, (1, 2))).cached_order == 32


class TestTranslationCheck:
    def test_block_example(self):
        assert translation_check(EXAMPLE_9, 3, 1) is True

    def test_digon_stack(self):
        assert translation_check(EXAMPLE_8, 2, 1) is True
        assert translation_check(EXAMPLE_8, 2, 2) is True

    def test_invalid_level_is_error(self):
        with pytest.raises(ValueError):
            translation_check(EXAMPLE_45, 3, 1)

    def test_checks_arcs_by_difference(self, monkeypatch):
        def no_digraph(self):
            raise AssertionError("translation_check built the digraph")

        monkeypatch.setattr(ConnectionSet, "digraph", no_digraph)
        assert translation_check(ConnectionSet.of(16, [1, 4, 5, 9, 13]), 2, 2) is True

    def test_soundness_link_random(self):
        # every valid level found by decompose admits the block-local
        # translations as honest digraph automorphisms
        rng = random.Random(61)
        checked = 0
        for _ in range(500):
            n = rng.randrange(4, 101)
            s = _random_instance(rng, n)
            d = decompose(s)
            for layers in d.per_prime:
                for level in layers.valid_levels:
                    assert translation_check(s, layers.p, level) is True
                    checked += 1
        assert checked > 100  # the sampler must actually exercise valid levels

    def test_monotone_under_coset_union(self):
        rng = random.Random(67)
        grown = 0
        for _ in range(200):
            n = rng.randrange(4, 101)
            s = _random_instance(rng, n)
            d = decompose(s)
            for layers in d.per_prime:
                for level in layers.valid_levels:
                    p, a = layers.p, layers.a
                    subgroup = subgroup_of_order(n, p**level)
                    envelope = subgroup_of_order(n, p**level * (n // p**a))
                    outside = [x for x in range(n) if x not in envelope]
                    if not outside:
                        continue
                    extra = rng.choice(outside)
                    bigger = ConnectionSet.of(n, set(s.members) | {(extra + t) % n for t in subgroup})
                    assert holds(bigger, p, level) is True
                    grown += 1
        assert grown > 50


@st.composite
def _instances(draw, max_n, max_size):
    """Connection sets at n a product of small primes up to max_n.

    S is a union of cosets of a small subgroup of Z_n around random bases, so
    that valid levels occur; |S| <= max_size.
    """
    n = 1
    for p in draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=40)):
        if n * p > max_n:
            break
        n *= p
    q = draw(st.sampled_from([q for q in (1, 2, 3, 4, 8) if n % q == 0 and q <= max_size]))
    bases = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=max_size // q))
    return ConnectionSet.of(n, {(x + k * (n // q)) % n for x in bases for k in range(q)})


def _unit(n, k):
    """The first unit of Z_n at or after k, cyclically."""
    return next(c for c in chain(range(k % n, n), range(n)) if gcd(c, n) == 1)


class TestInvariance:
    """decompose depends only on the digraph up to isomorphism, at any n."""

    @given(_instances(2**40, 8), st.integers(1, 2**40))
    def test_unit_multiple(self, s, k):
        c = _unit(s.n, k)
        assert decompose(ConnectionSet.of(s.n, {c * x % s.n for x in s.members})).per_prime == decompose(s).per_prime

    @given(_instances(2**40, 8))
    def test_negation(self, s):
        assert decompose(ConnectionSet.of(s.n, {-x % s.n for x in s.members})).per_prime == decompose(s).per_prime

    @given(_instances(64, 64))
    def test_complement(self, s):
        complement = ConnectionSet(s.n, frozenset(range(s.n)) - s.members)
        assert decompose(complement).per_prime == decompose(s).per_prime


class TestReport:
    def test_json_schema(self):
        report = analysis_report(EXAMPLE_45)
        assert set(report) == {
            "n", "S", "arithmetic_condition", "per_prime", "minimal_group", "realizable", "exact",
        }
        assert report["n"] == 45
        assert report["S"] == [0, 1, 15, 30]
        assert report["minimal_group"] == "Z9xZ5"
        assert report["realizable"] == ["Z9xZ5"]
        assert report["exact"] is True
        assert report["per_prime"][0] == {"p": 3, "a": 2, "valid_levels": [], "layers": [2]}
        json.dumps(report)  # serializable

    @pytest.mark.parametrize("p,q,max_a,max_b", [(2, None, 10, 0), (3, None, 10, 0), (2, 3, 5, 3), (2, 5, 4, 2)])
    def test_realizable_is_the_up_set_in_its_order(self, p, q, max_a, max_b):
        # every minimal partition of a <= max_a at p, times every one of b <= max_b at q
        others = [None] if q is None else [
            tower_connection_set(q, mu) for b in range(1, max_b + 1) for mu in partitions(b)
        ]
        for a in range(1, max_a + 1):
            for lam in partitions(a):
                for other in others:
                    s = _tower_product(tower_connection_set(p, lam), other)
                    report = analysis_report(s)
                    minimal = decompose(s).minimal_group()
                    assert minimal.sylow_for(p).parts == tuple(sorted(lam, reverse=True))
                    assert report["minimal_group"] == minimal.text()
                    assert report["realizable"] == [g.text() for g in up_set(minimal)], s

    @pytest.mark.parametrize(
        "text", ["n=1048576; S=1", "n=1048576; S=0", "n=999999999989; S=1", "n=45; S=0,1,15,30"]
    )
    def test_factorizes_n_once_whatever_the_levels(self, text, monkeypatch):
        # in decompose; the gcd condition and the up-set read the primes off its factorization
        s, _ = analyzer._parse_literal(text)
        calls = []

        def counted(m):
            calls.append(m)
            return factorize(m)

        for module in (analyzer, arith, abelian):
            monkeypatch.setattr(module, "factorize", counted)
        analysis_report(s)
        assert calls == [s.n]


def _random_instance(rng, n):
    """Mix plain random sets with coset-built ones so valid levels occur."""
    if rng.random() < 0.5:
        return ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, 10))})
    factors = [(p, a) for p, a in factorize(n).factors if a >= 2]
    if not factors:
        return ConnectionSet.of(n, {rng.randrange(n) for _ in range(rng.randrange(0, 10))})
    p, a = rng.choice(factors)
    level = rng.randrange(1, a)
    subgroup = sorted(subgroup_of_order(n, p**level))
    envelope = subgroup_of_order(n, p**level * (n // p**a))
    members = {x for x in envelope if rng.random() < 0.4}
    for _ in range(rng.randrange(0, 4)):
        base = rng.randrange(n)
        members |= {(base + t) % n for t in subgroup}
    return ConnectionSet.of(n, members)


def _sparse_coset_union(rng, n):
    """At most 8 members: the cosets of a small subgroup around multiples of a random divisor of n."""
    q = rng.choice([q for q in (1, 2, 3, 4, 5, 8) if n % q == 0])
    scale = gcd(n, 2 ** rng.randrange(23) * 3 ** rng.randrange(14) * 5 ** rng.randrange(10))
    starts = [scale * rng.randrange(n // scale) for _ in range(rng.randint(1, 8 // q))]
    return ConnectionSet.of(n, {(x + k * (n // q)) % n for x in starts for k in range(q)})


def _tower_product(first, second):
    """Cay(Z_m, A) x Cay(Z_k, B) as one circulant on Z_mk by the Chinese remainder theorem
    (gcd(m, k) = 1), or Cay(Z_m, A) alone when second is None.

    A member's residue mod m is in A and mod k in B, so the coset condition
    at each prime of m is A's and at each prime of k is B's.
    """
    m, a = first
    if second is None:
        return ConnectionSet(m, a)
    k, b = second
    n = m * k
    e = k * pow(k, -1, m)  # 1 mod m, 0 mod k
    f = m * pow(m, -1, k)  # 0 mod m, 1 mod k
    return ConnectionSet.of(n, {(x * e + y * f) % n for x in a for y in b})
