"""The package's public surface: every export resolves, and removed names stay removed."""

import importlib
import inspect
from pathlib import Path

import pytest

import circulant
from circulant import _refine
from circulant.abelian import AbelianType
from circulant.arith import Factorization
from circulant.oracle import regular_abelian_types
from circulant.analyzer import PrimeLayers
from circulant.permgroup import PermGroup, automorphism_group, is_nilpotent, two_closure
from circulant.digraph import cayley_digraph, tower_digraph

# Names with no caller in the analyzer, the oracle or the CLI, by defining module.
REMOVED_FUNCTIONS = [
    ("abelian", "PPartition"),  # a Sylow subgroup is AbelianType's (p, parts) pair
    ("abelian", "partitions"),  # enumerate_abelian walks up from 1^a; brute.brute_partitions is the reference
    ("abelian", "preceq"),
    ("abelian", "preceq_p"),
    ("analyzer", "coset_condition"),  # level in decompose(s).for_prime(p).valid_levels
    ("analyzer", "minimal_group"),  # decompose(s).minimal_group()
    ("analyzer", "_prime_exponent"),  # translation_check reads a off decompose(s).for_prime(p)
    ("analyzer", "parse_connection_set"),  # the CLI reads literals with _parse_literal
    ("arith", "euler_phi"),
    ("arith", "arithmetic_condition"),  # LayerDecomposition.arithmetic_condition()
    ("arith", "big_omega"),  # _tower_factors tests primality on factorize(p)
    ("cli", "_COMMANDS"),  # each subcommand's parser sets its runner as the run default
    ("digraph", "digraph"),
    ("digraph", "Digraph"),  # a digraph is the adjacency matrix the engine reads
    ("digraph", "empty_digraph"),
    ("digraph", "complete_digraph"),
    ("digraph", "directed_cycle"),
    ("digraph", "parse_edge_list"),
    ("digraph", "wreath"),  # tower_digraph relabels the tower circulant; brute.wreath is the reference
    ("permgroup", "ArcColoring"),
    ("permgroup", "circulant_coloring"),
    ("permgroup", "rotation"),  # PermGroup.cyclic(n).generators[0]
    ("permgroup", "Permutation"),  # a permutation is its image tuple
    ("oracle", "_tower_row"),
    ("oracle", "_uniform_pools"),  # regular_abelian_types pools the closure inline
]

# An owner given by name is a class deleted from circulant.permgroup; its methods stay gone with it.
REMOVED_METHODS = [
    ("Permutation", "from_cycles"),
    ("Permutation", "has_fixed_point"),
    (PermGroup, "symmetric"),
    (PermGroup, "trivial"),
    (PermGroup, "orbits"),  # is_transitive reads the orbit of 0
    (PermGroup, "_elements"),  # elements() is not memoized
    ("Permutation", "identity"),
    (Factorization, "primes"),  # its one caller was arith.arithmetic_condition
    (PrimeLayers, "minimal_sylow"),  # its one caller was LayerDecomposition.minimal_group
    (_refine.Circulant, "_rows"),  # the view is an input format; it caches no row
    (AbelianType, "sylow_for"),  # dict(g.sylow)[p]
]


def test_every_export_resolves():
    assert len(set(circulant.__all__)) == len(circulant.__all__)
    for name in circulant.__all__:
        assert hasattr(circulant, name), name


@pytest.mark.parametrize("module,name", REMOVED_FUNCTIONS)
def test_removed_function_is_gone(module, name):
    assert not hasattr(importlib.import_module(f"circulant.{module}"), name)
    assert name not in circulant.__all__
    found = getattr(circulant, name, None)
    assert found is None or inspect.ismodule(found)  # circulant.digraph is the submodule


@pytest.mark.parametrize("owner,name", REMOVED_METHODS)
def test_removed_method_is_gone(owner, name):
    if isinstance(owner, str):
        owner = getattr(importlib.import_module("circulant.permgroup"), owner, None)
    assert not hasattr(owner, name)


def test_group_elements_are_plain_tuples():
    group = automorphism_group(cayley_digraph(6, {1, 2}))
    for g in group.generators + group.elements():
        assert type(g) is tuple and sorted(g) == list(range(6))


def test_digraphs_are_matrices():
    # a Cayley digraph is the engine's view of its adjacency row, a tower its dense rows
    d = cayley_digraph(6, {1, 2})
    assert type(d) is _refine.Circulant and d.row == (0, 1, 1, 0, 0, 0)
    tower = tower_digraph(2, (1, 1))
    assert type(tower) is list and all(type(row) is list for row in tower)


def test_benchmark_patch_points_resolve(monkeypatch):
    # perfbench's tracer replaces each name in its owner's __dict__, where the
    # caller looks it up: a rename under src/ fails here, not in the benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    importlib.import_module("circulant.cli")  # the tracer finds each owner in sys.modules
    required = [(where, attr) for where, attr, name in tracing.PATCH_POINTS if name not in tracing.OPTIONAL_SPANS]
    for where, attr in required:
        assert attr in tracing._resolve(where).__dict__, (where, attr)


def test_abelian_type_has_no_str_of_its_own():
    # every caller prints a type with .text(); object's __str__ is always there
    assert "__str__" not in AbelianType.__dict__


def test_orbital_coloring_is_not_exported():
    # its one caller is two_closure; tests still reach it in its module
    assert "orbital_coloring" not in circulant.__all__
    assert not hasattr(circulant, "orbital_coloring")
    assert callable(importlib.import_module("circulant.permgroup").orbital_coloring)


def test_cli_command_table_is_argparse_own():
    cli = importlib.import_module("circulant.cli")
    _, commands = cli.build_parser()
    assert set(commands) == {"analyze", "decompose", "witness", "generate", "verify", "poset"}
    for name, parser in commands.items():
        assert parser.get_default("run") is getattr(cli, f"_run_{name}"), name


def test_factorization_is_not_exported():
    # factorize still returns one, but the class is no export of its own
    assert "Factorization" not in circulant.__all__
    assert not hasattr(circulant, "Factorization")


@pytest.mark.parametrize("function,params", [
    (two_closure, ["group"]),
    (is_nilpotent, ["group"]),
    (PermGroup.order, ["self"]),
    (PermGroup.cyclic, ["n"]),  # folds in what was permgroup.rotation
    (regular_abelian_types, ["group", "cap"]),  # n is the group's degree
    (_refine.refine, ["colors", "codes", "point"]),  # refinement and search read the pair codes alone
    (_refine._refine_joint, ["colorings", "codes"]),
    (_refine.iso_search, ["colors", "x", "y", "codes"]),
    (_refine._pair_codes, ["m"]),  # a circulant's codes come from _convolution
])
def test_options_no_caller_sets_are_gone(function, params):
    assert list(inspect.signature(function).parameters) == params
