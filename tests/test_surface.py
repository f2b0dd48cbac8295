"""The package's public surface: every export resolves, removed names stay removed, the
records keep their value semantics, and importing the CLI loads no dataclasses."""

import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import circulant
from circulant import _refine, abelian
from circulant.abelian import AbelianType
from circulant.oracle import ValidationReport, regular_abelian_types
from circulant.analyzer import ConnectionSet, LayerDecomposition, PrimeLayers
from circulant.permgroup import PermGroup, automorphism_group, is_nilpotent, two_closure
from circulant.digraph import cayley_digraph

# Names with no caller in the analyzer, the oracle or the CLI, by defining module.
REMOVED_FUNCTIONS = [
    ("abelian", "PPartition"),  # a Sylow subgroup is AbelianType's (p, parts) pair
    ("abelian", "partitions"),  # enumerate_abelian walks up from 1^a; brute.brute_partitions is the reference
    ("abelian", "preceq"),
    ("abelian", "preceq_p"),
    ("abelian", "_up_closure"),  # _dominating lists an up-set in lexicographic order, no cover BFS
    ("abelian", "_up_closures"),  # _cap_up_set counts, and each caller walks with its own piece
    ("analyzer", "coset_condition"),  # level in decompose(s).for_prime(p).valid_levels
    ("analyzer", "minimal_group"),  # decompose(s).minimal_group()
    ("analyzer", "_prime_exponent"),  # translation_check reads a off factorize(n)
    ("analyzer", "parse_connection_set"),  # the CLI reads literals with _parse_literal
    ("analyzer", "subgroup_of_order"),  # no caller in src/; brute.subgroup_of_order builds P and W for tests
    ("analyzer", "_up_set_texts"),  # abelian.up_set_texts, called by LayerDecomposition.realizable
    ("arith", "euler_phi"),
    ("arith", "arithmetic_condition"),  # LayerDecomposition.arithmetic_condition()
    ("arith", "big_omega"),  # _tower_factors tests primality on factorize(p)
    ("arith", "Factorization"),  # factorize returns its (p, a) pairs
    ("cli", "_COMMANDS"),  # each subcommand's parser sets its runner as the run default
    ("cli", "_verdict_exit"),  # _run_verify keeps the exit code as it answers each line
    ("digraph", "digraph"),
    ("digraph", "Digraph"),  # a digraph is the adjacency matrix the engine reads
    ("digraph", "empty_digraph"),
    ("digraph", "complete_digraph"),
    ("digraph", "directed_cycle"),
    ("digraph", "parse_edge_list"),
    ("digraph", "wreath"),  # tower_arcs relabels the tower circulant; brute.wreath is the reference
    ("digraph", "tower_digraph"),  # matrix(*tower_arcs(p, layers)) in tests; brute.wreath_tower is the reference
    ("permgroup", "ArcColoring"),
    ("permgroup", "circulant_coloring"),
    ("permgroup", "rotation"),  # PermGroup.cyclic(n).generators[0]
    ("permgroup", "Permutation"),  # a permutation is its image tuple
    ("oracle", "_tower_row"),
    ("oracle", "_uniform_pools"),  # regular_abelian_types pools the closure inline
]

# An owner given by name is a class deleted from the module that REMOVED_FUNCTIONS names for it;
# its methods stay gone with it.
REMOVED_METHODS = [
    ("Permutation", "from_cycles"),
    ("Permutation", "has_fixed_point"),
    (PermGroup, "symmetric"),
    (PermGroup, "trivial"),
    (PermGroup, "orbits"),  # is_transitive reads the orbit of 0
    (PermGroup, "_elements"),  # elements() is not memoized
    ("Permutation", "identity"),
    ("Factorization", "primes"),  # its one caller was arith.arithmetic_condition
    (PrimeLayers, "minimal_sylow"),  # its one caller was LayerDecomposition.minimal_group
    (_refine.Circulant, "_rows"),  # the view is an input format; it caches no row
    (AbelianType, "sylow_for"),  # dict(g.sylow)[p]
    (AbelianType, "order"),  # no caller under src/; brute.group_order is the tests' reference
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
        (module,) = [m for m, n in REMOVED_FUNCTIONS if n == owner]
        owner = getattr(importlib.import_module(f"circulant.{module}"), owner, None)
    assert not hasattr(owner, name)


def test_group_elements_are_plain_tuples():
    group = automorphism_group(cayley_digraph(6, {1, 2}))
    for g in group.generators + group.elements():
        assert type(g) is tuple and sorted(g) == list(range(6))


def test_digraphs_are_matrices():
    # a Cayley digraph is the engine's view of its adjacency row
    d = cayley_digraph(6, {1, 2})
    assert type(d) is _refine.Circulant and d.row == (0, 1, 1, 0, 0, 0)


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
    parser, _ = cli.build_parser()
    argvs = {
        "analyze": ["analyze", "n=8;S=4"], "decompose": ["decompose", "n=8;S=4"], "witness": ["witness", "n=8;S=4"],
        "generate": ["generate", "--p", "2", "--layers", "1"], "verify": ["verify"], "poset": ["poset", "8"],
    }
    for name, argv in argvs.items():
        assert parser.parse_args(argv).run is getattr(cli, f"_run_{name}"), name


def test_factorization_is_not_exported():
    # factorize returns plain (p, a) pairs, and the deleted class is no export either
    assert "Factorization" not in circulant.__all__
    assert not hasattr(circulant, "Factorization")


@pytest.mark.parametrize("function,params", [
    (two_closure, ["group"]),
    (is_nilpotent, ["group"]),
    (PermGroup.order, ["self"]),
    (PermGroup.cyclic, ["n"]),  # folds in what was permgroup.rotation
    (regular_abelian_types, ["group", "cap"]),  # n is the group's degree
    (_refine.refine, ["colors", "codes", "point"]),  # refinement and search read the pair codes alone
    (_refine._refine_joint, ["colorings", "codes", "points"]),  # every class, or one point per coloring individualized
    (_refine.iso_search, ["colors", "x", "y", "codes"]),
    (_refine._pair_codes, ["m"]),  # a circulant's codes come from _convolution
    (abelian._dominating_count, ["parts"]),  # the cap is GROUP_LIST_CAP, read at call time
])
def test_options_no_caller_sets_are_gone(function, params):
    assert list(inspect.signature(function).parameters) == params


def test_cli_import_loads_no_dataclasses():
    # pytest itself imports dataclasses, so a fresh interpreter imports the CLI
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, circulant.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


_LAYERS = PrimeLayers(2, 3, (1,), (2, 1))
# (class, fields, repr): each record's fields as its __init__ takes them, and the repr they give
RECORDS = [
    (AbelianType, (((2, (2, 1)), (3, (1,))),), "AbelianType(sylow=((2, (2, 1)), (3, (1,))))"),
    (ConnectionSet, (8, frozenset({1})), "ConnectionSet(n=8, members=frozenset({1}))"),
    (PrimeLayers, (2, 3, (1,), (2, 1)), "PrimeLayers(p=2, a=3, valid_levels=(1,), layer_sizes=(2, 1))"),
    (LayerDecomposition, (8, (_LAYERS,)),
     "LayerDecomposition(n=8, per_prime=(PrimeLayers(p=2, a=3, valid_levels=(1,), layer_sizes=(2, 1)),))"),
    (ValidationReport, (8, (1,), ("Z8",), ("Z8",), "exact-match", 8, None, "regular"),
     "ValidationReport(n=8, s=(1,), predicted=('Z8',), actual=('Z8',), verdict='exact-match', aut_order=8,"
     " capped_by=None, path='regular')"),
    (PermGroup, (4, ((1, 2, 3, 0),), 4), "PermGroup(degree=4, generators=((1, 2, 3, 0),), cached_order=4)"),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_parity(cls, fields, text):
    record = cls(*fields)
    names = list(inspect.signature(cls).parameters)
    assert cls(**dict(zip(names, fields))) == record == cls(*fields)
    assert not record != cls(*fields)
    for other_cls, other_fields, _ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(*other_fields)
    assert record != fields and fields != record
    assert repr(record) == text
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    assert copy.deepcopy(record) == record
    assert hash(record) == hash(cls(*fields))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*fields)


@pytest.mark.parametrize("build,message", [
    (lambda: AbelianType(((3, (1,)), (2, (1,)))), "sylow parts must be sorted by distinct primes: [3, 2]"),
    (lambda: AbelianType(((3, (1,)), (3, (2,)))), "sylow parts must be sorted by distinct primes: [3, 3]"),
    (lambda: AbelianType(((2, (1,)), (3, (1, 0)))), "parts must be positive and nonempty: (1, 0)"),
    (lambda: AbelianType(((3, ()),)), "parts must be positive and nonempty: ()"),
    (lambda: AbelianType(((3, (1, 2)),)), "parts must be non-increasing: (1, 2)"),
    (lambda: ConnectionSet(0, frozenset()), "modulus must be positive, got 0"),
    (lambda: ConnectionSet(8, frozenset({3, 8})), "element 8 out of range for Z_8"),
    (lambda: ConnectionSet(8, frozenset({-1})), "element -1 out of range for Z_8"),
    (lambda: PermGroup(3, [(0, 1, 2), (0, 0, 1)]), "not a permutation of 0..2: (0, 0, 1)"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
