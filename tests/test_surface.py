"""The package's public surface: every export resolves, and removed names stay removed."""

import importlib
import inspect

import pytest

import circulant
from circulant.permgroup import ArcColoring, PermGroup, Permutation, is_nilpotent, rotation, two_closure

# Functions with no caller in the analyzer, the oracle or the CLI, by defining module.
REMOVED_FUNCTIONS = [
    ("abelian", "preceq"),
    ("abelian", "preceq_p"),
    ("arith", "euler_phi"),
    ("digraph", "digraph"),
    ("digraph", "empty_digraph"),
    ("digraph", "complete_digraph"),
    ("digraph", "directed_cycle"),
    ("digraph", "parse_edge_list"),
]

REMOVED_METHODS = [
    (Permutation, "from_cycles"),
    (Permutation, "has_fixed_point"),
    (PermGroup, "symmetric"),
    (PermGroup, "trivial"),
    (ArcColoring, "matrix"),
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
    assert not hasattr(owner, name)


def test_factorization_is_not_exported():
    # factorize still returns one, but the class is no export of its own
    assert "Factorization" not in circulant.__all__
    assert not hasattr(circulant, "Factorization")


@pytest.mark.parametrize("function,params", [
    (two_closure, ["group"]),
    (is_nilpotent, ["group"]),
    (PermGroup.order, ["self"]),
    (rotation, ["n"]),
])
def test_options_no_caller_sets_are_gone(function, params):
    assert list(inspect.signature(function).parameters) == params
