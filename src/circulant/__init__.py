"""Decide which abelian groups of order n a circulant digraph Cay(Z_n, S) realizes.

The analyzer reads the answer off coset conditions on the connection set; the
oracle cross-checks it by brute-force search for regular abelian subgroups of
the automorphism group at desk scale.
"""

from .abelian import (
    AbelianType,
    enumerate_abelian,
    hasse_edges,
    up_set,
)
from .analyzer import (
    ConnectionSet,
    LayerDecomposition,
    PrimeLayers,
    analysis_report,
    decompose,
    product_type_witness,
    realizable_groups,
    translation_check,
)
from .arith import factorize
from .digraph import cayley_digraph, tower_connection_set, tower_digraph
from .errors import CapacityError
from .oracle import ValidationReport, cross_validate, regular_abelian_types
from .permgroup import (
    PermGroup,
    automorphism_group,
    direct_product,
    is_nilpotent,
    two_closure,
    wreath_product,
)

__all__ = [
    "AbelianType",
    "CapacityError",
    "ConnectionSet",
    "LayerDecomposition",
    "PermGroup",
    "PrimeLayers",
    "ValidationReport",
    "analysis_report",
    "automorphism_group",
    "cayley_digraph",
    "cross_validate",
    "decompose",
    "direct_product",
    "enumerate_abelian",
    "factorize",
    "hasse_edges",
    "is_nilpotent",
    "product_type_witness",
    "realizable_groups",
    "regular_abelian_types",
    "tower_connection_set",
    "tower_digraph",
    "translation_check",
    "two_closure",
    "up_set",
    "wreath_product",
]
