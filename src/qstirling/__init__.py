"""Quasi-Stirling words on multisets and everything attached to them.

A word over the multiset {1^k_1, ..., n^k_n} is quasi-Stirling when no
two distinct values interleave as a b a b. The package enumerates these
words, the ordered labeled trees they correspond to, and the maps
between them; tracks the ascent/descent/plateau statistics through
every map; recodes the one-repeated-value families as injective partial
maps with their excedances; and computes the counting polynomials by
exact integer coefficient extraction, which enumeration cross-checks.
The qstirling command line fronts the same operations.
"""

from .bijections import (
    big_phi,
    big_phi_inv,
    big_psi,
    check_perm_tuple,
    enumerate_perm_tuples,
    flattened_spec,
    max_descent_decompose,
    perm_tuple_from_text,
    perm_tuple_to_text,
    phi,
    phi_inv,
    psi,
    psi_inv,
    transport,
    zeta,
    zeta_inv,
)
from .core import (
    MultisetSpec,
    StatTriple,
    complement,
    enumerate_qs,
    is_quasi_stirling,
    is_stirling,
    qs_count,
    qs_polynomial,
    stats,
    word_from_text,
    word_spec,
    word_to_text,
)
from .exactpoly import PolyTUV, SeriesT
from .excedance import (
    PartialInj,
    PathCycleRep,
    chi,
    chi_inv,
    delta,
    delta_inv,
    enumerate_J,
    exc,
    from_path_cycle,
    parse_path_cycle,
    render_path_cycle,
    to_path_cycle,
)
from .genfun import (
    descent_series_coefficients,
    eulerian,
    eulerian_series,
    max_descent_count,
    perm_tuple_polynomial,
    perm_tuple_polynomial_formula,
    qs_polynomial_from_series,
)
from .trees import (
    TreeStats,
    enumerate_trees,
    infer_spec,
    parse_tree,
    render_tree,
    tree_stats,
    tree_violation,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "MultisetSpec",
    "PartialInj",
    "PathCycleRep",
    "PolyTUV",
    "SeriesT",
    "StatTriple",
    "TreeStats",
    "big_phi",
    "big_phi_inv",
    "big_psi",
    "check_perm_tuple",
    "chi",
    "chi_inv",
    "complement",
    "delta",
    "delta_inv",
    "descent_series_coefficients",
    "enumerate_J",
    "enumerate_perm_tuples",
    "enumerate_qs",
    "enumerate_trees",
    "eulerian",
    "eulerian_series",
    "exc",
    "flattened_spec",
    "from_path_cycle",
    "infer_spec",
    "is_quasi_stirling",
    "is_stirling",
    "max_descent_count",
    "max_descent_decompose",
    "parse_path_cycle",
    "parse_tree",
    "perm_tuple_from_text",
    "perm_tuple_polynomial",
    "perm_tuple_polynomial_formula",
    "perm_tuple_to_text",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
    "qs_count",
    "qs_polynomial",
    "qs_polynomial_from_series",
    "render_path_cycle",
    "render_tree",
    "stats",
    "to_path_cycle",
    "transport",
    "tree_stats",
    "tree_violation",
    "validate_tree",
    "word_from_text",
    "word_spec",
    "word_to_text",
    "zeta",
    "zeta_inv",
]
