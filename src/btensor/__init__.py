"""Structured tensor classes, decompositions, and eigenvalue localization.

The package classifies dense real tensors into the B / doubly-B / Z /
diagonally-dominated families, constructs the Z-plus-nonnegative
splittings those classes admit, computes localization intervals for real
eigenvalues and H-eigenvalues, and cross-checks the intervals with a
desk-scale eigenpair oracle.

All operations are pure functions of immutable inputs and are safe to
call concurrently; results are deterministic for identical arguments.
"""

from .classes import (
    ClassReport,
    a_plus,
    check_f_b,
    check_f_doubly_b,
    classify,
    f_transform,
    is_b,
    is_b0,
    is_doubly_b,
    is_sdd,
    is_sddd,
    is_z,
)
from .core import (
    DEFAULT_ENTRY_CAP,
    RowStats,
    Tensor,
    contract,
    is_symmetric,
    polyeval,
    principal_subtensor,
    row_stats,
)
from .decompose import Decomposition, decompose_b, decompose_doubly_b
from .eigenloc import (
    DefinitenessVerdict,
    Hypergraph,
    Interval,
    IntervalUnion,
    definiteness,
    intervals_even_symmetric,
    intervals_gerschgorin,
    intervals_odd_or_n2,
    intervals_z,
    laplacian_bounds,
    laplacian_tensor,
)
from .errors import (
    BTensorError,
    ClassViolationError,
    DegenerateMarginError,
    InputError,
    InternalError,
    PreconditionError,
)
from .oracle import EigenPair, SearchCounts, eigen_search, eigenpairs_n2, residual, search_report

__version__ = "0.1.0"

__all__ = [
    "BTensorError",
    "ClassReport",
    "ClassViolationError",
    "DEFAULT_ENTRY_CAP",
    "Decomposition",
    "DefinitenessVerdict",
    "DegenerateMarginError",
    "EigenPair",
    "Hypergraph",
    "InputError",
    "InternalError",
    "Interval",
    "IntervalUnion",
    "PreconditionError",
    "RowStats",
    "SearchCounts",
    "Tensor",
    "a_plus",
    "check_f_b",
    "check_f_doubly_b",
    "classify",
    "contract",
    "decompose_b",
    "decompose_doubly_b",
    "definiteness",
    "eigen_search",
    "eigenpairs_n2",
    "f_transform",
    "intervals_even_symmetric",
    "intervals_gerschgorin",
    "intervals_odd_or_n2",
    "intervals_z",
    "is_b",
    "is_b0",
    "is_doubly_b",
    "is_sdd",
    "is_sddd",
    "is_symmetric",
    "is_z",
    "laplacian_bounds",
    "laplacian_tensor",
    "polyeval",
    "principal_subtensor",
    "residual",
    "row_stats",
    "search_report",
]
