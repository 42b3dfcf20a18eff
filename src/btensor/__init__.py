"""Structured tensor classes, decompositions, and eigenvalue localization.

The package classifies dense real tensors into the B / doubly-B / Z /
diagonally-dominated families, constructs the Z-plus-nonnegative
splittings those classes admit, computes localization intervals for real
eigenvalues and H-eigenvalues, and cross-checks the intervals with a
desk-scale eigenpair oracle.

All operations are pure functions of immutable inputs and are safe to
call concurrently; results are deterministic for identical arguments.

``import btensor`` loads none of the layer modules.  Each public name
resolves on first access (PEP 562): the module that defines it is
imported then, and the name is bound here, so ``btensor.classify`` is
``btensor.classes.classify``.  A cold ``classify`` thus never compiles
the oracle, the splits or the intervals.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name with the module that defines it.
_MODULE_OF = (
    dict.fromkeys(("ClassReport", "a_plus", "check_f_b", "check_f_doubly_b", "classify",
                   "f_transform", "is_b", "is_b0", "is_doubly_b", "is_sdd", "is_sddd", "is_z"),
                  "classes")
    | dict.fromkeys(("DEFAULT_ENTRY_CAP", "RowStats", "Tensor", "contract", "is_symmetric",
                     "polyeval", "principal_subtensor", "row_stats"), "core")
    | dict.fromkeys(("Decomposition", "decompose_b", "decompose_doubly_b"), "decompose")
    | dict.fromkeys(("DefinitenessVerdict", "Hypergraph", "Interval", "IntervalUnion",
                     "definiteness", "intervals_even_symmetric", "intervals_gerschgorin",
                     "intervals_odd_or_n2", "intervals_z", "laplacian_bounds",
                     "laplacian_tensor"), "eigenloc")
    | dict.fromkeys(("BTensorError", "ClassViolationError", "DegenerateMarginError",
                     "InputError", "InternalError", "PreconditionError"), "errors")
    | dict.fromkeys(("EigenPair", "SearchCounts", "eigen_search", "eigenpairs_n2", "residual",
                     "search_report"), "oracle")
)

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _MODULE_OF.values():  # a layer module, as ``btensor.core``
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
