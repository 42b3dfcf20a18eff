"""Membership predicates for structured tensor classes and their transforms.

Covered classes: Z-tensors, B-tensors, B0-tensors, doubly B-tensors, and
strictly (doubly) diagonally dominated tensors, plus the two transforms
that mediate between them: the row-wise shift ``a_plus`` (subtract each
row's r_plus from the whole row, always producing a Z-tensor) and the
diagonal-sign row flip ``f_transform``.

Strict inequalities are evaluated exactly on the stored floats, with no
tolerance: class membership is a discrete fact about the stored values.
Witnesses carry a ``margin`` field (lhs - rhs) for callers who care about
closeness.

Note: a competing definition of doubly diagonal dominance exists in the
literature that adds a per-row constraint; only the pairwise-product form
is implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tensor, row_stats
from .errors import InternalError

FLAG_NAMES = ("Z", "B", "B0", "doublyB", "SDD", "SDDD", "F_B", "F_doublyB")


@dataclass(frozen=True)
class ClassReport:
    """Result of running every predicate once on shared row statistics.

    ``flags`` maps each class name to a boolean; ``witnesses`` holds, for
    each false flag, the first failing row or row pair together with both
    sides of the violated inequality.
    """

    flags: dict
    witnesses: dict

    def to_json_dict(self):
        return {"flags": dict(self.flags), "witnesses": dict(self.witnesses)}


def _row_witness(i, lhs, rhs):
    return {"row": int(i) + 1, "lhs": float(lhs), "rhs": float(rhs),
            "margin": float(lhs - rhs)}


def _pair_witness(i, j, lhs, rhs):
    return {"pair": [int(i) + 1, int(j) + 1], "lhs": float(lhs), "rhs": float(rhs),
            "margin": float(lhs - rhs)}


def _first_failing_row(lhs, rhs, strict=True):
    bad = lhs <= rhs if strict else lhs < rhs
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return _row_witness(i, lhs[i], rhs[i])


def _first_failing_pair(lhs, rhs, strict=True):
    """First ordered pair i < j violating an outer-product inequality."""
    n = lhs.shape[0]
    left = np.outer(lhs, lhs)
    right = np.outer(rhs, rhs)
    bad = left <= right if strict else left < right
    bad[np.diag_indices(n)] = False
    if not bad.any():
        return None
    i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return _pair_witness(i, j, left[i, j], right[i, j])


def _z_witness(stats):
    # r_plus is zero exactly when every off-diagonal entry is <= 0.
    if np.all(stats.r_plus == 0.0):
        return None
    i = int(np.argmax(stats.r_plus > 0.0))
    return _row_witness(i, stats.r_plus[i], 0.0)


def _b_witness(stats, strict=True):
    return _first_failing_row(stats.row_sum, stats.width * stats.r_plus, strict=strict)


def _sdd_witness(stats):
    return _first_failing_row(stats.diag, stats.off_diag_abs_sum)


def _sddd_witness(stats):
    bad_diag = _first_failing_row(stats.diag, np.zeros(stats.diag.shape[0]))
    if bad_diag is not None:
        return bad_diag
    return _first_failing_pair(stats.diag, stats.off_diag_abs_sum)


def _doubly_b_witness(stats):
    bad_row = _first_failing_row(stats.diag, stats.r_plus)
    if bad_row is not None:
        return bad_row
    return _first_failing_pair(stats.diag - stats.r_plus, stats.upper_deficit)


def _f_checks(stats):
    """Shared inequalities characterizing when the sign-flipped tensor is (doubly) B."""
    r = stats.r_signed
    diag_ok = _first_failing_row(np.abs(stats.diag), np.abs(r))
    gaps = np.abs(stats.diag - r)
    return diag_ok, gaps


def _f_b_witness(stats):
    diag_bad, gaps = _f_checks(stats)
    if diag_bad is not None:
        return diag_bad
    return _first_failing_row(gaps, stats.signed_deficit)


def _f_doubly_b_witness(stats):
    diag_bad, gaps = _f_checks(stats)
    if diag_bad is not None:
        return diag_bad
    return _first_failing_pair(gaps, stats.signed_deficit)


def is_z(A: Tensor) -> bool:
    """True when every off-diagonal entry is nonpositive."""
    return _z_witness(row_stats(A)) is None


def is_b(A: Tensor) -> bool:
    """True when every row sum strictly exceeds n**(m-1) times the row's r_plus."""
    return _b_witness(row_stats(A)) is None


def is_b0(A: Tensor) -> bool:
    """Non-strict variant of :func:`is_b` (>= instead of >)."""
    return _b_witness(row_stats(A), strict=False) is None


def is_doubly_b(A: Tensor) -> bool:
    """True when each diagonal exceeds its r_plus and, for every row pair,
    the product of the diagonal gaps exceeds the product of the row
    deficit sums."""
    return _doubly_b_witness(row_stats(A)) is None


def is_sdd(A: Tensor) -> bool:
    """True when each diagonal strictly exceeds the row's absolute off-diagonal sum."""
    return _sdd_witness(row_stats(A)) is None


def is_sddd(A: Tensor) -> bool:
    """True when diagonals are positive and every pairwise product of
    diagonals exceeds the product of the absolute off-diagonal sums."""
    return _sddd_witness(row_stats(A)) is None


def a_plus(A: Tensor) -> Tensor:
    """Subtract each row's r_plus from every entry of that row.

    The result is always a Z-tensor, and it preserves membership in the
    B and doubly-B classes in both directions.
    """
    stats = row_stats(A)
    shift = stats.r_plus.reshape((A.dim,) + (1,) * (A.order - 1))
    return Tensor.from_array(A.array - shift)


def f_transform(A: Tensor) -> Tensor:
    """Scale each row slice by the sign of its diagonal entry.

    Rows with a zero diagonal become zero rows.
    """
    stats = row_stats(A)
    signs = np.sign(stats.diag).reshape((A.dim,) + (1,) * (A.order - 1))
    return Tensor.from_array(signs * A.array)


def check_f_b(A: Tensor) -> bool:
    """Equivalent to ``is_b(f_transform(A))``, via direct inequalities on r_signed."""
    return _f_b_witness(row_stats(A)) is None


def check_f_doubly_b(A: Tensor) -> bool:
    """Equivalent to ``is_doubly_b(f_transform(A))``, via direct inequalities."""
    return _f_doubly_b_witness(row_stats(A)) is None


def classify(A: Tensor) -> ClassReport:
    """Run every predicate once on shared row statistics.

    Witnesses are recorded for each false flag.  The flag combination is
    validated against the known implications between classes before the
    report is returned.
    """
    stats = row_stats(A)
    checks = {
        "Z": _z_witness(stats),
        "B": _b_witness(stats),
        "B0": _b_witness(stats, strict=False),
        "doublyB": _doubly_b_witness(stats),
        "SDD": _sdd_witness(stats),
        "SDDD": _sddd_witness(stats),
        "F_B": _f_b_witness(stats),
        "F_doublyB": _f_doubly_b_witness(stats),
    }
    flags = {name: checks[name] is None for name in FLAG_NAMES}
    witnesses = {name: w for name, w in checks.items() if w is not None}
    _validate_flags(flags)
    return ClassReport(flags=flags, witnesses=witnesses)


def _validate_flags(flags):
    rules = [
        (flags["B"] and not flags["doublyB"], "B implies doublyB"),
        (flags["SDD"] and not flags["SDDD"], "SDD implies SDDD"),
        (flags["B"] and not flags["B0"], "B implies B0"),
        (flags["Z"] and flags["B"] != flags["SDD"], "on Z-tensors B and SDD agree"),
        (flags["Z"] and flags["doublyB"] != flags["SDDD"],
         "on Z-tensors doublyB and SDDD agree"),
    ]
    for violated, rule in rules:
        if violated:
            raise InternalError(f"inconsistent class flags ({rule}): {flags}")
