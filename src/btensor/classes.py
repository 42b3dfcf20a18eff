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

Each inequality has one float expression: F_B and F_doublyB are bitwise
``is_b(f_transform(A))`` and ``is_doubly_b(f_transform(A))``, the B and
doubly-B tests run on the flipped rows as read off A's own row stats.

Note: a competing definition of doubly diagonal dominance exists in the
literature that adds a per-row constraint; only the pairwise-product form
is implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import Tensor, _diag_index, _r_plus, row_stats
from .errors import InternalError, PreconditionError

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


def _witness(where, lhs, rhs, *units):
    """Both sides of a violated inequality multiplied back by the units of
    its rows, as Python floats: exact, or infinite past DBL_MAX."""
    lhs, rhs = float(lhs), float(rhs)
    for unit in units:
        lhs, rhs = lhs * float(unit), rhs * float(unit)
    return {**where, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs}


def _first_failing_row(lhs, rhs, unit, strict=True):
    bad = lhs <= rhs if strict else lhs < rhs
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return _witness({"row": i + 1}, lhs[i], rhs[i], unit[i])


def _scaled_rows(lhs, rhs):
    """Both nonnegative sides of each row's pair inequality scaled by the
    one power of two 2**-e that puts the larger in [1/2, 1), and e."""
    e = np.frexp(np.maximum(lhs, rhs))[1]
    return np.ldexp(lhs, -e), np.ldexp(rhs, -e), e


def _first_failing_pair(lhs, rhs, unit):
    """First ordered pair i < j violating an outer-product inequality
    between nonnegative sides.

    Both sides of each row are first scaled by :func:`_scaled_rows`: the
    inequality is homogeneous in each row, so the products compare as
    unscaled ones would, except that those of two tiny rows no longer
    underflow to a tie."""
    left, right, _ = _scaled_rows(lhs, rhs)
    bad = left[:, None] * left <= right[:, None] * right
    np.fill_diagonal(bad, False)
    if not bad.any():
        return None
    i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return _witness({"pair": [int(i) + 1, int(j) + 1]}, lhs[i] * lhs[j], rhs[i] * rhs[j],
                    unit[i], unit[j])


def _z_witness(stats):
    # r_plus is zero exactly when every off-diagonal entry is <= 0; the
    # shift is r_plus outside the unit, where a small entry cannot round to 0.
    if np.all(stats.shift == 0.0):
        return None
    i = int(np.argmax(stats.shift > 0.0))
    return _witness({"row": i + 1}, stats.shift[i], 0.0)


def _b_witness(stats, strict=True):
    return _first_failing_row(stats.row_sum, stats.width * stats.r_plus, stats.unit, strict)


def _sdd_witness(stats):
    return _first_failing_row(stats.diag, stats.off_diag_abs_sum, stats.unit)


def _sddd_witness(stats):
    bad_diag = _first_failing_row(stats.diag, np.zeros(stats.diag.shape[0]), stats.unit)
    if bad_diag is not None:
        return bad_diag
    return _first_failing_pair(stats.diag, stats.off_diag_abs_sum, stats.unit)


def _doubly_b_witness(stats):
    bad_row = _first_failing_row(stats.diag, stats.r_plus, stats.unit)
    if bad_row is not None:
        return bad_row
    return _first_failing_pair(stats.diag - stats.r_plus, stats.upper_deficit, stats.unit)


def _flipped(stats):
    """What the B and doubly-B witnesses read, for ``f_transform(A)`` from
    A's stats: a negative-diagonal row has diag, r_plus, row_sum and upper
    deficit -diag, -r_minus, -row_sum and the lower excess, all exactly; a
    zero-diagonal row is zero.  What is flipped or zeroed is written +0.0."""
    positive, negative = stats.diag > 0, stats.diag < 0

    def flip(kept, negated):
        return np.where(positive, kept, np.where(negative, negated, 0.0))

    return SimpleNamespace(
        diag=flip(stats.diag, 0.0 - stats.diag),
        r_plus=flip(stats.r_plus, 0.0 - stats.r_minus),
        row_sum=flip(stats.row_sum, 0.0 - stats.row_sum),
        upper_deficit=flip(stats.upper_deficit, stats.lower_excess),
        unit=stats.unit, width=stats.width)


def is_z(A: Tensor) -> bool:
    """True when every off-diagonal entry is nonpositive."""
    return bool(np.all(_r_plus(A) == 0.0))


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
    B and doubly-B classes in both directions.  It is A itself, bitwise,
    when A is a Z-tensor, since a - 0.0 is a; only a row with r_plus > 0
    can leave the float range, which raises PreconditionError.
    """
    r_plus = _r_plus(A)
    with np.errstate(over="ignore"):
        arr = A.array - r_plus.reshape((A.dim,) + (1,) * (A.order - 1))
        # fl(a - r) is monotone in a, so a row leaves the float range exactly
        # where its smallest entry does
        if r_plus.any() and np.isneginf(
                np.minimum.reduce(A.array.reshape(A.dim, -1), axis=1) - r_plus).any():
            raise PreconditionError("the a_plus transform exceeds the float range")
    return Tensor._wrap(arr)


def f_transform(A: Tensor) -> Tensor:
    """Scale each row slice by the sign of its diagonal entry.

    Rows with a zero diagonal become zero rows.
    """
    diag = A.array[_diag_index(A.dim, A.order)]
    signs = np.sign(diag).reshape((A.dim,) + (1,) * (A.order - 1))
    return Tensor._wrap(signs * A.array)


def check_f_b(A: Tensor) -> bool:
    """Bitwise ``is_b(f_transform(A))``, computed from A's row stats."""
    return _b_witness(_flipped(row_stats(A))) is None


def check_f_doubly_b(A: Tensor) -> bool:
    """Bitwise ``is_doubly_b(f_transform(A))``, computed from A's row stats."""
    return _doubly_b_witness(_flipped(row_stats(A))) is None


def classify(A: Tensor) -> ClassReport:
    """Run every predicate once on shared row statistics.

    Witnesses are recorded for each false flag.  The flag combination is
    validated against the known implications between classes before the
    report is returned.
    """
    stats = row_stats(A)
    flipped = _flipped(stats)
    checks = {
        "Z": _z_witness(stats),
        "B": _b_witness(stats),
        "B0": _b_witness(stats, strict=False),
        "doublyB": _doubly_b_witness(stats),
        "SDD": _sdd_witness(stats),
        "SDDD": _sddd_witness(stats),
        "F_B": _b_witness(flipped),
        "F_doublyB": _doubly_b_witness(flipped),
    }
    flags = {name: checks[name] is None for name in FLAG_NAMES}
    witnesses = {name: w for name, w in checks.items() if w is not None}
    _validate_flags(flags)
    return ClassReport(flags=flags, witnesses=witnesses)


def _validate_flags(flags):
    # "B implies B0" and both Z-tensor rules hold by construction: one float
    # expression each, see RowStats.  The implications to doublyB and SDDD
    # can fail on rounding.
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
