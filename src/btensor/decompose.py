"""Constructive splittings A = B + C for B-tensors and doubly B-tensors.

Both splits build the same remainder C: each row's r_plus off the
diagonal and r_plus + epsilon on it, so that the Z-part B = A - C is the
row-wise ``a_plus`` transform of A shifted epsilon below its diagonal.
Only the class test and the choice of epsilon differ; epsilon comes in
closed form from ``row_stats(A)``, where the transform's diagonal is
diag - r_plus and its deficit ``upper_deficit``.  Besides that one
``row_stats`` sweep, each split walks
A's rows once in cache-sized blocks to write both parts, and once more to
re-verify them: per block, the reconstruction, both parts' row statistics
and the remainder's shape.  The kind's class witness then reads those
statistics; a part that loses its class, or epsilon, to rounding raises
DegenerateMarginError, any other failed invariant InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classes
from .core import RowStats, Tensor, _blockwise, _row_layout, _row_sweep, _scratch, row_stats
from .errors import (ClassViolationError, DegenerateMarginError, InternalError,
                     PreconditionError)


@dataclass(frozen=True)
class Decomposition:
    """A splitting ``part_b + part_c == A``.

    ``kind`` is "B" or "doublyB": ``part_b`` is a Z-tensor of that class
    and ``part_c`` a nonnegative tensor of that class whose row i holds
    the constant ``row_constants[i]``, A's r_plus of row i, off the
    diagonal and ``row_constants[i] + epsilon`` on it.

    Each entry of ``part_b + part_c`` is within 4 ulps of max(|a|, |c|)
    of the entry a of A (``4 * spacing``; this is what is verified), and
    bitwise equal to it whenever the row's dynamic range permits an exact
    split (a double ``a - c`` only exists when ``a`` and ``c`` span at
    most the 53 significand bits); all the integer- and half-integer-valued
    desk examples reconstruct bitwise.
    """

    kind: str
    part_b: Tensor
    part_c: Tensor
    epsilon: float
    row_constants: np.ndarray

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "row_constants": self.row_constants.tolist(),
            "B": self.part_b.to_json_dict(),
            "C": self.part_c.to_json_dict(),
        }


# each kind's class witness, and its name in error messages
_CLASS = {"B": (classes._b_witness, "B"), "doublyB": (classes._doubly_b_witness, "doubly B")}


def _split_sweep(scratch, a, b, c, pos, constants, diagonal):
    """Write a block of rows of the remainder ``c``, ``constants`` off the
    diagonal and ``diagonal`` on it, and of ``b = a - c``; flag the rows
    of ``b`` that are finite."""
    idx = np.arange(len(c))
    np.copyto(c, constants[:, None])
    c[idx, pos] = diagonal
    # the same differences as a - c, without a second full-size operand
    np.subtract(a, constants[:, None], out=b)
    b[idx, pos] = a[idx, pos] - diagonal
    return (np.isfinite(b).all(axis=1),)


def _split(A, kind, constants, eps):
    """The verified split of ``kind`` with part_c holding ``constants[i]``
    off the diagonal of row i and ``constants[i] + eps`` on it, and
    part_b = A - part_c.

    Building the nonnegative part first keeps its shape exact; the
    subtraction then reproduces A bitwise for tensors whose rows do not
    span an extreme dynamic range (this is re-verified after construction).
    Both parts are written block by block, the finiteness check with them.
    """
    if not (eps > 0.0) or not np.isfinite(eps):
        raise DegenerateMarginError(
            f"slack margin {eps!r} is too small to split off a positive epsilon")
    rows, pos = _row_layout(A)
    b, c = np.empty_like(rows), np.empty_like(rows)
    # an entry a - c, or a diagonal constants + eps, past DBL_MAX shows as -inf in b
    with np.errstate(over="ignore"):
        (finite,) = _blockwise(_split_sweep, _scratch(*rows.shape), rows, b, c, pos,
                               constants, constants + eps)
    if not finite.all():
        raise PreconditionError("the Z-part of the split exceeds the float range")
    # such a row of part_c is one constant, which no class test accepts
    lost = np.flatnonzero((constants > 0.0) & (constants + eps == constants))
    if len(lost):
        raise DegenerateMarginError(
            f"row {lost[0] + 1} keeps its constant {float(constants[lost[0]])!r} when "
            f"epsilon {eps!r} is added: one epsilon cannot split rows this far apart in scale")
    shape = A.array.shape
    dec = Decomposition(kind, Tensor._wrap(b.reshape(shape)),
                        Tensor._wrap(c.reshape(shape)), eps, constants)
    _verify(dec, A)
    return dec


def decompose_b(A: Tensor) -> Decomposition:
    """Split a B-tensor as B + C with B a Z- and B-tensor, C nonnegative and B.

    C holds each row's r_plus off the diagonal and r_plus + epsilon on it,
    so B agrees with the ``a_plus`` transform off the diagonal and sits
    epsilon below its diagonal.  Epsilon is half the smallest
    diagonal-dominance slack of the transform, min(d - s) / 2 with the
    transform's diagonal d = diag - r_plus and deficit s = upper_deficit
    read from ``row_stats(A)``.
    """
    stats = row_stats(A)
    witness = classes._b_witness(stats)
    if witness is not None:
        raise ClassViolationError(
            f"not a B-tensor: row {witness['row']} has row sum {witness['lhs']} "
            f"<= {witness['rhs']}", witness=witness)

    slack = (stats.diag - stats.r_plus) - stats.upper_deficit
    return _split(A, "B", stats.shift, float(stats.in_units(slack / 2.0).min()))


def decompose_doubly_b(A: Tensor) -> Decomposition:
    """Split a doubly B-tensor as B + C with B a Z- and doubly B-tensor and
    C the nonnegative row-constant-plus-diagonal-epsilon tensor.

    The row constants are the r_plus values of A.  With the ``a_plus``
    transform's diagonal d = diag - r_plus and deficit s = upper_deficit
    from ``row_stats(A)``, doubly B says q_i q_j < 1 for q = s / d; with Q
    the product of the two largest q, epsilon = (1 - sqrt(Q)) / 2 * min d
    (min d / 2 for one row) keeps each d_i - epsilon >= (1 + sqrt(Q)) / 2 * d_i,
    so (d_i - epsilon)(d_j - epsilon) > Q d_i d_j >= s_i s_j.  Each
    sqrt(q_i) is taken on its row scaled by a power of two, which cannot
    overflow and is the same at every power-of-two scale of A.  Only a
    margin at rounding level or underflow can leave no positive epsilon.
    """
    stats = row_stats(A)
    witness = classes._doubly_b_witness(stats)
    if witness is not None:
        where = f"row {witness['row']}" if "row" in witness else f"pair {witness['pair']}"
        raise ClassViolationError(
            f"not a doubly B-tensor: {where} has {witness['lhs']} <= {witness['rhs']}",
            witness=witness)

    d = stats.diag - stats.r_plus
    left, right, _ = classes._scaled_rows(d, stats.upper_deficit)
    r = np.sqrt(right) / np.sqrt(left)
    root_q = float(np.prod(np.partition(r, -2)[-2:])) if len(r) > 1 else 0.0
    return _split(A, "doublyB", stats.shift,
                  (1.0 - root_q) / 2.0 * float(stats.in_units(d).min()))


def _misfits(scratch, a, b, c):
    """Flag the rows of a block where ``b + c`` misses ``a`` by more than
    4 ulps of max(|a|, |c|).  The bound is taken only on the entries that
    differ, and only in a block that has one: a bitwise reproduced entry
    has defect 0 below any bound."""
    total = np.add(b, c, out=scratch)
    rows = np.zeros(len(a), dtype=bool)
    differ = total != a
    if differ.any():
        i, j = np.nonzero(differ)
        x = a[i, j]
        limit = 4.0 * np.spacing(np.maximum(np.abs(x), np.abs(c[i, j])))
        rows[i[np.abs(total[i, j] - x) > limit]] = True
    return rows


def _verify_sweep(scratch, a, b, c, pos, diag_b, diag_c, constants, diagonal):
    """One block of :func:`_verify`: the rows where ``b + c`` misses ``a``,
    the :class:`RowStats` fields of ``b`` and of ``c``, and the rows where
    ``c`` is not ``constants`` off the diagonal and ``diagonal`` on it."""
    misfit = _misfits(scratch, a, b, c)
    fields_b = _row_sweep(scratch, b, pos, diag_b)
    fields_c = _row_sweep(scratch, c, pos, diag_c)
    wrong = c != constants[:, None]
    idx = np.arange(len(c))
    wrong[idx, pos] = c[idx, pos] != diagonal
    return (misfit, *fields_b, *fields_c, wrong.any(axis=1))


def _verify(dec, A):
    """Post-construction checks, all from one blocked sweep over A and the
    two parts; failures raise, never a silent return."""
    witness, label = _CLASS[dec.kind]
    a, pos = _row_layout(A)
    n, width = a.shape
    b, c = (T.array.reshape(n, width) for T in (dec.part_b, dec.part_c))
    idx = np.arange(n)
    misfit, *fields, off_shape = _blockwise(
        _verify_sweep, _scratch(n, width), a, b, c, pos, b[idx, pos], c[idx, pos],
        dec.row_constants, dec.row_constants + dec.epsilon)
    half = len(fields) // 2
    stats_b = RowStats(*fields[:half], width=float(width))
    stats_c = RowStats(*fields[half:], width=float(width))
    if misfit.any():
        raise InternalError(
            "decomposition parts do not reproduce the input to within 4 ulps")
    if classes._z_witness(stats_b) is not None:
        raise InternalError("decomposition Z-part has a positive off-diagonal entry")
    # with epsilon from the class test, only a margin at rounding level fails
    if witness(stats_b) is not None:
        raise DegenerateMarginError(
            f"decomposition Z-part is not a {label}-tensor after rounding")
    if np.any(stats_c.diag < 0.0) or np.any(stats_c.r_minus < 0.0):
        raise InternalError("decomposition remainder has a negative entry")
    if witness(stats_c) is not None:
        raise DegenerateMarginError(
            f"decomposition remainder is not a {label}-tensor after rounding")
    if off_shape.any():
        raise InternalError("remainder is not in row-constant-plus-epsilon shape")
