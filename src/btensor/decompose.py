"""Constructive splittings A = B + C for B-tensors and doubly B-tensors.

Both constructions shift the row-wise ``a_plus`` transform of A by a
deterministic epsilon chosen at half of the available slack, so that the
Z-part stays safely interior to its class.  The slack is in closed form
from ``row_stats(A)``: the transform's diagonal is diag - r_plus and its
deficit is ``upper_deficit``.  Every returned decomposition is re-verified
through the class witnesses, on one ``row_stats`` per part; a part that
loses its class to rounding raises DegenerateMarginError, any other
failed invariant InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classes
from .core import Tensor, _blockwise, _diag_index, _scratch, row_stats
from .errors import ClassViolationError, DegenerateMarginError, InternalError


@dataclass(frozen=True)
class Decomposition:
    """A splitting ``part_b + part_c == A``.

    ``kind`` is "B" or "doublyB".  For kind "B", ``part_b`` is a Z-tensor
    and a B-tensor while ``part_c`` is a nonnegative B-tensor.  For kind
    "doublyB", ``part_b`` is a Z-tensor and doubly B, and ``part_c`` is a
    nonnegative doubly B-tensor whose row i holds the constant
    ``row_constants[i]`` off the diagonal and ``row_constants[i] + epsilon``
    on it.

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
    row_constants: np.ndarray | None = None

    def to_json_dict(self):
        constants = None
        if self.row_constants is not None:
            constants = [float(c) for c in self.row_constants]
        return {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "row_constants": constants,
            "B": self.part_b.to_json_dict(),
            "C": self.part_c.to_json_dict(),
        }


def _check_epsilon(eps):
    if not (eps > 0.0) or not np.isfinite(eps):
        raise DegenerateMarginError(
            f"slack margin {eps!r} is too small to split off a positive epsilon"
        )
    return float(eps)


def _split_off_row_constants(A, constants, eps):
    """Return (part_b, part_c) with part_c holding ``constants[i]`` off the
    diagonal of row i and ``constants[i] + eps`` on it, and part_b = A - part_c.

    Building the nonnegative part first keeps its shape exact; the
    subtraction then reproduces A bitwise for tensors whose rows do not
    span an extreme dynamic range (this is re-verified after construction).
    """
    n, m = A.dim, A.order
    part_c = np.broadcast_to(
        constants.reshape((n,) + (1,) * (m - 1)), A.array.shape
    ).copy()
    part_c[_diag_index(n, m)] = constants + eps
    part_b = A.array - part_c
    return Tensor._wrap(part_b), Tensor._wrap(part_c)


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
    eps = _check_epsilon(float(stats.in_units(slack / 2.0).min()))

    part_b, part_c = _split_off_row_constants(A, stats.shift, eps)
    dec = Decomposition("B", part_b, part_c, eps)
    _verify(dec, A, classes._b_witness, "B")
    return dec


def decompose_doubly_b(A: Tensor) -> Decomposition:
    """Split a doubly B-tensor as B + C with B a Z- and doubly B-tensor and
    C the nonnegative row-constant-plus-diagonal-epsilon tensor.

    The row constants are the r_plus values of A.  Epsilon is half of
    min(delta, min d), with the ``a_plus`` transform's diagonal
    d = diag - r_plus and deficit s = upper_deficit from ``row_stats(A)``;
    delta is the smallest over row pairs of the largest uniform diagonal
    decrease that keeps d_i d_j - s_i s_j an equality (the smaller root of
    the associated quadratic).  The doubly-B test has just accepted these
    very floats, so only underflow can leave no positive epsilon: the
    quadratics are solved with every row in the largest row unit, where a
    row below that unit by more than the float range has d = 0.
    """
    stats = row_stats(A)
    witness = classes._doubly_b_witness(stats)
    if witness is not None:
        where = f"row {witness['row']}" if "row" in witness else f"pair {witness['pair']}"
        raise ClassViolationError(
            f"not a doubly B-tensor: {where} has {witness['lhs']} <= {witness['rhs']}",
            witness=witness)

    top = stats.unit.max()
    d = (stats.diag - stats.r_plus) * (stats.unit / top)
    s = stats.upper_deficit * (stats.unit / top)
    delta = np.inf
    if d.min() > 0.0:
        products = np.outer(d, d) - np.outer(s, s)
        # smaller quadratic root in rationalized form, stable when the
        # off-diagonal sums are tiny
        delta_pairs = 2.0 * products / (np.add.outer(d, d) + np.sqrt(
            np.subtract.outer(d, d) ** 2 + 4.0 * np.outer(s, s)))
        np.fill_diagonal(delta_pairs, np.inf)
        delta = float(delta_pairs.min())
    eps = _check_epsilon(min(delta, float(d.min())) / 2.0 * float(top))

    part_b, part_c = _split_off_row_constants(A, stats.shift, eps)
    dec = Decomposition("doublyB", part_b, part_c, eps, row_constants=stats.shift)
    _verify(dec, A, classes._doubly_b_witness, "doubly B")
    return dec


def _misfits(scratch, a, b, c):
    """Flag the rows of a block where ``b + c`` misses ``a`` by more than
    4 ulps of max(|a|, |c|).  The bound is taken only on the entries that
    differ: a bitwise reproduced entry has defect 0 below any bound."""
    total = np.add(b, c, out=scratch)
    i, j = np.nonzero(total != a)
    x = a[i, j]
    limit = 4.0 * np.spacing(np.maximum(np.abs(x), np.abs(c[i, j])))
    rows = np.zeros(len(a), dtype=bool)
    rows[i[np.abs(total[i, j] - x) > limit]] = True
    return (rows,)


def _verify(dec, A, witness, label):
    """Post-construction checks on one ``row_stats`` per part; failures
    raise, never a silent return."""
    n, m = A.dim, A.order
    a, b, c = (T.array.reshape(n, -1) for T in (A, dec.part_b, dec.part_c))
    (misfit,) = _blockwise(_misfits, _scratch(n, a.shape[1]), a, b, c)
    if misfit.any():
        raise InternalError(
            "decomposition parts do not reproduce the input to within 4 ulps")
    stats_b = row_stats(dec.part_b)
    if classes._z_witness(stats_b) is not None:
        raise InternalError("decomposition Z-part has a positive off-diagonal entry")
    # with epsilon from the class test, only a margin at rounding level fails
    if witness(stats_b) is not None:
        raise DegenerateMarginError(
            f"decomposition Z-part is not a {label}-tensor after rounding")
    stats_c = row_stats(dec.part_c)
    if np.any(stats_c.diag < 0.0) or np.any(stats_c.r_minus < 0.0):
        raise InternalError("decomposition remainder has a negative entry")
    if witness(stats_c) is not None:
        raise DegenerateMarginError(
            f"decomposition remainder is not a {label}-tensor after rounding")
    if dec.kind == "doublyB":
        constants = dec.row_constants
        wrong = dec.part_c.array != constants.reshape((n,) + (1,) * (m - 1))
        diag = _diag_index(n, m)
        wrong[diag] = dec.part_c.array[diag] != constants + dec.epsilon
        if wrong.any():
            raise InternalError("remainder is not in row-constant-plus-epsilon shape")
