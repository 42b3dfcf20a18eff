"""Constructive splittings A = B + C for B-tensors and doubly B-tensors.

Both constructions shift the row-wise ``a_plus`` transform of A by a
deterministic epsilon chosen at half of the available slack, so that the
Z-part stays safely interior to its class.  Every returned decomposition
is re-verified through the class predicates; a construction that fails
its own invariants raises instead of returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classes
from .core import Tensor, row_stats
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

    Reconstruction is exact to the last ulp per entry, and bitwise
    whenever each row's dynamic range permits an exact split (a double
    ``a - c`` only exists when ``a`` and ``c`` span at most the 53
    significand bits); all the integer- and half-integer-valued desk
    examples reconstruct bitwise.
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


def _diag_index(n, m):
    return tuple([np.arange(n)] * m)


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
    return Tensor.from_array(part_b), Tensor.from_array(part_c)


def decompose_b(A: Tensor) -> Decomposition:
    """Split a B-tensor as B + C with B a Z- and B-tensor, C nonnegative and B.

    C holds each row's r_plus off the diagonal and r_plus + epsilon on it,
    so B agrees with the ``a_plus`` transform off the diagonal and sits
    epsilon below its diagonal.  Epsilon is half the smallest
    diagonal-dominance slack of the transform.
    """
    stats_a = row_stats(A)
    witness = classes._b_witness(stats_a)
    if witness is not None:
        raise ClassViolationError(
            f"not a B-tensor: row {witness['row']} has row sum {witness['lhs']} "
            f"<= {witness['rhs']}", witness=witness)

    shifted = classes.a_plus(A)
    stats = row_stats(shifted)
    slack = stats.diag - stats.off_diag_abs_sum
    eps = _check_epsilon(float(slack.min()) / 2.0)

    part_b, part_c = _split_off_row_constants(A, stats_a.r_plus.copy(), eps)
    dec = Decomposition("B", part_b, part_c, eps)
    _verify(dec, A, classes.is_b, "B")
    return dec


def decompose_doubly_b(A: Tensor) -> Decomposition:
    """Split a doubly B-tensor as B + C with B a Z- and doubly B-tensor and
    C the nonnegative row-constant-plus-diagonal-epsilon tensor.

    The row constants are the r_plus values of A.  Epsilon is half of
    min(delta, smallest diagonal of the ``a_plus`` transform), where delta
    is the smallest over row pairs of the largest uniform diagonal
    decrease that keeps the pairwise dominance product an equality
    (the smaller root of the associated quadratic).
    """
    stats_a = row_stats(A)
    witness = classes._doubly_b_witness(stats_a)
    if witness is not None:
        where = f"row {witness['row']}" if "row" in witness else f"pair {witness['pair']}"
        raise ClassViolationError(
            f"not a doubly B-tensor: {where} has {witness['lhs']} <= {witness['rhs']}",
            witness=witness)

    shifted = classes.a_plus(A)
    stats = row_stats(shifted)
    d = stats.diag
    s = stats.off_diag_abs_sum
    n = A.dim
    if n >= 2:
        di = d[:, None]
        dj = d[None, :]
        products = np.outer(d, d) - np.outer(s, s)
        # smaller quadratic root in rationalized form, stable when the
        # off-diagonal sums are tiny
        delta_pairs = 2.0 * products / ((di + dj) + np.sqrt((di - dj) ** 2 + 4.0 * np.outer(s, s)))
        np.fill_diagonal(delta_pairs, np.inf)
        delta = float(delta_pairs.min())
    else:
        delta = np.inf
    eps = _check_epsilon(min(delta, float(d.min())) / 2.0)

    constants = stats_a.r_plus.copy()
    part_b, part_c = _split_off_row_constants(A, constants, eps)
    constants.setflags(write=False)
    dec = Decomposition("doublyB", part_b, part_c, eps, row_constants=constants)
    _verify(dec, A, classes.is_doubly_b, "doubly B")
    return dec


def _verify(dec, A, predicate, label):
    """Post-construction checks; failures raise, never a silent return."""
    total = dec.part_b.array + dec.part_c.array
    defect = np.abs(total - A.array)
    limit = 4.0 * np.spacing(np.maximum(np.abs(A.array), np.abs(dec.part_c.array)))
    if np.any(defect > limit):
        raise InternalError(
            "decomposition parts do not reproduce the input to the last ulp")
    if not classes.is_z(dec.part_b):
        raise InternalError("decomposition Z-part has a positive off-diagonal entry")
    if not predicate(dec.part_b):
        raise InternalError(f"decomposition Z-part is not a {label}-tensor")
    if not np.all(dec.part_c.array >= 0.0):
        raise InternalError("decomposition remainder has a negative entry")
    if not predicate(dec.part_c):
        raise InternalError(f"decomposition remainder is not a {label}-tensor")
    if dec.kind == "doublyB":
        expected = np.broadcast_to(
            dec.row_constants.reshape((A.dim,) + (1,) * (A.order - 1)), A.array.shape
        ).copy()
        expected[_diag_index(A.dim, A.order)] = dec.row_constants + dec.epsilon
        if not np.array_equal(dec.part_c.array, expected):
            raise InternalError("remainder is not in row-constant-plus-epsilon shape")
