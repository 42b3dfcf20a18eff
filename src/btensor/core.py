"""Dense real tensors (hypermatrices), contraction, and row statistics.

Entries are stored row-major, i.e. lexicographically in the multi-index
(i1, ..., im).  Indices are 1-based in every public interface (JSON,
witnesses, index sets) and 0-based internally; the conversion happens at
the boundary only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Refuse to allocate tensors with more entries than this by default.
DEFAULT_ENTRY_CAP = 10**8


def _as_int(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


class Tensor:
    """Dense real tensor of order m >= 2 and dimension n >= 1.

    The entries are 64-bit floats, immutable after construction, and are
    required to be finite.  ``entries`` may be a flat sequence of length
    n**m in row-major order or an already shaped array.
    """

    __slots__ = ("order", "dim", "_array")

    def __init__(self, order, dim, entries, entry_cap=DEFAULT_ENTRY_CAP):
        order = _as_int(order, "order")
        dim = _as_int(dim, "dim")
        if order < 2:
            raise InputError(f"order must be at least 2, got {order}")
        if dim < 1:
            raise InputError(f"dim must be at least 1, got {dim}")
        count = dim**order
        if count > entry_cap:
            raise InputError(
                f"tensor with dim {dim} and order {order} needs {count} entries, "
                f"above the cap of {entry_cap}"
            )
        arr = np.array(entries, dtype=np.float64, order="C")
        if arr.size != count:
            raise InputError(
                f"expected {count} entries for order {order}, dim {dim}; got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise InputError("tensor entries must all be finite")
        arr.setflags(write=False)
        self.order = order
        self.dim = dim
        self._array = arr.reshape((dim,) * order)

    @classmethod
    def from_array(cls, arr, entry_cap=DEFAULT_ENTRY_CAP):
        """Build a tensor from an m-way numpy array with equal axis lengths."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim < 2:
            raise InputError(f"array must have at least 2 axes, got {arr.ndim}")
        dims = set(arr.shape)
        if len(dims) != 1:
            raise InputError(f"array axes must all have equal length, got shape {arr.shape}")
        return cls(arr.ndim, arr.shape[0], arr, entry_cap=entry_cap)

    @classmethod
    def identity(cls, order, dim):
        """Diagonal tensor with ones on the main diagonal, zeros elsewhere."""
        arr = np.zeros((dim,) * order)
        arr[tuple([np.arange(dim)] * order)] = 1.0
        return cls(order, dim, arr)

    @classmethod
    def ones(cls, order, dim):
        return cls(order, dim, np.ones((dim,) * order))

    @property
    def array(self):
        """Read-only view of the entries, shaped ``(dim,) * order``."""
        return self._array

    def entry(self, *index):
        """Entry at a 1-based multi-index."""
        if len(index) != self.order:
            raise InputError(f"multi-index needs {self.order} components, got {len(index)}")
        zero_based = []
        for i in index:
            i = _as_int(i, "index component")
            if not 1 <= i <= self.dim:
                raise InputError(f"index component {i} outside [1, {self.dim}]")
            zero_based.append(i - 1)
        return float(self._array[tuple(zero_based)])

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.order == other.order
            and self.dim == other.dim
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.order, self.dim, self._array.tobytes()))

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim})"

    def to_json_dict(self):
        return {
            "order": self.order,
            "dim": self.dim,
            "dense": [float(v) for v in self._array.ravel()],
        }

    @classmethod
    def from_json_dict(cls, obj, entry_cap=DEFAULT_ENTRY_CAP):
        """Parse the tensor JSON format.

        The object must carry ``order``, ``dim`` and exactly one of
        ``dense`` (flat row-major entry list) or ``sparse`` (a list of
        ``{"idx": [i1, ..., im], "val": v}`` records with 1-based indices;
        unspecified entries are zero and duplicate indices are an error).
        """
        if not isinstance(obj, dict):
            raise InputError("tensor JSON must be an object")
        try:
            order = obj["order"]
            dim = obj["dim"]
        except KeyError as missing:
            raise InputError(f"tensor JSON lacks required field {missing}") from None
        has_dense = "dense" in obj
        has_sparse = "sparse" in obj
        if has_dense == has_sparse:
            raise InputError("tensor JSON needs exactly one of 'dense' or 'sparse'")
        if has_dense:
            return cls(order, dim, obj["dense"], entry_cap=entry_cap)
        order = _as_int(order, "order")
        dim = _as_int(dim, "dim")
        if order < 2 or dim < 1:
            raise InputError(f"bad tensor header: order {order}, dim {dim}")
        if dim**order > entry_cap:
            raise InputError(f"tensor exceeds the entry cap of {entry_cap}")
        arr = np.zeros((dim,) * order)
        seen = set()
        for record in obj["sparse"]:
            if not isinstance(record, dict) or "idx" not in record or "val" not in record:
                raise InputError("sparse records must look like {'idx': [...], 'val': v}")
            idx = record["idx"]
            if len(idx) != order:
                raise InputError(f"sparse index {idx} needs {order} components")
            zero_based = []
            for i in idx:
                i = _as_int(i, "sparse index component")
                if not 1 <= i <= dim:
                    raise InputError(f"sparse index component {i} outside [1, {dim}]")
                zero_based.append(i - 1)
            key = tuple(zero_based)
            if key in seen:
                raise InputError(f"duplicate sparse index {list(idx)}")
            seen.add(key)
            arr[key] = record["val"]
        return cls(order, dim, arr, entry_cap=entry_cap)


@dataclass(frozen=True)
class RowStats:
    """Per-row aggregates; every array field has length ``dim``.

    ``r_plus`` is the largest off-diagonal row entry clamped below at 0,
    ``r_minus`` the smallest clamped above at 0, and ``r_signed`` selects
    ``r_plus``, 0 or ``r_minus`` according to the sign of the diagonal.
    ``off_diag_sum`` is ``row_sum - diag``; ``width`` is W = n**(m-1).

    The rest is in closed form from the off-diagonal sum S, summed directly
    so that a large diagonal cannot absorb the other entries:

    * ``upper_deficit``, the sum of (r_plus - a), is (W - 1) r_plus - S;
    * ``lower_excess``, the sum of (a - r_minus), is S - (W - 1) r_minus;
    * ``signed_deficit``, the sum of |r_signed - a|, is the upper deficit,
      the lower excess or ``off_diag_abs_sum`` for a positive, negative or
      zero diagonal;
    * ``lows``: L = diag - r_plus - upper deficit = row_sum - W r_plus, the
      B-tensor margin; ``highs``: U = diag - r_minus + lower excess =
      row_sum - W r_minus.

    A deficit (excess) is ``off_diag_abs_sum`` itself where r_plus (r_minus)
    is 0, so on Z-tensors doubly B and SDDD compare the same floats; else it
    is clamped at 0 against rounding.  Where 2 W max|a| could overflow, the
    closed forms are taken on rows scaled by a power of two and scaled back.
    """

    diag: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    r_signed: np.ndarray
    row_sum: np.ndarray
    off_diag_sum: np.ndarray
    off_diag_abs_sum: np.ndarray
    upper_deficit: np.ndarray
    lower_excess: np.ndarray
    signed_deficit: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    width: float


def row_stats(A: Tensor) -> RowStats:
    """Compute all per-row aggregates with one full-size scratch buffer."""
    n, m = A.dim, A.order
    width = n ** (m - 1)
    rows = A.array.reshape(n, width)
    idx = np.arange(n)
    # flat position of (i, ..., i) within row i: i * (1 + n + ... + n**(m-2))
    pos = idx * ((width - 1) // (n - 1)) if n > 1 else idx
    diag = rows[idx, pos].copy()
    row_sum = rows.sum(axis=1)
    off_diag_sum = row_sum - diag

    scratch = np.abs(rows)
    scratch[idx, pos] = 0.0
    off_diag_abs_sum = scratch.sum(axis=1)

    np.copyto(scratch, rows)
    if width > 1:
        scratch[idx, pos] = -np.inf
        r_plus = np.maximum(0.0, scratch.max(axis=1))
        scratch[idx, pos] = np.inf
        r_minus = np.minimum(0.0, scratch.min(axis=1))
    else:
        r_plus = np.zeros(n)
        r_minus = np.zeros(n)
    positive, negative = diag > 0, diag < 0
    r_signed = np.where(positive, r_plus, np.where(negative, r_minus, 0.0))

    # The closed forms reach 2 W max|a|; k > 0 scales them below DBL_MAX.
    # Scaling by a power of two is exact, and with k = 0 no bit changes.
    # (max|a| over O(n) values in Python: cheaper than numpy at desk size.)
    top = max(map(abs, diag.tolist() + r_plus.tolist() + r_minus.tolist()))
    k = max(0, math.frexp(top)[1] + math.frexp(width)[1] - 1021)
    total, plus, minus = row_sum, r_plus, r_minus
    if k:
        np.ldexp(rows, -k, out=scratch)
        total = scratch.sum(axis=1)
        plus, minus = np.ldexp(r_plus, -k), np.ldexp(r_minus, -k)
    scratch[idx, pos] = 0.0
    off_sum = scratch.sum(axis=1)
    closed = (np.maximum((width - 1) * plus - off_sum, 0.0),
              np.maximum(off_sum - (width - 1) * minus, 0.0),
              total - width * plus, total - width * minus)
    if k:
        with np.errstate(over="ignore"):
            closed = [np.ldexp(v, k) for v in closed]
    upper, lower, lows, highs = closed
    upper_deficit = np.where(r_plus == 0.0, off_diag_abs_sum, upper)
    lower_excess = np.where(r_minus == 0.0, off_diag_abs_sum, lower)
    signed_deficit = np.where(positive, upper_deficit,
                              np.where(negative, lower_excess, off_diag_abs_sum))

    fields = (diag, r_plus, r_minus, r_signed, row_sum, off_diag_sum, off_diag_abs_sum,
              upper_deficit, lower_excess, signed_deficit, lows, highs)
    for f in fields:
        f.setflags(write=False)
    return RowStats(*fields, width=float(width))


def contract(A: Tensor, x) -> np.ndarray:
    """Contract the tensor with x on all but the first index.

    Component i is the sum of ``a[i, i2, ..., im] * x[i2] * ... * x[im]``
    over all n**(m-1) index tuples of the row.
    """
    x = _check_vector(A, x)
    weights = x
    for _ in range(A.order - 2):
        weights = np.multiply.outer(weights, x)
    return A.array.reshape(A.dim, -1) @ weights.ravel()


def polyeval(A: Tensor, x) -> float:
    """The degree-m homogeneous form: sum of entries times m-fold products of x.

    Evaluated by a full m-way weight expansion, independently of
    :func:`contract`.
    """
    x = _check_vector(A, x)
    weights = x
    for _ in range(A.order - 1):
        weights = np.multiply.outer(weights, x)
    return float(A.array.ravel() @ weights.ravel())


def _check_vector(A, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.dim,):
        raise InputError(f"vector must have length {A.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("vector components must all be finite")
    return x


def principal_subtensor(A: Tensor, members) -> Tensor:
    """Restrict every index to the 1-based set ``members`` and re-index.

    ``members`` must be a nonempty strictly increasing sequence within
    [1, dim].
    """
    members = list(members)
    if not members:
        raise InputError("index set must be nonempty")
    zero_based = []
    for j in members:
        j = _as_int(j, "index set member")
        if not 1 <= j <= A.dim:
            raise InputError(f"index set member {j} outside [1, {A.dim}]")
        zero_based.append(j - 1)
    if any(a >= b for a, b in zip(zero_based, zero_based[1:])):
        raise InputError("index set must be strictly increasing")
    sub = A.array[np.ix_(*([zero_based] * A.order))]
    return Tensor.from_array(sub)


def is_symmetric(A: Tensor, tol: float = 0.0) -> bool:
    """True when the entries are invariant under every index permutation.

    Comparison is exact by default, and then only the m-1 adjacent axis
    swaps are checked: they generate every permutation.  Pass ``tol`` > 0
    for an absolute entrywise tolerance; that mode compares against all m!
    permutations, since closeness under the generators bounds the distance
    under their products only by a multiple of ``tol``.
    """
    arr = A.array
    if tol == 0.0:
        return all(np.array_equal(arr, np.swapaxes(arr, k, k + 1))
                   for k in range(A.order - 1))
    return not any(np.max(np.abs(arr - np.transpose(arr, perm))) > tol
                   for perm in itertools.permutations(range(A.order)))
