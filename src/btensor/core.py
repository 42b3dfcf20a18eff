"""Dense real tensors (hypermatrices), contraction, and row statistics.

Entries are stored row-major, i.e. lexicographically in the multi-index
(i1, ..., im).  Indices are 1-based in every public interface (JSON,
witnesses, index sets) and 0-based internally; the conversion happens at
the boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Refuse to allocate tensors with more entries than this.
DEFAULT_ENTRY_CAP = 10**8

#: The most axes an array holds in numpy 1.x (numpy 2 holds 64), and so the
#: highest order: only a dim-1 tensor can pass the entry cap above it.
_MAX_ORDER = 32

#: Entries in the scratch buffer of a full pass (1 MiB of float64): the pass
#: walks blocks of whole rows, so the buffer stays in cache and is not paged in.
_BLOCK_ENTRIES = 1 << 17

#: A row is divided by its unit once W max|a| reaches 2**_UNIT_EXPONENT.
#: Doubly B's split squares sums of two fields, up to 2**(2 * 500 + 5).
_UNIT_EXPONENT = 500


def _as_int(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _zero_based(index, dim, name):
    """The 1-based components ``index``, each an integer in [1, ``dim``], as
    a 0-based tuple."""
    zero_based = []
    for i in index:
        i = _as_int(i, name)
        if not 1 <= i <= dim:
            raise InputError(f"{name} {i} outside [1, {dim}]")
        zero_based.append(i - 1)
    return tuple(zero_based)


def _json_fields(obj, what, *names):
    """The values of the required fields ``names`` of ``obj``, which must be
    a JSON object; ``what`` names the format in the error messages."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} JSON must be an object")
    try:
        return [obj[name] for name in names]
    except KeyError as missing:
        raise InputError(f"{what} JSON lacks required field {missing}") from None


def _reject_non_numbers(entries):
    """Reject booleans and strings anywhere in nested Python lists, which
    ``np.array(..., dtype=float64)`` would turn into numbers."""
    kinds = set(map(type, entries))
    if any(issubclass(kind, (bool, str)) for kind in kinds):
        bad = next(v for v in entries if isinstance(v, (bool, str)))
        raise InputError(f"tensor entries must be real numbers, got {bad!r}")
    if any(issubclass(kind, (list, tuple)) for kind in kinds):
        for v in entries:
            if isinstance(v, (list, tuple)):
                _reject_non_numbers(v)


def _frozen(arr):
    """``arr`` made read-only, once its entries are known to be finite."""
    if not np.all(np.isfinite(arr)):
        raise InputError("tensor entries must all be finite")
    arr.setflags(write=False)
    return arr


def _header(order, dim):
    """``order`` and ``dim`` as ints and the entry count n**m, checked
    against ``DEFAULT_ENTRY_CAP`` and ``_MAX_ORDER`` before anything is
    allocated."""
    order = _as_int(order, "order")
    dim = _as_int(dim, "dim")
    if order < 2:
        raise InputError(f"order must be at least 2, got {order}")
    if dim < 1:
        raise InputError(f"dim must be at least 1, got {dim}")
    cap = DEFAULT_ENTRY_CAP
    if dim > 1 and (dim > cap or order > math.log2(cap)):
        # dim**order >= max(dim, 2**order) is above the cap; the exact power
        # can take minutes to compute and have too many digits to print
        raise InputError(
            f"tensor with dim {dim} and order {order} needs more entries "
            f"than the cap of {cap}"
        )
    if order > _MAX_ORDER:
        raise InputError(f"order must be at most {_MAX_ORDER}, the most axes of a "
                         f"numpy 1.x array; got {order}")
    count = dim**order
    if count > cap:
        raise InputError(
            f"tensor with dim {dim} and order {order} needs {count} entries, "
            f"above the cap of {cap}"
        )
    return order, dim, count


def _diag_index(n, m):
    return tuple([np.arange(n)] * m)


class Tensor:
    """Dense real tensor of order m >= 2 and dimension n >= 1.

    The entries are 64-bit floats, immutable after construction, and are
    required to be finite.  ``entries`` may be a flat sequence of length
    n**m in row-major order or an already shaped array.
    """

    __slots__ = ("order", "dim", "_array")

    def __init__(self, order, dim, entries):
        order, dim, count = _header(order, dim)
        if isinstance(entries, (list, tuple)):
            _reject_non_numbers(entries)
        try:
            arr = np.array(entries, dtype=np.float64, order="C")
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"tensor entries must be real numbers: {exc}") from None
        if arr.size != count:
            raise InputError(
                f"expected {count} entries for order {order}, dim {dim}; got {arr.size}"
            )
        self._array = _frozen(arr).reshape((dim,) * order)
        self.order = order
        self.dim = dim

    @classmethod
    def _wrap(cls, arr):
        """A tensor on an m-way array of finite float64 entries that the
        package has just built and no caller holds, made read-only without
        ``__init__``'s copy and checks."""
        tensor = cls.__new__(cls)
        tensor.order, tensor.dim = arr.ndim, arr.shape[0]
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        tensor._array = arr
        return tensor

    @classmethod
    def from_array(cls, arr):
        """Build a tensor from an m-way numpy array with equal axis lengths."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim < 2:
            raise InputError(f"array must have at least 2 axes, got {arr.ndim}")
        dims = set(arr.shape)
        if len(dims) != 1:
            raise InputError(f"array axes must all have equal length, got shape {arr.shape}")
        return cls(arr.ndim, arr.shape[0], arr)

    @classmethod
    def identity(cls, order, dim):
        """Diagonal tensor with ones on the main diagonal, zeros elsewhere."""
        arr = np.zeros((dim,) * order)
        arr[_diag_index(dim, order)] = 1.0
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
        return float(self._array[_zero_based(index, self.dim, "index component")])

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.order == other.order
            and self.dim == other.dim
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ holds equal
        return hash((self.order, self.dim, (self._array + 0.0).tobytes()))

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim})"

    def to_json_dict(self):
        return {
            "order": self.order,
            "dim": self.dim,
            "dense": self._array.ravel().tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj):
        """Parse the tensor JSON format.

        The object must carry ``order``, ``dim`` and exactly one of
        ``dense`` (flat row-major entry list) or ``sparse`` (a list of
        ``{"idx": [i1, ..., im], "val": v}`` records with 1-based indices;
        unspecified entries are zero and duplicate indices are an error).
        """
        order, dim = _json_fields(obj, "tensor", "order", "dim")
        has_dense = "dense" in obj
        has_sparse = "sparse" in obj
        if has_dense == has_sparse:
            raise InputError("tensor JSON needs exactly one of 'dense' or 'sparse'")
        if has_dense:
            return cls(order, dim, obj["dense"])
        order, dim, _ = _header(order, dim)
        arr = np.zeros((dim,) * order)
        seen = set()
        records = obj["sparse"]
        if not isinstance(records, (list, tuple)):
            raise InputError("'sparse' must be a list of records")
        for record in records:
            if not isinstance(record, dict) or "idx" not in record or "val" not in record:
                raise InputError("sparse records must look like {'idx': [...], 'val': v}")
            idx = record["idx"]
            if not isinstance(idx, (list, tuple)) or len(idx) != order:
                raise InputError(f"sparse index {idx} needs {order} components")
            key = _zero_based(idx, dim, "sparse index component")
            if key in seen:
                raise InputError(f"duplicate sparse index {list(idx)}")
            seen.add(key)
            if isinstance(record["val"], (bool, str)):
                raise InputError(f"sparse value {record['val']!r} must be a real number")
            try:
                arr[key] = record["val"]
            except (TypeError, ValueError, OverflowError):
                raise InputError(
                    f"sparse value {record['val']!r} must be a real number") from None
        return cls._wrap(_frozen(arr))


@dataclass(frozen=True)
class RowStats:
    """Per-row aggregates; every array field has length ``dim``.

    ``r_plus`` is the largest off-diagonal row entry clamped below at 0 and
    ``r_minus`` the smallest clamped above at 0.  ``width`` is W = n**(m-1).

    The rest is in closed form from the off-diagonal sum S, summed directly
    so that a large diagonal cannot absorb the other entries:

    * ``row_sum`` is diag + S; on a Z-row S is bitwise -``off_diag_abs_sum``,
      so B (row sum > 0 there) and SDD decide one inequality;
    * ``upper_deficit``, the sum of (r_plus - a), is (W - 1) r_plus - S;
    * ``lower_excess``, the sum of (a - r_minus), is S - (W - 1) r_minus;
    * ``lows``: L = diag - r_plus - upper deficit = row_sum - W r_plus, the
      B-tensor margin; ``highs``: U = diag - r_minus + lower excess =
      row_sum - W r_minus.

    A deficit (excess) is ``off_diag_abs_sum`` itself where r_plus (r_minus)
    is 0, so on Z-tensors doubly B and SDDD compare the same floats; else it
    is clamped at 0 against rounding.

    On a row of one sign, r_plus or r_minus 0, ``off_diag_abs_sum`` is
    0.0 - S or S + 0.0: rounding to nearest is symmetric in sign, so a sum
    of nonpositive entries is bitwise minus the sum of their negations, and
    -0.0 entries move no nonzero sum.  The two forms turn a zero S of
    either sign into the +0.0 that a sum of absolute values gives.

    Every field of row i is given in the row's ``unit``, a power of two
    2**k_i that is 1 unless the row's entries reach about 2**500 / W: the
    stored values are those of the row divided by its unit, so every field
    and every product of two fields is finite.  Every class inequality is
    positively homogeneous, so a row test compares fields in one unit and a
    pair test carries unit_i * unit_j on both sides; :meth:`in_units`
    multiplies values back, to infinity only where the value itself
    exceeds DBL_MAX.  Dividing can round a small entry of a row with a
    large unit, which moves the B and doubly-B sums by rounding only; the
    Z test and the row constants of the splits read ``shift`` instead, the
    row's r_plus as it is, not divided by the unit.
    """

    diag: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    row_sum: np.ndarray
    off_diag_abs_sum: np.ndarray
    upper_deficit: np.ndarray
    lower_excess: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    shift: np.ndarray
    unit: np.ndarray
    width: float

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def in_units(self, values):
        """Per-row ``values`` given in the row units, times the units: exact,
        or infinite where the product exceeds DBL_MAX."""
        with np.errstate(over="ignore"):
            return values * self.unit


def _scratch(n, width):
    """Scratch for blocks of whole rows: at most ``_BLOCK_ENTRIES`` entries,
    or one row where a row is longer."""
    return np.empty((min(n, max(1, _BLOCK_ENTRIES // width)), width))


def _blockwise(sweep, scratch, *arrays):
    """Run ``sweep(scratch, *blocks)`` on consecutive blocks of as many rows
    of ``arrays`` as ``scratch`` holds, and join the per-row arrays it
    returns.  Per-row reductions do not depend on the block."""
    n, step = len(arrays[0]), len(scratch)
    if n <= step:
        return sweep(scratch, *arrays)
    parts = [sweep(scratch[:min(step, n - s)], *(a[s:s + step] for a in arrays))
             for s in range(0, n, step)]
    return [np.concatenate(p) for p in zip(*parts)]


def _row_layout(A):
    """The rows of A flattened to shape (n, n**(m-1)), and the flat position
    of each row's diagonal entry within its row."""
    n, m = A.dim, A.order
    width = n ** (m - 1)
    idx = np.arange(n)
    # flat position of (i, ..., i) within row i: i * (1 + n + ... + n**(m-2))
    pos = idx * ((width - 1) // (n - 1)) if n > 1 else idx
    return A.array.reshape(n, width), pos


def _r_plus_sweep(scratch, rows, pos):
    """``r_plus`` of a block of rows whose diagonal sits at ``pos``; leaves
    the block in ``scratch`` with -inf on the diagonal."""
    np.copyto(scratch, rows)
    scratch[np.arange(len(rows)), pos] = -np.inf
    return (np.maximum(scratch.max(axis=1), 0.0),)


def _r_plus(A: Tensor) -> np.ndarray:
    """Each row's largest off-diagonal entry clamped below at 0, the
    ``r_plus`` field of :func:`row_stats`, from one masked max per block of
    rows."""
    rows, pos = _row_layout(A)
    (plus,) = _blockwise(_r_plus_sweep, _scratch(*rows.shape), rows, pos)
    return plus


def _row_sweep(scratch, rows, pos, diag):
    """The :class:`RowStats` fields, in order, of a block of rows whose
    diagonal sits at ``pos``, each row divided by its unit 2**k_i, k_i =
    max(0, e(max|a|) + e(W) - ``_UNIT_EXPONENT``) for binary exponents e:
    every sum stays below about 2**500 and so every product of two fields
    below DBL_MAX.  With k_i = 0 no bit changes.

    When every row of the block has r_plus or r_minus 0 in its unit, the
    absolute sums are the signed sums as :class:`RowStats` states, and the
    absolute-value pass and its sum are skipped.  The test reads the scaled
    r_plus and r_minus, which come from the scaled entries by the same
    ``ldexp``, so an entry that underflows in its unit is 0 on both sides."""
    width = rows.shape[1]
    idx = np.arange(len(rows))
    (r_plus,) = _r_plus_sweep(scratch, rows, pos)
    shift = r_plus
    scratch[idx, pos] = np.inf
    r_minus = np.minimum(0.0, scratch.min(axis=1))
    scratch[idx, pos] = 0.0
    unit = np.ones(len(rows))
    # (max|a| over O(n) values in Python: cheaper than numpy at desk size)
    top = max(map(abs, diag.tolist() + r_plus.tolist() + r_minus.tolist()))
    if math.frexp(top)[1] + math.frexp(width)[1] > _UNIT_EXPONENT:
        top = np.abs((diag, r_plus, r_minus)).max(axis=0)
        k = np.maximum(0, np.frexp(top)[1] + math.frexp(width)[1] - _UNIT_EXPONENT)
        unit = np.ldexp(unit, k)
        np.ldexp(scratch, -k[:, None], out=scratch)
        diag, r_plus, r_minus = (np.ldexp(v, -k) for v in (diag, r_plus, r_minus))
    off_sum = scratch.sum(axis=1)
    row_sum = diag + off_sum
    nonpositive = r_plus == 0.0
    if np.all(nonpositive | (r_minus == 0.0)):
        # every row of one sign: its absolute sum is +-off_sum, bitwise
        off_diag_abs_sum = np.where(nonpositive, 0.0 - off_sum, off_sum + 0.0)
    else:
        # off_sum and the absolute sum run on one buffer in one order
        np.abs(scratch, out=scratch)
        off_diag_abs_sum = scratch.sum(axis=1)
    upper = np.maximum((width - 1) * r_plus - off_sum, 0.0)
    lower = np.maximum(off_sum - (width - 1) * r_minus, 0.0)
    return (diag, r_plus, r_minus, row_sum, off_diag_abs_sum,
            np.where(nonpositive, off_diag_abs_sum, upper),
            np.where(r_minus == 0.0, off_diag_abs_sum, lower),
            row_sum - width * r_plus, row_sum - width * r_minus, shift, unit)


def row_stats(A: Tensor) -> RowStats:
    """Compute all per-row aggregates in one sweep, reusing one scratch
    buffer of at most ``_BLOCK_ENTRIES`` entries over blocks of whole rows."""
    rows, pos = _row_layout(A)
    n, width = rows.shape
    return RowStats(*_blockwise(_row_sweep, _scratch(n, width), rows, pos,
                                rows[np.arange(n), pos]), width=float(width))


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
    zero_based = _zero_based(members, A.dim, "index set member")
    if not zero_based:
        raise InputError("index set must be nonempty")
    if any(a >= b for a, b in zip(zero_based, zero_based[1:])):
        raise InputError("index set must be strictly increasing")
    return Tensor._wrap(A.array[np.ix_(*([zero_based] * A.order))])


def is_symmetric(A: Tensor) -> bool:
    """True when the entries are invariant under every index permutation.

    The comparison is exact, so only two permutations of the axes are
    checked: the swap of the first two and the cyclic shift of all of
    them, which generate every permutation (for a matrix they are the
    same, the transpose).
    """
    arr = A.array
    shifted = arr.transpose((*range(1, A.order), 0))
    return (np.array_equal(arr, arr.swapaxes(0, 1))
            and (A.order == 2 or np.array_equal(arr, shifted)))
