"""Localization intervals for real eigenvalues and H-eigenvalues.

Three localization constructions are provided, each valid under its own
precondition (Z-tensors; even-order symmetric tensors; odd order or
dimension 2), plus the classical Gerschgorin row discs as a comparison
baseline, the Laplacian tensor of a uniform hypergraph with its spectral
bound, and sufficient positive (semi-)definiteness verdicts.

Interval endpoints are computed in floats with a fixed, deterministic
summation order; no outward rounding is applied.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import classes
from .core import (Tensor, _as_int, _diag_index, _header, _json_fields, is_symmetric,
                   row_stats)
from .errors import ClassViolationError, InputError, InternalError, PreconditionError


@dataclass(frozen=True, order=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise InternalError(f"interval with lo {self.lo} > hi {self.hi}")

    def contains(self, x, slack=0.0):
        return self.lo - slack <= x <= self.hi + slack

    def to_json_dict(self):
        return {"lo": float(self.lo), "hi": float(self.hi)}


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, pairwise disjoint closed intervals.

    Touching or overlapping inputs are merged on construction, so
    consecutive parts always satisfy ``p.hi < q.lo``.
    """

    parts: tuple = field(default_factory=tuple)

    @classmethod
    def from_intervals(cls, intervals):
        items = sorted(intervals)
        merged = []
        for part in items:
            if merged and part.lo <= merged[-1].hi:
                if part.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, part.hi)
            else:
                merged.append(part)
        return cls(parts=tuple(merged))

    def contains(self, x, slack=0.0):
        return any(p.contains(x, slack) for p in self.parts)

    def hull(self):
        if not self.parts:
            raise InternalError("empty interval union has no hull")
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def to_json_dict(self):
        return {"parts": [p.to_json_dict() for p in self.parts]}


@dataclass(frozen=True)
class DefinitenessVerdict:
    verdict: str  # positive_definite | positive_semidefinite | indefinite_possible
    method: str   # B_test (bound > 0: the same inequality) | interval_lower_bound
    bound: float | None = None

    def to_json_dict(self):
        return {"verdict": self.verdict, "method": self.method, "bound": self.bound}


def intervals_z(A: Tensor) -> IntervalUnion:
    """Real-eigenvalue enclosure for a Z-tensor.

    The row intervals [row sum, diag - off-diagonal sum] are, on a
    Z-tensor, bitwise the Gerschgorin discs [diag - R_i, diag + R_i] with
    R_i the absolute off-diagonal sum, so the merged union returned here
    is the Gerschgorin union once the Z check has passed.  Every real
    eigenvalue of the tensor lies in it.
    """
    stats = row_stats(A)
    z_witness = classes._z_witness(stats)
    if z_witness is not None:
        raise ClassViolationError(
            f"not a Z-tensor: row {z_witness['row']} has a positive off-diagonal "
            f"entry {z_witness['lhs']}", witness=z_witness)
    return _gerschgorin_union(stats)


def intervals_even_symmetric(A: Tensor) -> IntervalUnion:
    """Single enclosing interval for the H-eigenvalues of an even-order
    symmetric tensor.

    The underlying bound is a union of [L_i, U_j] over all row pairs (L, U
    as in :class:`~btensor.core.RowStats`), but since L_i <= U_i for every
    row, that union is exactly [min L, max U]; only it is returned.
    """
    stats = _even_symmetric_stats(A)
    return IntervalUnion.from_intervals([Interval(
        float(stats.in_units(stats.lows).min()), float(stats.in_units(stats.highs).max()))])


def _even_symmetric_stats(A):
    """``row_stats(A)`` once A is checked to be of even order and symmetric."""
    if A.order % 2 != 0:
        raise PreconditionError(f"order must be even, got {A.order}")
    if not is_symmetric(A):
        raise PreconditionError("tensor must be symmetric")
    return row_stats(A)


def intervals_odd_or_n2(A: Tensor) -> IntervalUnion:
    """Merged union of the per-row intervals [L_i, U_i]; valid for odd
    order or dimension 2, where it encloses every H-eigenvalue."""
    if A.order % 2 == 0 and A.dim != 2:
        raise PreconditionError(
            f"order {A.order} is even and dim {A.dim} != 2; bound not applicable")
    stats = row_stats(A)
    return _union(stats, stats.lows, stats.highs)


def intervals_gerschgorin(A: Tensor) -> IntervalUnion:
    """Classical row discs [diag - absolute off-diagonal sum, diag + same]."""
    return _gerschgorin_union(row_stats(A))


def _gerschgorin_union(stats):
    return _union(stats, stats.diag - stats.off_diag_abs_sum,
                  stats.diag + stats.off_diag_abs_sum)


def _union(stats, lows, highs):
    """Merged union of the row intervals [lows_i, highs_i], given in the row
    units."""
    return IntervalUnion.from_intervals(
        map(Interval, stats.in_units(lows).tolist(), stats.in_units(highs).tolist()))


def _as_list(value, name):
    try:
        return list(value)
    except TypeError:
        raise InputError(f"{name} must be a list, got {value!r}") from None


@dataclass(frozen=True)
class Hypergraph:
    """Uniform hypergraph: every edge has exactly ``m`` distinct vertices
    drawn from 1..n.  Edges are stored as sorted tuples."""

    n: int
    m: int
    edges: tuple

    def __init__(self, n, m, edges):
        n = _as_int(n, "vertex count")
        if n < 1:
            raise InputError(f"vertex count must be positive, got {n}")
        m = _as_int(m, "edge cardinality")
        if m < 2:
            raise InputError(f"edge cardinality must be at least 2, got {m}")
        canon = []
        seen = set()
        for edge in _as_list(edges, "edge list"):
            edge = _as_list(edge, "edge")
            vertices = tuple(sorted(_as_int(v, "edge vertex") for v in edge))
            if len(vertices) != m or len(set(vertices)) != m:
                raise InputError(f"edge {edge} must have exactly {m} distinct vertices")
            if not all(1 <= v <= n for v in vertices):
                raise InputError(f"edge {edge} has vertices outside [1, {n}]")
            if vertices in seen:
                raise InputError(f"duplicate edge {list(vertices)}")
            seen.add(vertices)
            canon.append(vertices)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def degrees(self):
        counts = np.zeros(self.n)
        for edge in self.edges:
            for v in edge:
                counts[v - 1] += 1.0
        return counts

    @classmethod
    def from_json_dict(cls, obj):
        return cls(*_json_fields(obj, "hypergraph", "n", "m", "edges"))

    def to_json_dict(self):
        return {"n": self.n, "m": self.m, "edges": [list(e) for e in self.edges]}


def laplacian_tensor(G: Hypergraph) -> Tensor:
    """Degree diagonal minus 1/(m-1)! times the adjacency pattern.

    For each edge and each of its vertices i, every permutation of the
    remaining vertices receives the entry -1/(m-1)!, which makes all row
    sums zero and the result a Z-tensor.
    """
    m, n, _ = _header(G.m, G.n)
    arr = np.zeros((n,) * m)
    weight = -1.0 / math.factorial(m - 1)
    for edge in G.edges:
        for v in edge:
            rest = [u - 1 for u in edge if u != v]
            for perm in itertools.permutations(rest):
                arr[(v - 1,) + perm] = weight
    degrees = G.degrees
    arr[_diag_index(n, m)] = degrees
    return Tensor._wrap(arr)


def laplacian_bounds(G: Hypergraph) -> Interval:
    """Spectral enclosure [0, 2 * max degree] for the hypergraph Laplacian."""
    return Interval(0.0, 2.0 * float(G.degrees.max()))


def definiteness(A: Tensor) -> DefinitenessVerdict:
    """Sufficient positive (semi-)definiteness verdicts for an even-order
    symmetric tensor, decided by the lower endpoint min L of its
    localization interval.

    L_i = row_sum_i - n**(m-1) r_plus_i is also the B-tensor margin of row
    i, so a positive bound and the B test are one inequality, bitwise too
    (a rounded x - y is positive exactly when x > y): the tensor is a
    positive definite B-tensor, reported with method ``B_test`` and no
    bound.  A zero bound gives ``positive_semidefinite``; a negative one
    the fallback ``indefinite_possible``, which never claims indefiniteness.
    """
    stats = _even_symmetric_stats(A)
    bound = float(stats.in_units(stats.lows).min())
    if bound > 0.0:
        return DefinitenessVerdict("positive_definite", "B_test")
    if bound >= 0.0:
        return DefinitenessVerdict("positive_semidefinite", "interval_lower_bound", bound)
    return DefinitenessVerdict("indefinite_possible", "interval_lower_bound", bound)
