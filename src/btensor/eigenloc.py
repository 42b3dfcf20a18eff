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
from .core import DEFAULT_ENTRY_CAP, Tensor, _as_int, is_symmetric, row_stats
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
    """Row intervals [row sum, diag - off-diagonal sum] for a Z-tensor.

    Every real eigenvalue of the tensor lies in the merged union.
    """
    stats = row_stats(A)
    z_witness = classes._z_witness(stats)
    if z_witness is not None:
        raise ClassViolationError(
            f"not a Z-tensor: row {z_witness['row']} has a positive off-diagonal "
            f"entry {z_witness['lhs']}", witness=z_witness)
    parts = [Interval(float(lo), float(hi))
             for lo, hi in zip(stats.row_sum, stats.diag - stats.off_diag_sum)]
    return IntervalUnion.from_intervals(parts)


def intervals_even_symmetric(A: Tensor) -> IntervalUnion:
    """Single enclosing interval for the H-eigenvalues of an even-order
    symmetric tensor.

    The underlying bound is a union of [L_i, U_j] over all row pairs (L, U
    as in :class:`~btensor.core.RowStats`), but since L_i <= U_i for every
    row, that union is exactly [min L, max U]; only it is returned.
    """
    if A.order % 2 != 0:
        raise PreconditionError(f"order must be even, got {A.order}")
    if not is_symmetric(A):
        raise PreconditionError("tensor must be symmetric")
    stats = row_stats(A)
    return IntervalUnion.from_intervals(
        [Interval(float(stats.lows.min()), float(stats.highs.max()))])


def intervals_odd_or_n2(A: Tensor) -> IntervalUnion:
    """Merged union of the per-row intervals [L_i, U_i]; valid for odd
    order or dimension 2, where it encloses every H-eigenvalue."""
    if A.order % 2 == 0 and A.dim != 2:
        raise PreconditionError(
            f"order {A.order} is even and dim {A.dim} != 2; bound not applicable")
    stats = row_stats(A)
    parts = [Interval(float(lo), float(hi)) for lo, hi in zip(stats.lows, stats.highs)]
    return IntervalUnion.from_intervals(parts)


def intervals_gerschgorin(A: Tensor) -> IntervalUnion:
    """Classical row discs [diag - absolute off-diagonal sum, diag + same]."""
    stats = row_stats(A)
    parts = [Interval(float(d - s), float(d + s))
             for d, s in zip(stats.diag, stats.off_diag_abs_sum)]
    return IntervalUnion.from_intervals(parts)


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
        for edge in edges:
            vertices = tuple(sorted(_as_int(v, "edge vertex") for v in edge))
            if len(vertices) != m or len(set(vertices)) != m:
                raise InputError(f"edge {list(edge)} must have exactly {m} distinct vertices")
            if not all(1 <= v <= n for v in vertices):
                raise InputError(f"edge {list(edge)} has vertices outside [1, {n}]")
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
        if not isinstance(obj, dict):
            raise InputError("hypergraph JSON must be an object")
        try:
            return cls(obj["n"], obj["m"], obj["edges"])
        except KeyError as missing:
            raise InputError(f"hypergraph JSON lacks required field {missing}") from None

    def to_json_dict(self):
        return {"n": self.n, "m": self.m, "edges": [list(e) for e in self.edges]}


def laplacian_tensor(G: Hypergraph, entry_cap=DEFAULT_ENTRY_CAP) -> Tensor:
    """Degree diagonal minus 1/(m-1)! times the adjacency pattern.

    For each edge and each of its vertices i, every permutation of the
    remaining vertices receives the entry -1/(m-1)!, which makes all row
    sums zero and the result a Z-tensor.
    """
    n, m = G.n, G.m
    if n**m > entry_cap:
        raise InputError(f"Laplacian tensor exceeds the entry cap of {entry_cap}")
    arr = np.zeros((n,) * m)
    weight = -1.0 / math.factorial(m - 1)
    for edge in G.edges:
        for v in edge:
            rest = [u - 1 for u in edge if u != v]
            for perm in itertools.permutations(rest):
                arr[(v - 1,) + perm] = weight
    degrees = G.degrees
    arr[tuple([np.arange(n)] * m)] = degrees
    return Tensor.from_array(arr, entry_cap=entry_cap)


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

    Near DBL_MAX, L comes from power-of-two scaled rows and can stay
    positive where :func:`~btensor.classes.is_b` compares inf with inf.
    """
    if A.order % 2 != 0:
        raise PreconditionError(f"order must be even, got {A.order}")
    if not is_symmetric(A):
        raise PreconditionError("tensor must be symmetric")
    bound = float(row_stats(A).lows.min())
    if bound > 0.0:
        return DefinitenessVerdict("positive_definite", "B_test")
    if bound >= 0.0:
        return DefinitenessVerdict("positive_semidefinite", "interval_lower_bound", bound)
    return DefinitenessVerdict("indefinite_possible", "interval_lower_bound", bound)
