"""Reference answers and output checks, computed from the definitions.

Nothing here imports the package under test.  Rows are processed one at
a time, so the checks add at most one row of temporaries to the peak
memory the benchmark reports.  Every check raises :class:`CheckError`
with a short reason when an output is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
import string

import numpy as np

FLAG_NAMES = ("Z", "B", "B0", "doublyB", "SDD", "SDDD", "F_B", "F_doublyB")

#: Slack for "eigenvalue lies in interval", relative to max(1, |lambda|).
CONTAIN_SLACK = 1e-9
#: Eigenpairs whose eigenvalues and max-normalized vectors agree this closely
#: are counted as one distinct pair.
CLUSTER_TOL = 1e-6


class CheckError(Exception):
    """An output failed its independent check."""


def require(condition, reason):
    if not condition:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# per-row facts

class RowFacts:
    """Per-row scalars of a tensor, each an array of length n.

    ``off_*`` range over the off-diagonal entries of the row;
    ``up_def`` is the sum of (r_plus - a) and ``low_exc`` the sum of
    (a - r_minus) over them.
    """

    def __init__(self, arr, flip=False):
        n, m = arr.shape[0], arr.ndim
        self.n, self.m = n, m
        self.width = n ** (m - 1)
        rows = arr.reshape(n, self.width)
        fields = ("d", "row_sum", "off_max", "off_min", "off_sum", "abs_sum",
                  "up_def", "low_exc")
        values = {name: np.zeros(n) for name in fields}
        tail = (n,) * (m - 1)
        for i in range(n):
            row = rows[i]
            pos = int(np.ravel_multi_index((i,) * (m - 1), tail))
            if flip:
                row = np.sign(row[pos]) * row
            off = np.delete(row, pos)
            r_plus = max(float(off.max()), 0.0) if off.size else 0.0
            r_minus = min(float(off.min()), 0.0) if off.size else 0.0
            values["d"][i] = row[pos]
            values["row_sum"][i] = row.sum()
            values["off_max"][i] = off.max() if off.size else -np.inf
            values["off_min"][i] = off.min() if off.size else np.inf
            values["off_sum"][i] = off.sum()
            values["abs_sum"][i] = np.abs(off).sum()
            values["up_def"][i] = (r_plus - off).sum()
            values["low_exc"][i] = (off - r_minus).sum()
        for name, value in values.items():
            setattr(self, name, value)
        self.r_plus = np.maximum(self.off_max, 0.0)
        self.r_minus = np.minimum(self.off_min, 0.0)


def _pairwise(g, h):
    """For all i != j: g_i g_j > h_i h_j."""
    left = np.outer(g, g)
    right = np.outer(h, h)
    ok = left > right
    np.fill_diagonal(ok, True)
    return bool(ok.all())


def _b(f, strict=True):
    bound = f.width * f.off_max
    if strict:
        return bool(np.all((f.row_sum > 0) & ((f.off_max == -np.inf) | (f.row_sum > bound))))
    return bool(np.all((f.row_sum >= 0) & ((f.off_max == -np.inf) | (f.row_sum >= bound))))


def _doubly_b(f):
    if not np.all(f.d > f.r_plus):
        return False
    return _pairwise(f.d - f.r_plus, f.up_def)


def _safe_scale(arr):
    """Scale by a power of two (exact) when row sums or their products could overflow."""
    top = float(np.max(np.abs(arr)))
    width = arr.size // arr.shape[0]
    if top * width < 2.0 ** 480:
        return arr
    return np.ldexp(arr, -math.frexp(top)[1] - math.frexp(width)[1])


def flags(arr):
    """Class flags straight from the definitions of each class."""
    arr = _safe_scale(arr)
    f = RowFacts(arr)
    g = RowFacts(arr, flip=True)  # rows scaled by the sign of their diagonal
    return {
        "Z": bool(np.all(f.off_max <= 0)),
        "B": _b(f),
        "B0": _b(f, strict=False),
        "doublyB": _doubly_b(f),
        "SDD": bool(np.all(f.d > f.abs_sum)),
        "SDDD": bool(np.all(f.d > 0)) and _pairwise(f.d, f.abs_sum),
        "F_B": _b(g),
        "F_doublyB": _doubly_b(g),
    }


def is_symmetric(arr):
    """Invariance under the adjacent index swaps, which generate every permutation."""
    return all(np.array_equal(arr, np.swapaxes(arr, k, k + 1)) for k in range(arr.ndim - 1))


# ---------------------------------------------------------------------------
# intervals

def merge(parts):
    merged = []
    for lo, hi in sorted(parts):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(p) for p in merged]


def intervals(arr, method, facts=None):
    """Reference interval union for one of the library's four methods."""
    f = facts or RowFacts(arr)
    if method == "z":
        return merge(zip(f.row_sum, f.d - f.off_sum))
    if method == "gerschgorin":
        return merge(zip(f.d - f.abs_sum, f.d + f.abs_sum))
    lows = f.d - f.r_plus - f.up_def
    highs = f.d - f.r_minus + f.low_exc
    if method == "even-sym":
        return [(float(lows.min()), float(highs.max()))]
    if method == "odd-n2":
        return merge(zip(lows, highs))
    raise ValueError(method)


def interval_tol(facts):
    scale = np.abs(facts.d) + facts.abs_sum + facts.width * np.maximum(
        facts.r_plus, -facts.r_minus)
    return 1e-11 * (1.0 + float(scale.max()))


def check_union(parts, ref, tol):
    """``parts`` is a list of (lo, hi); compare with the reference union."""
    require(len(parts) == len(ref), f"{len(parts)} interval parts, expected {len(ref)}")
    for (lo, hi), (rlo, rhi) in zip(parts, ref):
        require(abs(lo - rlo) <= tol and abs(hi - rhi) <= tol,
                f"interval [{lo}, {hi}] differs from reference [{rlo}, {rhi}]")


def contains(parts, lam):
    slack = CONTAIN_SLACK * max(1.0, abs(lam))
    return any(lo - slack <= lam <= hi + slack for lo, hi in parts)


def applicable_methods(arr, flag_map, symmetric):
    """Interval methods whose precondition holds for this tensor."""
    n, m = arr.shape[0], arr.ndim
    methods = ["gerschgorin"]
    if flag_map["Z"]:
        methods.append("z")
    if m % 2 == 1 or n == 2:
        methods.append("odd-n2")
    if m % 2 == 0 and symmetric:
        methods.append("even-sym")
    return methods


def definiteness(arr, flag_map):
    """Expected verdict for an even-order symmetric tensor."""
    if flag_map["B"]:
        return "positive_definite"
    bound = intervals(arr, "even-sym")[0][0]
    if bound > 0.0:
        return "positive_definite"
    if bound >= 0.0:
        return "positive_semidefinite"
    return "indefinite_possible"


# ---------------------------------------------------------------------------
# decompositions

def check_decomposition(arr, part_b, part_c, eps, kind, row_constants=None):
    """B + C reproduces A to 4 ulps; B is a Z-tensor of A's class; C >= 0."""
    require(math.isfinite(eps) and eps > 0.0, f"epsilon {eps} is not positive")
    n, m = arr.shape[0], arr.ndim
    width = n ** (m - 1)
    tail = (n,) * (m - 1)
    a_rows, b_rows, c_rows = (x.reshape(n, width) for x in (arr, part_b, part_c))
    for i in range(n):
        a, b, c = a_rows[i], b_rows[i], c_rows[i]
        limit = 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(c)))
        require(np.all(np.abs(b + c - a) <= limit), f"row {i + 1}: B + C != A")
        pos = int(np.ravel_multi_index((i,) * (m - 1), tail))
        require(np.all(np.delete(b, pos) <= 0.0), f"row {i + 1}: B has a positive off-diagonal")
        require(np.all(c >= 0.0), f"row {i + 1}: C has a negative entry")
        if row_constants is not None:
            require(np.all(np.delete(c, pos) == row_constants[i])
                    and c[pos] == row_constants[i] + eps,
                    f"row {i + 1}: C is not row constant plus epsilon")
    member = _b if kind == "B" else _doubly_b
    require(member(RowFacts(part_b)), f"part B is not a {kind}-tensor")
    require(member(RowFacts(part_c)), f"part C is not a {kind}-tensor")


# ---------------------------------------------------------------------------
# eigenpairs

def residual(arr, lam, x):
    """Max-norm defect of A x^(m-1) = lam x^[m-1], with x scaled to max-norm 1."""
    m = arr.ndim
    x = np.asarray(x, dtype=float)
    x = x / np.max(np.abs(x))
    letters = string.ascii_letters[:m]
    spec = letters + "," + ",".join(letters[1:]) + "->" + letters[0]
    ax = np.einsum(spec, arr, *([x] * (m - 1)))
    return float(np.max(np.abs(ax - lam * x ** (m - 1))))


def canonical(x):
    x = np.asarray(x, dtype=float)
    x = x / np.max(np.abs(x))
    return -x if x[np.argmax(x != 0.0)] < 0 else x


def count_distinct(pairs):
    """Distinct (lambda, x) clusters at CLUSTER_TOL, pairs given as (lam, x)."""
    kept = []
    for lam, x in sorted(pairs, key=lambda p: p[0]):
        x = canonical(x)
        if not any(abs(lam - q) <= CLUSTER_TOL * max(1.0, abs(lam))
                   and np.max(np.abs(x - y)) <= CLUSTER_TOL for q, y in kept):
            kept.append((lam, x))
    return len(kept)


def qi_bound(m, n):
    """Qi (2005): an order-m dim-n tensor has at most n (m-1)^(n-1) eigenvalues."""
    return n * (m - 1) ** (n - 1)


def check_pairs(arr, pairs, tol, unions):
    """Each returned (lam, x) solves the equation to ``tol`` and lies in every union.

    Returns the outcome counts the benchmark reports for the oracle.
    """
    for lam, x in pairs:
        require(math.isfinite(lam) and np.all(np.isfinite(x)) and np.any(np.asarray(x) != 0),
                f"eigenpair ({lam}, {list(x)}) is not finite and nonzero")
        res = residual(arr, lam, x)
        require(res <= tol, f"eigenpair lambda={lam} has residual {res} > {tol}")
        for method, parts in unions.items():
            require(contains(parts, lam), f"eigenvalue {lam} outside the {method} intervals")
    m, n = arr.ndim, arr.shape[0]
    reported = len({lam for lam, _ in pairs})
    return {"returned": len(pairs), "distinct": count_distinct(pairs),
            "violation": int(reported > qi_bound(m, n))}


def dim2_eigenvalues(arr):
    """All H-eigenvalues of a dim-2 tensor from the companion-matrix roots of
    the chart polynomial, or None when every direction is an eigenvector."""
    m = arr.ndim
    rows = arr.reshape(2, -1)
    degree = np.array([bin(i).count("1") for i in range(2 ** (m - 1))])
    p1 = np.bincount(degree, weights=rows[0], minlength=m)  # ascending powers of t
    p2 = np.bincount(degree, weights=rows[1], minlength=m)
    g = np.zeros(2 * m - 1)
    g[:m] += p2
    g[m - 1:] -= p1
    if not np.any(g):
        return None
    top = np.max(np.nonzero(g)[0])
    values = []
    if top > 0:
        for t in np.roots(g[top::-1]):
            if abs(t.imag) <= 1e-6 * (1.0 + abs(t)) and abs(t) <= 1e6:
                values.append(float(np.polyval(p1[::-1], t.real)))
    if rows[0, -1] == 0.0:
        values.append(float(rows[1, -1]))
    return values


def check_complete(found, expected):
    for lam in expected:
        require(any(abs(lam - mu) <= 1e-6 * max(1.0, abs(lam)) for mu in found),
                f"eigenvalue {lam} of the dim-2 spectrum is missing")


# ---------------------------------------------------------------------------
# laplacian

def laplacian(graph):
    n, m = graph["n"], graph["m"]
    arr = np.zeros((n,) * m)
    degrees = np.zeros(n)
    weight = -1.0 / math.factorial(m - 1)
    for edge in graph["edges"]:
        for perm in itertools.permutations([v - 1 for v in edge]):
            arr[perm] = weight
        for v in edge:
            degrees[v - 1] += 1.0
    arr[tuple([np.arange(n)] * m)] = degrees
    return arr, (0.0, 2.0 * float(degrees.max()))


# ---------------------------------------------------------------------------
# strict JSON

def _reject_constant(name):
    raise CheckError(f"output holds the non-JSON number {name}")


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are failures, not numbers."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
