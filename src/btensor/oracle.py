"""Desk-scale H-eigenpair computation.

For dimension 2 the eigenvalue equation reduces to a univariate
polynomial whose real roots enumerate the full H-spectrum, so the result
is exhaustive up to root-finding tolerance.  For larger dimensions a
seeded, shifted fixed-point search returns a deterministic subset of the
spectrum; completeness is not claimed there, and an empty result is a
legal outcome.

Every returned pair is re-verified through :func:`residual`, an
independent code path from the solvers.  Eigenvectors are normalized to
max-norm 1 with the first nonzero component positive (a vector and its
negation always carry the same eigenvalue, so nothing is lost).

The localization results for Z-tensors concern real eigenvalues that may
have complex eigenvectors; this oracle only produces H-eigenpairs (real
eigenvectors), so those results are validated on the H-subset of the
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import Tensor, contract
from .errors import InputError, PreconditionError

_COEFF_CUTOFF = 1e-12
_BISECT_WIDTH = 1e-13
_DEDUPE_TOL = 1e-9


@dataclass(frozen=True)
class EigenPair:
    lam: float
    x: np.ndarray
    residual: float

    def to_json_dict(self):
        return {"lambda": self.lam, "x": [float(v) for v in self.x],
                "residual": self.residual}


def residual(A: Tensor, lam: float, x) -> float:
    """Max-norm of the eigenvalue equation defect after scaling x to max-norm 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape == (A.dim,) and not np.any(x != 0.0):
        raise InputError("eigenvector must be nonzero")
    scale = np.max(np.abs(x)) if x.ndim == 1 and x.size else 1.0
    xc = x / scale
    defect = contract(A, xc) - lam * xc ** (A.order - 1)
    return float(np.max(np.abs(defect)))


def _canonical(x):
    """Scale to max-norm 1 and flip so the first nonzero component is positive."""
    x = np.asarray(x, dtype=np.float64)
    x = x / np.max(np.abs(x))
    first = x[np.argmax(x != 0.0)]
    if first < 0:
        x = -x
    x.setflags(write=False)
    return x


# ---------------------------------------------------------------------------
# univariate real roots: square-free reduction, Cauchy bound, bisection

def _strip(c):
    """Drop leading coefficients below the relative cutoff (ascending order)."""
    c = np.asarray(c, dtype=np.float64)
    top = np.max(np.abs(c)) if c.size else 0.0
    if top == 0.0:
        return np.zeros(0)
    k = c.size
    while k > 0 and abs(c[k - 1]) <= _COEFF_CUTOFF * top:
        k -= 1
    return c[:k]

def _eval(c, t):
    result = 0.0
    for coeff in c[::-1]:
        result = result * t + coeff
    return result


def _deriv(c):
    if c.size <= 1:
        return np.zeros(0)
    return c[1:] * np.arange(1, c.size)


def _gcd(a, b):
    """Euclidean polynomial gcd with a coefficient-magnitude cutoff."""
    a = _strip(a / np.max(np.abs(a)))
    b = _strip(b / np.max(np.abs(b))) if b.size else b
    while b.size:
        _, r = npoly.polydiv(a, b)
        r = _strip(r)
        if r.size:
            r = r / np.max(np.abs(r))
        a, b = b, r
    return a


def _square_free(c):
    d = _deriv(c)
    if d.size == 0:
        return c
    g = _gcd(c, d)
    if g.size <= 1:
        return c
    q, _ = npoly.polydiv(c, g)
    q = _strip(q)
    return q if q.size else c


def _bisect(c, a, b, fa):
    while b - a > _BISECT_WIDTH:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = _eval(c, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _isolated_roots(c):
    """All real roots of ``c`` found by bracketing between critical points.

    The recursion only needs the sign-change roots of the derivative
    (local extrema); even-multiplicity derivative roots are monotone
    pass-throughs and may be missed harmlessly.
    """
    degree = c.size - 1
    if degree < 1:
        return []
    if degree == 1:
        return [-c[0] / c[1]]
    critical = _isolated_roots(_strip(_deriv(c)))
    bound = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    points = [-bound] + sorted(t for t in critical if -bound < t < bound) + [bound]
    values = [_eval(c, p) for p in points]
    roots = []
    for (a, fa), (b, fb) in zip(zip(points, values), zip(points[1:], values[1:])):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(_bisect(c, a, b, fa))
    if values[-1] == 0.0:
        roots.append(points[-1])
    return roots


def _polish(c, d, t):
    """A few guarded Newton steps after bisection; keeps determinism."""
    ft = abs(_eval(c, t))
    for _ in range(3):
        slope = _eval(d, t)
        if slope == 0.0:
            break
        step = t - _eval(c, t) / slope
        if not np.isfinite(step):
            break
        fs = abs(_eval(c, step))
        if fs < ft:
            t, ft = step, fs
        else:
            break
    return t


def _real_roots(c):
    """Sorted distinct real roots of the polynomial with ascending coefficients."""
    c = _strip(c)
    if c.size <= 1:
        return []
    sf = _square_free(c)
    d = _deriv(sf)
    roots = sorted(_polish(sf, d, t) for t in _isolated_roots(sf))
    distinct = []
    for t in roots:
        if not distinct or abs(t - distinct[-1]) > 1e-12 * max(1.0, abs(t)):
            distinct.append(t)
    return distinct


# ---------------------------------------------------------------------------
# dimension 2: exhaustive enumeration via the chart polynomials

def eigenpairs_n2(A: Tensor, tol: float = 1e-8) -> list[EigenPair]:
    """All H-eigenpairs of a dimension-2 tensor, up to root-finding tolerance.

    The chart x = (1, t) turns the eigenvalue equation into a single
    polynomial of degree at most 2(m-1); the chart x = (0, 1) contributes
    the pair (a[2,...,2], (0, 1)) exactly when a[1, 2, ..., 2] is zero.
    If the chart polynomial vanishes identically, every direction with a
    nonzero first component is an eigenvector (a continuum); the
    representative directions t in {0, 1, -1} are returned in that case.
    """
    if A.dim != 2:
        raise PreconditionError(f"exhaustive enumeration needs dim 2, got {A.dim}")
    m = A.order
    rows = A.array.reshape(2, -1)
    # flat index bits select component 2; the degree in t is the bit count
    counts = np.array([i.bit_count() for i in range(2 ** (m - 1))])
    p1 = np.bincount(counts, weights=rows[0], minlength=m)
    p2 = np.bincount(counts, weights=rows[1], minlength=m)
    g = np.zeros(2 * m - 1)
    g[:m] += p2
    g[m - 1:] -= p1

    if np.all(g == 0.0):
        ts = [0.0, 1.0, -1.0]
    else:
        # integer probes that evaluate to exactly zero are roots of the
        # stored polynomial; listed first, they win over bisection twins
        probes = [t for t in (0.0, 1.0, -1.0) if _eval(g, t) == 0.0]
        ts = []
        for t in probes + _real_roots(g):
            if all(abs(t - u) > 1e-12 * max(1.0, abs(t)) for u in ts):
                ts.append(t)

    pairs = []
    for t in ts:
        x = _canonical(np.array([1.0, t]))
        lam = _eval(p1, t) + 0.0  # normalizes -0.0
        res = residual(A, lam, x)
        if res <= tol:
            pairs.append(EigenPair(float(lam), x, res))
    if rows[0, -1] == 0.0:
        x = _canonical(np.array([0.0, 1.0]))
        lam = float(rows[1, -1]) + 0.0
        res = residual(A, lam, x)
        if res <= tol:
            pairs.append(EigenPair(lam, x, res))
    return _dedupe_sort(pairs)


# ---------------------------------------------------------------------------
# general dimension: seeded shifted fixed-point search

def eigen_search(A: Tensor, restarts: int = 64, seed: int = 0,
                 tol: float = 1e-8) -> list[EigenPair]:
    """Deterministic heuristic H-eigenpair search; returns a subset of the
    spectrum (possibly empty).

    Each seeded start runs a shifted fixed-point iteration on the
    eigenvalue equation twice, once on the tensor and once on its
    negation, which steers the iteration toward the high and the low end
    of the spectrum respectively.  The shift starts at a row-sum magnitude
    bound on the spectrum and is halved per start whenever the defect
    stops shrinking.  All starts iterate as one batch (capped at 10**4
    steps); converged vectors are re-verified through :func:`residual`,
    deduplicated and sorted.
    """
    if not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise InputError(f"restarts must be a positive integer, got {restarts!r}")
    n, m = A.dim, A.order
    rows = A.array.reshape(n, -1)
    # every H-eigenvalue is bounded in magnitude by the largest absolute row sum
    alpha0 = 1.0 + float(np.abs(rows).sum(axis=1).max())

    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, n))
    zero_rows = ~np.any(starts != 0.0, axis=1)
    starts[zero_rows, 0] = 1.0
    starts = _canonical_rows(starts)

    pairs = []
    for sign in (1.0, -1.0):
        for x in _batched_fixed_point(sign * rows, m, starts, alpha0, tol):
            z = contract(A, x)
            xm = x ** (m - 1)
            lam = float(z @ xm / (xm @ xm)) + 0.0
            res = residual(A, lam, x)
            if res <= tol:
                x = x.copy()
                x.setflags(write=False)
                pairs.append(EigenPair(lam, x, res))
    return _dedupe_sort(pairs)


def _canonical_rows(X):
    """Row-wise max-norm scaling with the first nonzero component positive."""
    X = X / np.max(np.abs(X), axis=1, keepdims=True)
    first = X[np.arange(X.shape[0]), np.argmax(X != 0.0, axis=1)]
    X[first < 0.0] *= -1.0
    return X


def _batched_fixed_point(rows, m, starts, alpha0, tol, max_iter=10_000):
    """Run the shifted fixed-point iteration on all starts at once.

    Yields the converged/best vectors (defect within ``tol``) in start
    order; rows are retired as they converge or stagnate, shrinking the
    batch.
    """
    k = starts.shape[0]
    X = starts.copy()
    alpha = np.full(k, alpha0)
    prev = np.full(k, np.inf)
    best_res = np.full(k, np.inf)
    best_X = X.copy()
    last_improve = np.zeros(k, dtype=int)
    order = np.arange(k)
    power = 1.0 / (m - 1)
    finished = {}

    for it in range(max_iter):
        if X.shape[0] == 0:
            break
        W = X
        for _ in range(m - 2):
            W = (W[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
        Z = W @ rows.T
        XM = X ** (m - 1)
        lam = (Z * XM).sum(axis=1) / (XM * XM).sum(axis=1)
        res = np.max(np.abs(Z - lam[:, None] * XM), axis=1)

        improved = res < best_res * (1.0 - 1e-6)
        best_res[improved] = res[improved]
        best_X[improved] = X[improved]
        last_improve[improved] = it

        done = res <= 0.9 * tol
        stuck = (it - last_improve > 200) & ~done
        retire = done | stuck
        if retire.any():
            for i in np.nonzero(retire)[0]:
                if best_res[i] <= tol:
                    finished[order[i]] = best_X[i]
            keep = ~retire
            X, alpha, prev = X[keep], alpha[keep], prev[keep]
            best_res, best_X = best_res[keep], best_X[keep]
            last_improve, order, res = last_improve[keep], order[keep], res[keep]
            Z, XM = Z[keep], XM[keep]
            if X.shape[0] == 0:
                break

        alpha[res > prev] *= 0.5
        prev = res
        Y = Z + alpha[:, None] * XM
        if m % 2 == 0:
            Xn = np.sign(Y) * np.abs(Y) ** power
        else:
            # even component powers lose the sign; keep the current pattern
            signs = np.where(X != 0.0, np.sign(X), 1.0)
            Xn = signs * np.maximum(Y, 0.0) ** power
        tops = np.max(np.abs(Xn), axis=1)
        bad = (tops == 0.0) | ~np.all(np.isfinite(Xn), axis=1)
        if bad.any():
            for i in np.nonzero(bad)[0]:
                if best_res[i] <= tol:
                    finished[order[i]] = best_X[i]
            keep = ~bad
            X, alpha, prev = X[keep], alpha[keep], prev[keep]
            best_res, best_X = best_res[keep], best_X[keep]
            last_improve, order, Xn = last_improve[keep], order[keep], Xn[keep]
            if X.shape[0] == 0:
                break
        X = _canonical_rows(Xn)

    for i in range(X.shape[0]):
        if best_res[i] <= tol:
            finished[order[i]] = best_X[i]
    return [finished[i] for i in sorted(finished)]


def _dedupe_sort(pairs):
    """Collapse pairs equal within the dedupe tolerance in both the
    eigenvalue and the direction, preferring the smallest residual."""
    ordered = sorted(pairs, key=lambda p: (p.lam, tuple(p.x)))
    kept = []
    for p in ordered:
        for slot, q in enumerate(kept):
            if (abs(p.lam - q.lam) <= _DEDUPE_TOL
                    and np.max(np.abs(p.x - q.x)) <= _DEDUPE_TOL):
                if p.residual < q.residual:
                    kept[slot] = p
                break
        else:
            kept.append(p)
    return sorted(kept, key=lambda p: (p.lam, tuple(p.x)))
