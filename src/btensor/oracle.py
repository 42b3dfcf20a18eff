"""Desk-scale H-eigenpair computation.

For dimension 2 the eigenvalue equation reduces to a univariate
polynomial whose real roots enumerate the full H-spectrum, so the result
is exhaustive up to root-finding tolerance.  The polynomial is formed
from A divided by the power of two just above max|a|, so its roots scale
exactly with A and none of its derivatives overflows.  The roots are
isolated on lists of Python floats, with numpy's arithmetic in numpy's
order (``_polydiv`` divides as ``numpy.polynomial.polynomial.polydiv``
does, on the lists its callers pass), so they come out bitwise as on
numpy arrays, and a value past DBL_MAX becomes inf without a warning.
For larger dimensions a seeded, shifted fixed-point search returns a
deterministic subset of the spectrum; completeness is not claimed there,
and an empty result is a legal outcome.  The fixed point gives each start
a budget of ``_PASSES`` passes.  It hands each start whose defect falls
below ``_HANDOFF``, and each start still sound at the budget with its
best vector, to one run of Newton's method on all of them at once as a
stack of bordered n x n solves (see :func:`_batched_fixed_point`).  A
vector is kept only where Newton's method brings its defect within both
0.9 tol and ``_POLISH * max|a|``, so pairs on simple eigenvalues are
solved to rounding level, and starts that found the same pair merge in
the dedupe; a start that Newton's method fails gives no pair.

The fixed point contracts the tensor with x^(m-1) through its
symmetrization over the last m-1 indices, which gives the same vector:
once per search, A's entries are summed over each multiset of those
indices, and each pass multiplies these sums with the C(n+m-2, m-1)
distinct monomials of degree m-1 in x, for all starts at once.  Each
degree of monomials is one gather of those a degree lower times one
gathered component.  The batch is held component-major, one column per
start, so the per-start reductions run down the columns.  Newton's
Jacobian is sums derived from these once per search times the
C(n+m-3, m-2) monomials of degree m-2, built by the pass's lower steps.

Both solvers hand their candidates (x and the number of starts that
reached x; the dim-2 solver also its lambdas), in the order they made
them, to one step, :func:`_verified`.  It re-verifies all of them at
once: the defect of :func:`residual` on the stacked contraction
:func:`_contract_rows` is bitwise one :func:`residual` per candidate and
a code path independent of the solvers' monomial plan.  It keeps the
pairs within the tolerance and deduplicates and sorts them.  The
search's lambdas come from the same contraction.  Eigenvectors are
normalized to max-norm 1 with the first nonzero component positive (a
vector and its negation always carry the same eigenvalue, so nothing is
lost).

The localization results for Z-tensors concern real eigenvalues that may
have complex eigenvectors; this oracle only produces H-eigenpairs (real
eigenvectors), so those results are validated on the H-subset of the
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ENTRY_CAP, Tensor, _as_int, _contract_rows, contract
from .errors import InputError, PreconditionError

_COEFF_CUTOFF = 1e-12
_BISECT_WIDTH = 1e-13
_DEDUPE_TOL = 1e-9
_HANDOFF = 1e-3
_NEWTON_STEPS = 32
_POLISH = 1e-12
_PASSES = 50


@dataclass(frozen=True)
class EigenPair:
    lam: float
    x: np.ndarray
    residual: float

    def to_json_dict(self):
        return {"lambda": self.lam, "x": self.x.tolist(),
                "residual": self.residual}


def residual(A: Tensor, lam: float, x) -> float:
    """Max-norm of the eigenvalue equation defect after scaling x to max-norm 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape == (A.dim,) and not np.any(x != 0.0):
        raise InputError("eigenvector must be nonzero")
    scale = np.max(np.abs(x)) if x.ndim == 1 and x.size else 1.0
    xc = x / scale
    z = contract(A, xc)
    return float(_defects(A, lam, xc[None, :], z[None, :])[0])


def _defects(A, lam, X, Z):
    """max|z - lam x^[m-1]| of each row x of the (k, n) array ``X``, with z
    its row of ``Z``, the contraction :func:`_contract_rows` of ``X``;
    ``lam`` is one eigenvalue or a column of k.  For x of max-norm 1 this
    is :func:`residual`."""
    return np.max(np.abs(Z - lam * X ** (A.order - 1)), axis=1)


# ---------------------------------------------------------------------------
# univariate real roots: square-free reduction, Cauchy bound, bisection

def _top(c):
    """The largest |c_i|, or NaN where some c_i is NaN, as ``np.max`` takes it."""
    return math.nan if any(map(math.isnan, c)) else max(map(abs, c))


def _strip(c):
    """Drop leading coefficients below the relative cutoff (ascending order)."""
    top = _top(c) if c else 0.0
    if top == 0.0:
        return []
    k = len(c)
    while k > 0 and abs(c[k - 1]) <= _COEFF_CUTOFF * top:
        k -= 1
    return c[:k]


def _eval(c, t):
    result = 0.0
    for coeff in reversed(c):
        result = result * t + coeff
    return result


def _deriv(c):
    return [v * i for i, v in enumerate(c[1:], 1)]


def _polydiv(c1, c2):
    """Quotient and remainder of ``c1 / c2`` for ``_strip``ped lists, ``c1``
    no shorter than ``c2``: numpy's ``polydiv`` step for step, so the
    quotient is bitwise numpy's, and the untrimmed remainder is numpy's
    after ``_strip``."""
    c1, n2 = list(c1), len(c2)
    scl = c2[-1]
    c2 = [v / scl for v in c2[:-1]]
    for j in range(len(c1) - 1, n2 - 2, -1):
        q, i = c1[j], j - n2 + 1
        for k, v in enumerate(c2):
            c1[i + k] -= v * q
    return [v / scl for v in c1[n2 - 1:]], c1[:n2 - 1]


def _normalized(c):
    top = _top(c)
    return [v / top for v in c]


def _gcd(a, b):
    """Euclidean polynomial gcd with a coefficient-magnitude cutoff.  Once a
    coefficient is not finite the remainders never vanish, so the gcd is
    then the trivial [1.0]."""
    a, b = _strip(_normalized(a)), _strip(_normalized(b))
    while b:
        if not all(map(math.isfinite, a + b)):
            return [1.0]
        _, r = _polydiv(a, b)
        r = _strip(r)
        if r:
            r = _normalized(r)
        a, b = b, r
    return a


def _square_free(c):
    d = _deriv(c)
    if not d:
        return c
    g = _gcd(c, d)
    if len(g) <= 1:
        return c
    q, _ = _polydiv(c, g)
    q = _strip(q)
    return q if q else c


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
    degree = len(c) - 1
    if degree < 1:
        return []
    if degree == 1:
        return [-c[0] / c[1]]
    critical = _isolated_roots(_strip(_deriv(c)))
    bound = 1.0 + _top(c[:-1]) / abs(c[-1])
    points = [-bound] + sorted(t for t in critical if -bound < t < bound) + [bound]
    values = [_eval(c, p) for p in points]
    roots = []
    for (a, fa), (b, fb) in zip(zip(points, values), zip(points[1:], values[1:])):
        if fa == 0.0:
            roots.append(a)
        elif fa < 0.0 < fb or fb < 0.0 < fa:
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
        if not math.isfinite(step):
            break
        fs = abs(_eval(c, step))
        if fs < ft:
            t, ft = step, fs
        else:
            break
    return t


def _real_roots(c):
    """Sorted distinct real roots of the polynomial with ascending
    coefficients, whose derivatives, with coefficients below
    deg! * max|c_i|, must stay finite (``eigenpairs_n2``'s scaling keeps
    them below 2**320)."""
    c = _strip(c)
    if len(c) <= 1:
        return []
    sf = _square_free(c)
    d = _deriv(sf)
    return _distinct(sorted(_polish(sf, d, t) for t in _isolated_roots(sf)))


def _distinct(ts):
    """``ts`` without each value within 1e-12 (relative) of one kept before
    it, so an earlier value wins over its later twins."""
    kept = []
    for t in ts:
        if all(abs(t - u) > 1e-12 * max(1.0, abs(t)) for u in kept):
            kept.append(t)
    return kept


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
    The polynomials are formed from A / 2**e, 2**e the power of two just
    above max|a|, and each eigenvalue is multiplied back by 2**e, so every
    root and eigenvalue scales exactly with A where no entry is subnormal.

    Raises :class:`PreconditionError` when the eigenvalue bound, 1 plus the
    largest absolute row sum, exceeds the float range.
    """
    _check_tol(tol)
    if A.dim != 2:
        raise PreconditionError(f"exhaustive enumeration needs dim 2, got {A.dim}")
    m = A.order
    rows = A.array.reshape(2, -1)
    _spectral_bound(rows)
    # the chart coefficients of A / 2**e are below 2**m, and those of their
    # derivatives below (2m - 2)! * 2**m < 2**320, so all stay finite
    e = math.frexp(float(np.abs(rows).max()))[1]
    scaled = np.ldexp(rows, -e)
    # flat index bits select component 2; the degree in t is the bit count
    counts = np.array([i.bit_count() for i in range(2 ** (m - 1))])
    p1 = np.bincount(counts, weights=scaled[0], minlength=m)
    p2 = np.bincount(counts, weights=scaled[1], minlength=m)
    g = np.zeros(2 * m - 1)
    g[:m] += p2
    g[m - 1:] -= p1
    # lambda is p1(t), the first row's value, or, from the second row,
    # p2(t) / t**(m-1), which is p2 reversed at 1/t: where |t| > 1 that keeps
    # the powers of t, and the error they carry, below 1
    g, p1, r2 = g.tolist(), p1.tolist(), p2[::-1].tolist()

    if not any(g):
        ts = [0.0, 1.0, -1.0]
    else:
        # integer probes that evaluate to exactly zero are roots of the
        # stored polynomial; listed first, they win over bisection twins
        ts = _distinct([t for t in (0.0, 1.0, -1.0) if _eval(g, t) == 0.0] + _real_roots(g))
    X = [[1.0, t] for t in ts]
    # + 0.0 normalizes -0.0; a value past DBL_MAX is inf and fails the residual
    with np.errstate(over="ignore"):
        lams = (np.ldexp([_eval(p1, t) if abs(t) <= 1.0 else _eval(r2, 1.0 / t)
                          for t in ts], e) + 0.0).tolist()
    if rows[0, -1] == 0.0:
        X.append([0.0, 1.0])
        lams.append(float(rows[1, -1]) + 0.0)
    X = _canonical_rows(np.array(X).reshape(-1, 2))
    # _distinct made the candidates distinct, so each counts once
    return _verified(A, X, [1] * len(lams), tol, lams)[0]


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
    stops shrinking.  All 2 * ``restarts`` starts iterate as one batch for
    at most ``_PASSES`` (50) passes.  Every start that comes near a pair or
    is still sound at that budget then goes through one stacked Newton run,
    which keeps its vector only where it is polished to rounding level
    (see :func:`_batched_fixed_point`); the vectors are re-verified as
    :func:`residual` does, deduplicated and sorted.

    Raises :class:`PreconditionError` when the shift bound, 1 plus the
    largest absolute row sum, exceeds the float range, and
    :class:`InputError` when ``restarts`` exceeds the batch cap of
    :func:`search_report`."""
    return search_report(A, restarts=restarts, seed=seed, tol=tol)[0]


@dataclass
class SearchCounts:
    """What one :func:`eigen_search` did, start by start.

    Each of the 2 * ``restarts`` starts ends the fixed point as one of
    ``converged`` (defect within 0.9 tol), ``degenerate`` (the iterate left
    the float range or vanished), ``handed_off`` (defect below the hand-off
    threshold) or ``out_of_passes`` (still sound after the pass budget); the
    last two go on to Newton's method, which ``polished`` of them.
    ``halvings`` counts the times a start's shift was halved, ``passes`` the
    passes of the fixed-point loop over its batch and ``newton_steps`` the
    stacked bordered solves of the Newton run; ``pairs_found`` is the
    number of starts whose vector passed the residual check, ``pairs`` the
    number of pairs after the dedupe, and ``starts_per_pair``, aligned with
    the returned pairs, how many of those starts the dedupe collapsed into
    each: an eigenpair that only one start reached has 1 there.
    """

    converged: int = 0
    degenerate: int = 0
    handed_off: int = 0
    out_of_passes: int = 0
    polished: int = 0
    halvings: int = 0
    passes: int = 0
    newton_steps: int = 0
    pairs_found: int = 0
    pairs: int = 0
    starts_per_pair: tuple = ()


def search_report(A: Tensor, restarts: int = 64, seed: int = 0,
                  tol: float = 1e-8) -> tuple[list[EigenPair], SearchCounts]:
    """:func:`eigen_search` together with the :class:`SearchCounts` of the
    search; the pairs are the same.

    Many starts end on bitwise the same vector, so the vectors are grouped
    by their bits into candidates that carry their number of starts.  One
    stacked contraction of the distinct vectors, in :func:`_verified`,
    gives every lambda and every residual; the pairs and counts are those
    of one check per start.

    Raises :class:`InputError`, before anything is allocated, where
    ``restarts`` would make the monomial batch, the C(n+m-2, m-1) distinct
    monomials of each of the 2 * ``restarts`` starts, hold more than
    ``DEFAULT_ENTRY_CAP`` entries.  Newton's monomials are fewer; its n x n
    Jacobians are under twice the batch for m >= 3, n times it at m = 2."""
    _check_starts(restarts, seed)
    _check_tol(tol)
    n, m = A.dim, A.order
    most = DEFAULT_ENTRY_CAP // (2 * math.comb(n + m - 2, m - 1))
    if restarts > most:
        raise InputError(f"restarts must be at most {most} for order {m}, dim {n}, so that "
                         f"the search's C(n+m-2, m-1) x 2*restarts monomial batch stays "
                         f"within {DEFAULT_ENTRY_CAP} entries; got {restarts}")
    rows = A.array.reshape(n, -1)
    alpha0 = _spectral_bound(rows)

    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, n))
    zero_rows = ~np.any(starts != 0.0, axis=1)
    starts[zero_rows, 0] = 1.0
    starts = _canonical_rows(starts).T
    # columns [0, restarts) iterate on A, columns [restarts, 2 * restarts) on -A
    signs = np.repeat([1.0, -1.0], restarts)

    counts = SearchCounts()
    # the starts that reached bitwise the same vector make one candidate,
    # with their number, in first-seen order
    found = {}
    for x in _batched_fixed_point(rows, signs, m, np.hstack([starts, starts]),
                                  alpha0, tol, counts):
        found.setdefault(x.tobytes(), [x, 0])[1] += 1
    X = np.array([x for x, _ in found.values()]).reshape(-1, n)
    pairs, counts.starts_per_pair = _verified(A, X, [repeats for _, repeats in found.values()],
                                              tol)
    counts.pairs_found = sum(counts.starts_per_pair)
    counts.pairs = len(pairs)
    return pairs, counts


def _verified(A, X, repeats, tol, lams=None):
    """Re-verify the candidates, the rows x of ``X`` with their ``repeats``
    and eigenvalues ``lams``, in one stacked check, and pass those within
    ``tol``, each with a read-only copy of x and its repeats, to
    :func:`_dedupe_sort`, whose result is returned.  The candidates' order
    decides which of two pairs with tied sort keys is kept.

    Every x has max-norm 1, so x over its max-norm is x, and each row's
    defect on the stacked contraction :func:`_contract_rows` of ``X`` is
    bitwise its :func:`residual`.  Without ``lams``, each x's eigenvalue is
    taken from the same contraction as z . x^[m-1] / x^[m-1] . x^[m-1]."""
    Z = _contract_rows(A, X)
    if lams is None:
        XM = X ** (A.order - 1)
        # the stacked 1 x n by n x 1 products are those of one dot per
        # candidate; lambda may overflow on entries near DBL_MAX and is
        # refused then
        with np.errstate(over="ignore", invalid="ignore"):
            lams = ((Z[:, None, :] @ XM[:, :, None]) / (XM[:, None, :] @ XM[:, :, None])
                    + 0.0)[:, 0, 0].tolist()
    res = _defects(A, np.array(lams)[:, None], X, Z)
    items = []
    for i in np.flatnonzero(res <= tol).tolist():
        x = X[i].copy()
        x.setflags(write=False)
        items.append((EigenPair(lams[i], x, float(res[i])), repeats[i]))
    return _dedupe_sort(items)


def _spectral_bound(rows):
    """1 plus the largest absolute row sum of the flattened ``rows``, a bound
    on the magnitude of every H-eigenvalue.  Raises
    :class:`PreconditionError` where it exceeds the float range, and with it
    possibly an eigenvalue."""
    with np.errstate(over="ignore"):
        bound = 1.0 + float(np.abs(rows).sum(axis=1).max())
    if not math.isfinite(bound):
        raise PreconditionError("the eigenvalue bound, 1 plus the largest absolute row sum, "
                                "exceeds the float range")
    return bound


def _check_starts(restarts, seed):
    if _as_int(restarts, "restarts") < 1:
        raise InputError(f"restarts must be a positive integer, got {restarts!r}")
    if _as_int(seed, "seed") < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")


def _check_tol(tol):
    if (isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating))
            or not 0.0 < tol < math.inf):
        raise InputError(f"tol must be a finite number above 0, got {tol!r}")


def _canonical_rows(X):
    """Row-wise max-norm scaling with the first nonzero component positive."""
    return _scaled_columns(X.T, np.max(np.abs(X), axis=1)).T


def _scaled_columns(X, scale):
    """``X`` divided column-wise by ``scale``, each column's first nonzero
    component made positive."""
    first = X[np.argmax(X != 0.0, axis=0), np.arange(X.shape[1])]
    return X / np.copysign(scale, first)


def _power(X, p):
    """``X ** p`` taken on the magnitudes, with the sign put back for odd
    ``p``: numpy's pow leaves its vectorized path on negative bases.  The
    square is ``X * X``, bitwise ``|X| ** 2``."""
    if p == 2:
        return X * X
    Y = np.abs(X) ** p
    return Y if p % 2 == 0 else np.copysign(Y, X)


def _monomial_plan(rows, m):
    """``S`` and ``steps`` such that ``S @ _monomials(X, steps)`` is A x^(m-1)
    for each column x of ``X``.

    The C(n+m-2, m-1) distinct monomials of degree m-1 in x are indexed by
    the nondecreasing index tuples, in lexicographic order; ``S`` holds A's
    rows summed over each such multiset of the last m-1 indices.  Step d
    builds the monomials of degree d as one of degree d-1 times one
    component, so ``steps`` holds, per degree from 2 up, the index of that
    monomial and of that component."""
    n, p = rows.shape[0], m - 1
    # each flat index of a row, its multi-index sorted, as a base-n code
    key = np.sort(np.indices((n,) * p).reshape(p, -1), axis=0)
    mono, ids = np.unique(np.ravel_multi_index(key, (n,) * p), return_inverse=True)
    at = (np.arange(n)[:, None] * mono.size + ids).ravel()
    S = np.bincount(at, weights=rows.ravel(), minlength=n * mono.size).reshape(n, -1)
    steps = []
    tuples = np.array(np.unravel_index(mono, (n,) * p))
    for d in range(p, 1, -1):
        prefix, parent = np.unique(np.ravel_multi_index(tuples[:-1], (n,) * (d - 1)),
                                   return_inverse=True)
        steps.append((parent, tuples[-1]))
        tuples = np.array(np.unravel_index(prefix, (n,) * (d - 1)))
    return S, steps[::-1]


def _monomials(X, steps):
    """The distinct monomials of :func:`_monomial_plan` of each column of
    ``X``, one row per monomial."""
    M = X
    for parent, last in steps:
        M = M.take(parent, axis=0)
        M *= X.take(last, axis=0)
    return M


def _batched_fixed_point(rows, signs, m, starts, alpha0, tol, counts):
    """Run the shifted fixed-point iteration on all starts at once for at
    most ``_PASSES`` passes, and finish what it hands off by Newton's method.

    Start ``i``, column ``i`` of the (n, k) array ``starts``, iterates on
    the tensor with flattened rows ``rows`` times ``signs[i]``.  A start
    leaves the batch as soon as its defect is below ``_HANDOFF``, and a
    start still sound at the pass budget leaves with its best vector.  All
    of them are polished in one stacked Newton run (:func:`_newton`), which
    keeps a vector only where its defect ends within min(0.9 tol,
    ``_POLISH * max|a|``): within the fixed point's bar and polished to
    rounding level, so that no two rough copies of one pair pass the check.
    Returns the polished and the converged vectors (best defect within
    ``tol``) in start order; ``counts``, a :class:`SearchCounts`, tallies
    what each start did.
    """
    plan = _monomial_plan(rows, m)
    # overflow makes the inf and NaN that retire a start: no warning for it
    with np.errstate(over="ignore", invalid="ignore"):
        finished, (handed, X) = _sweep(plan, m, starts, signs, alpha0, tol, counts)
        if handed.size:
            target = _POLISH * float(np.abs(rows).max())
            X, defect = _newton(_jacobian_plan(*plan), m, X.T, target, counts)
            polished = defect <= min(0.9 * tol, target)
            counts.polished = int(np.count_nonzero(polished))
            finished.update(zip(handed[polished], X[polished]))
    return [finished[i] for i in sorted(finished)]


def _sweep(plan, m, X, signs, alpha0, tol, counts):
    """Iterate the starts, the columns of ``X``, from shift ``alpha0`` for at
    most ``_PASSES`` passes; start ``i`` iterates on the
    :func:`_monomial_plan` ``plan`` times ``signs[i]``.  A start is handed
    off once its defect is below ``_HANDOFF``, with its vector from before
    that pass's step; it retires once it has converged (defect within 0.9
    tol) or degenerated; and at the budget every start still sound is out
    of passes and joins the hand-off with its best vector.  Returns
    ``finished``, the best vector of each retired start whose best defect is
    within ``tol``, keyed by its start index in retirement order, and the
    hand-off: those starts' indices and vectors.

    All starts begin in the first pass, so all reach the budget on the same
    pass.  The converged and degenerate tests run only on the passes where
    some start can meet one of them, and on the budget's pass."""
    # the numpy callables of every pass, looked up once per sweep; their
    # reductions take the axis positionally, which skips a keyword parse
    add_reduce, max_reduce, fmin_reduce = np.add.reduce, np.maximum.reduce, np.fmin.reduce
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    absolute, maximum, copysign, sign, count_nonzero = (np.absolute, np.maximum, np.copysign,
                                                        np.sign, np.count_nonzero)
    S, steps = plan
    power = 1.0 / (m - 1)
    bar = 0.9 * tol
    k = X.shape[1]
    order = np.arange(k)
    alpha, prev, best_res = np.full(k, alpha0), np.full(k, np.inf), np.full(k, np.inf)
    best_X = X.copy()
    finished, handed = {}, [_taken([], order, X)]
    # the sign of a column's first nonzero component is that of its signs
    # weighted by 2**-i, as each weight outweighs all those after it; up to
    # 53 components every partial sum of the dot is exact
    weights = 0.5 ** np.arange(X.shape[0]) if X.shape[0] <= 53 else None
    halvings = 0
    t = 0
    while order.size:
        t += 1
        # multiplying by -1 is exact: a -1 column sees the product with -A;
        # dot makes the BLAS call of @ at less overhead
        Z = S.dot(_monomials(X, steps))
        Z *= signs
        XM = _power(X, m - 1)
        T = Z * XM
        lam = add_reduce(T, 0)
        multiply(XM, XM, out=T)
        lam /= add_reduce(T, 0)
        multiply(XM, lam, out=T)
        subtract(Z, T, out=T)
        res = max_reduce(absolute(T, out=T), 0)
        # the smallest defect that is not NaN: no NaN passes either bar
        low = fmin_reduce(res)

        if low < _HANDOFF:
            hand = res < _HANDOFF
            handed.append(_taken(np.flatnonzero(hand), order, X))
            counts.handed_off += int(count_nonzero(hand))
            stay = np.flatnonzero(~hand)
            if not stay.size:
                break
            (X, Z, XM, res, signs, order, alpha, prev, best_res,
             best_X) = _taken(stay, X, Z, XM, res, signs, order, alpha, prev, best_res, best_X)

        improved = res < best_res * (1.0 - 1e-6)
        if count_nonzero(improved):
            np.copyto(best_res, res, where=improved)
            np.copyto(best_X, X, where=improved)

        halve = res > prev
        halved = count_nonzero(halve)
        if halved:
            halvings += halved
            multiply(alpha, 0.5, out=alpha, where=halve)
        prev = res
        # alpha * XM + Z in XM's buffer, then its power in place; the scale
        # is the largest magnitude, taken before the signs go back on
        Y = multiply(XM, alpha, out=XM)
        Y += Z
        if m % 2 == 0:
            Xn = absolute(Y)
            Xn **= power
            scale = max_reduce(Xn, 0)
            copysign(Xn, Y, out=Xn)
        else:
            # even component powers lose the sign; keep the current pattern,
            # a zero component counting as positive.  A -0.0 magnitude can
            # only change the bits of a zero scale, which retires its start.
            Xn = maximum(Y, 0.0, out=Y)
            Xn **= power
            scale = max_reduce(Xn, 0)
            copysign(Xn, X + 0.0, out=Xn)

        # a zero, infinite or NaN scale fails this test; a sum of squares
        # past DBL_MAX only sends its pass to the full test
        if (low <= bar or t == _PASSES or count_nonzero(scale) < scale.size
                or not scale.dot(scale) < math.inf):
            converged = res <= bar
            sound = np.isfinite(scale) & (scale > 0.0)
            retire = converged | ~sound
            done, ended = int(count_nonzero(converged)), int(count_nonzero(retire))
            counts.converged += done
            counts.degenerate += ended - done
            for i in np.nonzero(retire & (best_res <= tol))[0]:
                finished[order[i]] = best_X[:, i]
            keep = np.flatnonzero(~retire)
            if t == _PASSES:
                handed.append(_taken(keep, order, best_X))
                counts.out_of_passes += keep.size
                break
            if ended:
                (Xn, scale, signs, order, alpha, prev, best_res,
                 best_X) = _taken(keep, Xn, scale, signs, order, alpha, prev, best_res, best_X)
        # divide each column by its scale, its first nonzero component made
        # positive, as _scaled_columns does; every column left has one
        if weights is None:
            first = Xn[(Xn != 0.0).argmax(axis=0), np.arange(Xn.shape[1])]
        else:
            first = weights.dot(sign(Xn))
        X = divide(Xn, copysign(scale, first), out=Xn)
    counts.passes += t
    counts.halvings += int(halvings)
    return finished, [np.concatenate(v, axis=-1) for v in zip(*handed)]


def _taken(idx, *arrays):
    """Each of ``arrays`` at the indices ``idx`` of its last axis."""
    return [v.take(idx, axis=-1) for v in arrays]


def _jacobian_plan(S, steps):
    """``Sj`` and ``steps[:-1]`` from the :func:`_monomial_plan` ``(S,
    steps)``: ``w @ Sj.T`` is the Jacobian of A x^(m-1) flattened row-major
    for ``w`` the degree-(m-2) monomials ``_monomials(X, steps[:-1])``, or
    1 at m = 2.  As d x^alpha / d x_j is alpha_j x^(alpha - e_j), S's
    column of alpha joins the rows of the j at each position of alpha's
    index tuple, in the column of that tuple without the position."""
    n, p = S.shape[0], len(steps) + 1
    # the nondecreasing index tuples of degrees m-2 and m-1, one per column
    low, high = np.zeros((0, 1), dtype=int), np.arange(n)[None, :]
    for parent, last in steps:
        low, high = high, np.vstack([high[:, parent], last])
    radix = n ** np.arange(p - 2, -1, -1)
    codes = radix @ low
    Sj = np.zeros((n, n, low.shape[1]))
    for q in range(p):
        Sj[:, high[q], np.searchsorted(codes, radix @ np.delete(high, q, axis=0))] += S
    return Sj.reshape(n * n, -1), steps[:-1]


def _newton(plan, m, X, target, counts):
    """Newton's method on all starts ``X`` (max-norm 1) at once.

    The unknowns of start i are x and lambda, with the largest component
    x_p pinned, and the system is F = A x^(m-1) - lambda x^[m-1] = 0.  A
    start of the negated tensor needs no sign: its iterates are the same
    with lambda negated.  Each step solves the bordered n x n systems, the
    Jacobian J - (m-1) lambda diag(x^[m-2]) with column p replaced by
    -x^[m-1] (the lambda column), for the whole stack, in at most
    ``_NEWTON_STEPS`` steps; J is ``w @ Sj.T`` for ``plan``, the
    :func:`_jacobian_plan`, and w the degree-(m-2) monomials of x.  The
    defect of a start is max|F| over max|x|^(m-1), the :func:`residual` of
    x.  A start above ``target`` steps on while its defect is finite; below
    it, it stops once the defect fails to halve, where rounding ends the
    gain.  Returns each start's best vector in canonical form and its
    defect.
    """
    Sj, steps = plan
    k, n = X.shape
    X = X.copy()
    pin = np.argmax(np.abs(X), axis=1)
    last = np.full(k, np.inf)
    best, best_X = np.full(k, np.inf), X.copy()
    live = np.arange(k)
    diag = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(_NEWTON_STEPS + 1):
            x = X[live]
            W = _monomials(x.T, steps).T if m > 2 else np.ones((live.size, 1))
            J = (W @ Sj.T).reshape(-1, n, n)
            Z = (J @ x[:, :, None])[:, :, 0] / (m - 1)
            XM = _power(x, m - 1)
            if step == 0:
                lam = (Z * XM).sum(axis=1) / (XM * XM).sum(axis=1)
            F = Z - lam[live, None] * XM
            defect = np.max(np.abs(F), axis=1) / np.max(np.abs(x), axis=1) ** (m - 1)

            improved = defect < best[live]
            best[live[improved]] = defect[improved]
            best_X[live[improved]] = x[improved]
            go = (((defect < 0.5 * last[live]) | ~(best[live] <= target))
                  & (defect > 0.0) & np.isfinite(defect))
            last[live] = defect
            if step == _NEWTON_STEPS or not go.any():
                break
            live, x, J, F, XM = live[go], x[go], J[go], F[go], XM[go]
            J[:, diag, diag] -= (m - 1) * lam[live, None] * _power(x, m - 2)
            idx = np.arange(live.size)
            J[idx, :, pin[live]] = -XM
            d = _bordered_solve(J, -F)
            counts.newton_steps += 1
            lam[live] += d[idx, pin[live]]
            d[idx, pin[live]] = 0.0
            X[live] = x + d
    return _canonical_rows(best_X), best


def _bordered_solve(J, F):
    """Solve the stack ``J d = F``.  One exactly singular system makes the
    stacked LU solve raise for all of them; then the singular ones (zero
    determinant) take the minimum-norm step of the pseudo-inverse instead."""
    try:
        return np.linalg.solve(J, F[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.det(J) == 0.0
    d = np.empty_like(F)
    d[~singular] = np.linalg.solve(J[~singular], F[~singular, :, None])[:, :, 0]
    d[singular] = (np.linalg.pinv(J[singular]) @ F[singular, :, None])[:, :, 0]
    return d


def _dedupe_sort(items):
    """Collapse the (pair, repeats) ``items`` whose pairs are equal within the
    dedupe tolerance in the direction, up to its sign, and, relative to
    max(1, |lambda|), in the eigenvalue, keeping the smallest residual:
    (lambda, -x) is an eigenpair whenever (lambda, x) is, and the sign the
    solvers give x comes from rounding noise where its first component is
    at rounding level.  Returns the kept pairs, sorted, and a tuple aligned
    with them of the repeats each one absorbed.

    The sort is stable, so of two pairs with tied sort keys (0.0 and -0.0
    components) the first given is compared first; as the two are equal in
    value, both join the same slot.  The comparisons run on each pair's
    lambda and x as Python floats, whose differences and magnitudes are
    numpy's bit for bit (x is finite, so no NaN meets ``max``)."""
    ordered = sorted(items, key=_sort_key)
    kept, keys, merged = [], [], []
    for p, repeats in ordered:
        lam, x = p.lam, p.x.tolist()
        for slot, (mu, y) in enumerate(keys):
            if (abs(lam - mu) <= _DEDUPE_TOL * max(1.0, abs(lam), abs(mu))
                    and (max(abs(a - b) for a, b in zip(x, y)) <= _DEDUPE_TOL
                         or max(abs(a + b) for a, b in zip(x, y)) <= _DEDUPE_TOL)):
                if p.residual < kept[slot].residual:
                    kept[slot], keys[slot] = p, (lam, x)
                break
        else:
            slot = len(kept)
            kept.append(p)
            keys.append((lam, x))
            merged.append(0)
        merged[slot] += repeats
    final = sorted(zip(kept, merged), key=_sort_key)
    return [p for p, _ in final], tuple(repeats for _, repeats in final)


def _sort_key(item):
    """The sort key, lambda and then x, of a (pair, repeats) item."""
    return item[0].lam, tuple(item[0].x.tolist())
