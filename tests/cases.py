"""Shared fixture tensors and random generators for the test suite."""

import numpy as np

from btensor import Tensor


def diag_index(n, m):
    return tuple([np.arange(n)] * m)


def make_t43():
    """Order-4 dim-3 B-tensor whose contraction has a nontrivial real kernel.

    Row 1: diagonal 65, rest 64.  Row 2: diagonal 18, entry (2,1,1,2) = 15,
    rest 16.  Row 3: diagonal 40/3, entry (3,1,1,3) = 11, rest 12.
    The vector (-4, 2, 3) is annihilated by the contraction.
    """
    a = np.empty((3, 3, 3, 3))
    a[0] = 64.0
    a[0, 0, 0, 0] = 65.0
    a[1] = 16.0
    a[1, 1, 1, 1] = 18.0
    a[1, 0, 0, 1] = 15.0
    a[2] = 12.0
    a[2, 2, 2, 2] = 40.0 / 3.0
    a[2, 0, 0, 2] = 11.0
    return Tensor.from_array(a)


def make_t42():
    """Order-4 dim-2 Z-tensor that is doubly B but not B (and not PSD)."""
    a = np.zeros((2, 2, 2, 2))
    a[0, 0, 0, 0] = 2.0
    a[1, 1, 1, 1] = 2.0
    a[0, 1, 1, 1] = -1.0
    a[1, 0, 1, 1] = -1.0
    a[1, 1, 0, 1] = -1.0
    a[1, 1, 1, 0] = -1.0
    return Tensor.from_array(a)


def make_z32():
    """Order-3 dim-2 Z-tensor with diagonal 2 and entries (1,2,2) = (2,1,1) = -1.

    Its only H-eigenvalue is 1, with eigenvectors (1, 1) and (1, -1).
    """
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 2.0
    a[1, 1, 1] = 2.0
    a[0, 1, 1] = -1.0
    a[1, 0, 0] = -1.0
    return Tensor.from_array(a)


def make_cancelling_rows():
    """Order-2 dim-8 tensor whose row i holds 1e308 at columns i, i+1 and
    -1e308 at columns i+4, i+5 (mod 8): every exact row sum is 0, while an
    unscaled pairwise sum can reach +inf and -inf in two partial sums."""
    a = np.zeros((8, 8))
    for i in range(8):
        a[i, [i, (i + 1) % 8]] = 1e308
        a[i, [(i + 4) % 8, (i + 5) % 8]] = -1e308
    return Tensor.from_array(a)


def matrix(rows):
    return Tensor.from_array(np.asarray(rows, dtype=float))


def scaled(A, k):
    """A times 2**k, exactly where no entry leaves the normal range."""
    return Tensor.from_array(np.ldexp(A.array, k))


# ---------------------------------------------------------------------------
# random generators; all take an explicit rng for determinism

def random_tensor(rng, m, n, scale=1.0):
    return Tensor.from_array(rng.uniform(-scale, scale, size=(n,) * m))


def random_z(rng, m, n):
    """Z-tensor with nonpositive off-diagonal entries and a mixed-sign diagonal."""
    arr = -rng.uniform(0.0, 1.0, size=(n,) * m)
    arr[diag_index(n, m)] = rng.uniform(-1.0, 2.0, size=n)
    return Tensor.from_array(arr)


def random_sdd_z(rng, m, n):
    """Strictly diagonally dominated Z-tensor (a B-tensor by construction)."""
    arr = -rng.uniform(0.0, 1.0, size=(n,) * m)
    arr[diag_index(n, m)] = 0.0
    margin = rng.uniform(0.05, 1.0, size=n)
    arr[diag_index(n, m)] = np.abs(arr).reshape(n, -1).sum(axis=1) + margin
    return Tensor.from_array(arr)


def random_sddd_z(rng, m, n):
    """Strictly doubly diagonally dominated Z-tensor (doubly B by construction).

    Row i gets absolute off-diagonal sum s_i and diagonal max(s) + margin,
    so every pairwise product of diagonals beats s_i * s_j.
    """
    width = n ** (m - 1)
    arr = np.zeros((n,) * m)
    targets = rng.uniform(0.0, 1.0, size=n)
    rows = arr.reshape(n, width)
    for i in range(n):
        weights = rng.uniform(0.0, 1.0, size=width)
        weights[i * ((width - 1) // (n - 1)) if n > 1 else 0] = 0.0
        total = weights.sum()
        if total > 0:
            rows[i] = -weights / total * targets[i]
    arr = rows.reshape((n,) * m)
    arr[diag_index(n, m)] = targets.max() + rng.uniform(0.05, 1.0, size=n)
    return Tensor.from_array(arr)


def add_row_constants(rng, A, scale=1.0):
    """Add a nonnegative row-constant tensor (preserves B and doubly-B)."""
    c = rng.uniform(0.0, scale, size=A.dim)
    shift = c.reshape((A.dim,) + (1,) * (A.order - 1))
    return Tensor.from_array(A.array + shift)


def random_b(rng, m, n):
    return add_row_constants(rng, random_sdd_z(rng, m, n))


def random_doubly_b(rng, m, n):
    return add_row_constants(rng, random_sddd_z(rng, m, n))


def random_symmetric(rng, m, n, scale=1.0):
    """Exactly symmetric tensor: one draw per sorted-index orbit."""
    base = rng.uniform(-scale, scale, size=(n,) * m)
    out = np.empty((n,) * m)
    for idx in np.ndindex(*((n,) * m)):
        out[idx] = base[tuple(sorted(idx))]
    return Tensor.from_array(out)


def random_symmetric_b(rng, m, n):
    """Even-order symmetric B-tensor: symmetric noise plus a diagonal boost
    and a uniform constant, with margin n**(m-1) by construction."""
    width = float(n ** (m - 1))
    noise = random_symmetric(rng, m, n).array
    c = rng.uniform(0.0, 1.0)
    arr = noise + c
    arr[diag_index(n, m)] += 3.0 * width
    return Tensor.from_array(arr)


def random_mixed_diag(rng, m, n):
    """Uniform noise with a boosted, sign-mixed diagonal; exercises the
    sign-flip transform, including exactly-zero diagonals."""
    arr = rng.uniform(-1.0, 1.0, size=(n,) * m)
    boost = rng.uniform(1.0, 4.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    boost[rng.uniform(size=n) < 0.1] = 0.0
    arr[diag_index(n, m)] = boost
    return Tensor.from_array(arr)


#: The nine tensor generators above, in a fixed order.
GENERATORS = (random_tensor, random_z, random_sdd_z, random_sddd_z, random_b,
              random_doubly_b, random_symmetric, random_symmetric_b, random_mixed_diag)


def with_tie_row(rng, A):
    """A with one random row's diagonal set to W r_plus minus the row's
    off-diagonal sum, so that the row's B margin (on a Z-row, its SDD
    margin) is 0 up to rounding."""
    n, width = A.dim, A.dim ** (A.order - 1)
    arr = A.array.copy()
    rows = arr.reshape(n, width)
    i = int(rng.integers(n))
    d = i * ((width - 1) // (n - 1)) if n > 1 else 0
    off = np.delete(rows[i], d)
    rows[i, d] = width * off.max(initial=0.0) - off.sum()
    return Tensor.from_array(arr)


def tie_row_tensors(rng, sizes, draws, generators=GENERATORS):
    """``draws`` tie-row tensors from each generator at each (m, n)."""
    for make in generators:
        for m, n in sizes:
            for _ in range(draws):
                yield with_tie_row(rng, make(rng, m, n))


def random_hypergraph(rng, n, m, max_edges=None):
    """Uniform random m-uniform hypergraph on n vertices without duplicates."""
    from itertools import combinations

    from btensor import Hypergraph

    pool = list(combinations(range(1, n + 1), m))
    cap = len(pool) if max_edges is None else min(max_edges, len(pool))
    count = int(rng.integers(0, cap + 1))
    chosen = rng.choice(len(pool), size=count, replace=False)
    return Hypergraph(n, m, [pool[i] for i in sorted(chosen)])
