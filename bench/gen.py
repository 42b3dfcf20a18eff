"""Input generators for the benchmark, independent of the package under test.

The random families reproduce the acceptance-suite generators draw for
draw (same distributions, same order of ``rng`` calls), so a given seed
yields the same arrays as the test fixtures would.  Everything here
returns plain numpy arrays or hypergraph dicts; the benchmark turns them
into library objects or JSON files itself.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def diag_index(n, m):
    return tuple([np.arange(n)] * m)


# ---------------------------------------------------------------------------
# desk examples from the README and the acceptance suite

def matrix22():
    return np.array([[2.0, 1.0], [1.0, 2.0]])


def t43():
    """Order-4 dim-3 B-tensor whose contraction annihilates (-4, 2, 3)."""
    a = np.empty((3, 3, 3, 3))
    a[0] = 64.0
    a[0, 0, 0, 0] = 65.0
    a[1] = 16.0
    a[1, 1, 1, 1] = 18.0
    a[1, 0, 0, 1] = 15.0
    a[2] = 12.0
    a[2, 2, 2, 2] = 40.0 / 3.0
    a[2, 0, 0, 2] = 11.0
    return a


def t42():
    """Order-4 dim-2 Z-tensor that is doubly B but not B."""
    a = np.zeros((2, 2, 2, 2))
    a[0, 0, 0, 0] = 2.0
    a[1, 1, 1, 1] = 2.0
    a[0, 1, 1, 1] = -1.0
    a[1, 0, 1, 1] = -1.0
    a[1, 1, 0, 1] = -1.0
    a[1, 1, 1, 0] = -1.0
    return a


def z32():
    """Order-3 dim-2 Z-tensor whose only H-eigenvalue is 1."""
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 2.0
    a[1, 1, 1] = 2.0
    a[0, 1, 1] = -1.0
    a[1, 0, 0] = -1.0
    return a


def ones(m, n):
    return np.ones((n,) * m)


def desk_examples():
    return {
        "matrix22": matrix22(),
        "T43": t43(),
        "T42": t42(),
        "Z32": z32(),
        "ones43": ones(4, 3),
        "ones42": ones(4, 2),
    }


#: Entries whose row sums and products overflow: ROADMAP item 4's reproducer.
OVERFLOW_REPRODUCER = {"order": 2, "dim": 2, "dense": [1e308, 1e308, -1e308, 1e308]}


# ---------------------------------------------------------------------------
# random families of the acceptance suite

def random_tensor(rng, m, n):
    return rng.uniform(-1.0, 1.0, size=(n,) * m)


def random_z(rng, m, n):
    """Nonpositive off-diagonal entries and a mixed-sign diagonal."""
    arr = -rng.uniform(0.0, 1.0, size=(n,) * m)
    arr[diag_index(n, m)] = rng.uniform(-1.0, 2.0, size=n)
    return arr


def random_sdd_z(rng, m, n):
    """Strictly diagonally dominated Z-tensor (a B-tensor by construction)."""
    arr = -rng.uniform(0.0, 1.0, size=(n,) * m)
    arr[diag_index(n, m)] = 0.0
    margin = rng.uniform(0.05, 1.0, size=n)
    arr[diag_index(n, m)] = np.abs(arr).reshape(n, -1).sum(axis=1) + margin
    return arr


def random_sddd_z(rng, m, n):
    """Strictly doubly diagonally dominated Z-tensor (doubly B by construction)."""
    width = n ** (m - 1)
    rows = np.zeros((n, width))
    targets = rng.uniform(0.0, 1.0, size=n)
    for i in range(n):
        weights = rng.uniform(0.0, 1.0, size=width)
        weights[i * ((width - 1) // (n - 1)) if n > 1 else 0] = 0.0
        total = weights.sum()
        if total > 0:
            rows[i] = -weights / total * targets[i]
    arr = rows.reshape((n,) * m)
    arr[diag_index(n, m)] = targets.max() + rng.uniform(0.05, 1.0, size=n)
    return arr


def add_row_constants(rng, arr):
    """Add a nonnegative constant to each row (preserves B and doubly B)."""
    n, m = arr.shape[0], arr.ndim
    c = rng.uniform(0.0, 1.0, size=n)
    return arr + c.reshape((n,) + (1,) * (m - 1))


def random_b(rng, m, n):
    return add_row_constants(rng, random_sdd_z(rng, m, n))


def random_doubly_b(rng, m, n):
    return add_row_constants(rng, random_sddd_z(rng, m, n))


def random_symmetric(rng, m, n):
    """Exactly symmetric: every entry copies the draw at its sorted multi-index."""
    base = rng.uniform(-1.0, 1.0, size=(n,) * m)
    index = np.sort(np.indices((n,) * m).reshape(m, -1), axis=0)
    return base.ravel()[np.ravel_multi_index(index, (n,) * m)].reshape((n,) * m)


def random_symmetric_b(rng, m, n):
    """Symmetric noise plus a uniform constant and a diagonal boost of 3 n**(m-1)."""
    width = float(n ** (m - 1))
    arr = random_symmetric(rng, m, n) + rng.uniform(0.0, 1.0)
    arr[diag_index(n, m)] += 3.0 * width
    return arr


def random_mixed_diag(rng, m, n):
    """Uniform noise with a boosted, sign-mixed, sometimes zero diagonal."""
    arr = rng.uniform(-1.0, 1.0, size=(n,) * m)
    boost = rng.uniform(1.0, 4.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    boost[rng.uniform(size=n) < 0.1] = 0.0
    arr[diag_index(n, m)] = boost
    return arr


def random_hypergraph(rng, n, m):
    """Random m-uniform hypergraph on vertices 1..n, as the JSON input dict."""
    pool = list(combinations(range(1, n + 1), m))
    count = int(rng.integers(0, len(pool) + 1))
    chosen = rng.choice(len(pool), size=count, replace=False)
    return {"n": n, "m": m, "edges": [list(pool[i]) for i in sorted(chosen)]}


FAMILIES = {
    "random_tensor": random_tensor,
    "random_z": random_z,
    "random_sdd_z": random_sdd_z,
    "random_sddd_z": random_sddd_z,
    "random_b": random_b,
    "random_doubly_b": random_doubly_b,
    "random_symmetric": random_symmetric,
    "random_symmetric_b": random_symmetric_b,
    "random_mixed_diag": random_mixed_diag,
}


def dense_json(arr):
    n, m = arr.shape[0], arr.ndim
    return {"order": m, "dim": n, "dense": [float(v) for v in arr.ravel()]}


def sparse_json(arr):
    """Sparse-format input (1-based indices) listing the nonzero entries."""
    n, m = arr.shape[0], arr.ndim
    records = [{"idx": [int(i) + 1 for i in idx], "val": float(arr[idx])}
               for idx in zip(*np.nonzero(arr))]
    return {"order": m, "dim": n, "sparse": records}
