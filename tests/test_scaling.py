"""Power-of-two scaling: every class test, interval endpoint, split and
dim-2 eigenpair is positively homogeneous in A, so scaling A by 2**j must
leave every flag and eigenvector identical and scale every printed value
exactly, near DBL_MAX too, where rows are stored divided by their units."""

import math

import numpy as np

import btensor as bt
from cases import GENERATORS, random_symmetric, random_tensor, random_z, scaled

SHAPES = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4, 5)]


def times(x, j, power=1):
    """x * 2**(power * j) as a Python float: exact, or infinite past DBL_MAX."""
    for _ in range(power):
        x = x * 2.0 ** j
    return x


def shifted_pairs(seed, headroom):
    """(A, j) for every generator at every shape, with j in a few fixed
    values and one that takes W max|a| to within 2**420 of 2**(1024 -
    headroom); ``headroom`` 0 lets the printed values overflow."""
    rng = np.random.default_rng(seed)
    for make in GENERATORS:
        for m, n in SHAPES:
            A = make(rng, m, n)
            top = math.frexp(np.abs(A.array).max())[1] + math.frexp(n ** (m - 1))[1]
            for j in (-300, -1, 1, 200, 1024 - headroom - top - int(rng.integers(0, 420))):
                yield A, j


def scaled_witness(witness, j):
    power = 2 if "pair" in witness else 1
    lhs, rhs = times(witness["lhs"], j, power), times(witness["rhs"], j, power)
    return {**witness, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs}


def test_flags_and_witness_sides_scale_exactly():
    units_above_one = 0
    for A, j in shifted_pairs(17, 0):
        B = scaled(A, j)
        want, got = bt.classify(A), bt.classify(B)
        assert got.flags == want.flags, j
        expected = {name: scaled_witness(w, j) for name, w in want.witnesses.items()}
        # repr compares NaN margins (inf - inf) too
        assert repr(got.witnesses) == repr(expected), j
        units_above_one += bool(np.any(bt.row_stats(B).unit > 1.0))
    assert units_above_one >= len(GENERATORS) * len(SHAPES) // 2


def test_interval_endpoints_and_definiteness_bound_scale_exactly():
    methods = {"gerschgorin": bt.intervals_gerschgorin, "z": bt.intervals_z,
               "odd-n2": bt.intervals_odd_or_n2, "even-sym": bt.intervals_even_symmetric}
    for A, j in shifted_pairs(18, 2):
        B = scaled(A, j)
        flags = bt.classify(A).flags
        applicable = ["gerschgorin"] + ["z"] * flags["Z"]
        applicable += ["odd-n2"] * (A.order % 2 == 1 or A.dim == 2)
        if A.order % 2 == 0 and bt.is_symmetric(A):
            applicable.append("even-sym")
            want, got = bt.definiteness(A), bt.definiteness(B)
            assert got.verdict == want.verdict and got.method == want.method
            assert got.bound == (None if want.bound is None else times(want.bound, j))
        for name in applicable:
            want = [(times(p.lo, j), times(p.hi, j)) for p in methods[name](A).parts]
            got = [(p.lo, p.hi) for p in methods[name](B).parts]
            assert got == want, (name, j)
            assert all(math.isfinite(x) for part in got for x in part)


def test_epsilon_and_row_constants_scale_exactly():
    splits = 0
    for A, j in shifted_pairs(19, 2):
        B = scaled(A, j)
        flags = bt.classify(A).flags
        for flag, decompose in (("B", bt.decompose_b), ("doublyB", bt.decompose_doubly_b)):
            if not flags[flag]:
                continue
            want, got = decompose(A), decompose(B)
            assert got.epsilon == times(want.epsilon, j), (flag, j)
            assert np.array_equal(got.row_constants, np.ldexp(want.row_constants, j))
            splits += 1
    assert splits >= 200


def test_flags_and_splits_scale_exactly_down_to_tiny_tensors():
    # pair products of two rows near 2**-600 underflow to a tie unless each
    # row's two sides are compared at the row's own scale
    rng = np.random.default_rng(20)
    splits = 0
    for make in GENERATORS:
        for m, n in SHAPES:
            A = make(rng, m, n)
            flags = bt.classify(A).flags
            for j in (-600, -900):
                B = scaled(A, j)
                assert bt.classify(B).flags == flags, j
                for flag, decompose in (("B", bt.decompose_b),
                                        ("doublyB", bt.decompose_doubly_b)):
                    if flags[flag]:
                        assert decompose(B).epsilon == times(decompose(A).epsilon, j)
                        splits += 1
    assert splits >= 100


def test_dim2_eigenpairs_scale_exactly():
    # below 2**-960 the entries and the residual's products reach the
    # subnormal range, where no float computation scales exactly; the top k
    # is the last one whose eigenvalue bound is finite.  Tensor i takes every
    # 21st k from -960 + i, so the sample covers every k, and its own top 16
    rng = np.random.default_rng(21)
    for i in range(21):
        make = (random_tensor, random_z, random_symmetric)[i % 3]
        A = make(rng, 2 + i % 7, 2)
        top = 1024 - math.frexp(np.abs(A.array.reshape(2, -1)).sum(axis=1).max())[1]
        want = bt.eigenpairs_n2(A)
        assert want
        for j in sorted({*range(-960 + i, top + 1, 21), *range(top - 15, top + 1)}):
            got = bt.eigenpairs_n2(scaled(A, j), tol=math.ldexp(1e-8, j))
            assert [(p.lam, p.residual) for p in got] == [
                (math.ldexp(p.lam, j), math.ldexp(p.residual, j)) for p in want], (i, j)
            assert all(np.array_equal(p.x, q.x) for p, q in zip(got, want)), (i, j)
