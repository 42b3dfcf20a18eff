"""Class predicates, transforms, and their equivalence ladder."""

import numpy as np
import pytest

import btensor as bt
from cases import (
    make_t42,
    make_t43,
    matrix,
    random_b,
    random_doubly_b,
    random_mixed_diag,
    random_sdd_z,
    random_sddd_z,
    random_tensor,
    random_z,
)


def zero_tensor(m, n):
    return bt.Tensor(m, n, np.zeros(n**m))


class TestPredicateGoldens:
    def test_is_z(self):
        assert bt.is_z(bt.Tensor.identity(4, 3))
        assert not bt.is_z(bt.Tensor.ones(4, 3))
        assert bt.is_z(make_t42())

    def test_is_b(self):
        assert bt.is_b(make_t43())
        assert not bt.is_b(bt.Tensor.ones(4, 3))
        assert not bt.is_b(make_t42())

    def test_is_b0(self):
        assert bt.is_b0(bt.Tensor.ones(4, 3))
        assert bt.is_b0(make_t43())
        assert not bt.is_b0(make_t42())

    def test_is_doubly_b(self):
        assert bt.is_doubly_b(make_t42())
        assert bt.is_doubly_b(make_t43())
        negated = bt.Tensor.from_array(-bt.Tensor.identity(4, 3).array)
        assert not bt.is_doubly_b(negated)

    def test_is_sdd(self):
        assert bt.is_sdd(bt.Tensor.identity(4, 3))
        assert not bt.is_sdd(make_t42())
        assert not bt.is_sdd(bt.Tensor.ones(4, 3))

    def test_is_sddd(self):
        assert bt.is_sddd(make_t42())
        assert not bt.is_sddd(zero_tensor(4, 2))
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = random_sdd_z(rng, 3, 3)
            assert bt.is_sdd(A) and bt.is_sddd(A)


class TestTransforms:
    def test_a_plus_identity_is_fixed(self):
        iden = bt.Tensor.identity(4, 3)
        assert bt.a_plus(iden) == iden

    def test_a_plus_all_ones_is_zero(self):
        assert bt.a_plus(bt.Tensor.ones(4, 3)) == zero_tensor(4, 3)

    def test_a_plus_matrix(self):
        assert bt.a_plus(matrix([[2, 1], [1, 2]])) == matrix([[1, 0], [0, 1]])

    def test_a_plus_always_z(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            A = random_tensor(rng, 3, 3, scale=2.0)
            assert bt.is_z(bt.a_plus(A))

    def test_f_transform_positive_diag_is_identity(self):
        t43 = make_t43()
        assert bt.f_transform(t43) == t43

    def test_f_transform_negates_negative_rows(self):
        A = matrix([[-2, 0], [0, 3]])
        got = bt.f_transform(A)
        assert np.array_equal(got.array, [[2.0, 0.0], [0.0, 3.0]])

    def test_f_transform_zero_diag_zeroes_row(self):
        A = matrix([[0, 5], [1, 3]])
        got = bt.f_transform(A)
        assert np.all(got.array[0] == 0.0)
        assert np.array_equal(got.array[1], [1.0, 3.0])


class TestFChecks:
    def test_negative_diagonal_matrix(self):
        A = matrix([[-2, 0], [0, 3]])
        assert bt.check_f_b(A)
        assert bt.check_f_doubly_b(A)

    def test_b_tensor_passes(self):
        assert bt.check_f_b(make_t43())

    def test_counterexample_is_f_doubly_b(self):
        assert bt.check_f_doubly_b(make_t42())
        assert not bt.check_f_b(make_t42())

    def test_zero_tensor_fails(self):
        assert not bt.check_f_b(zero_tensor(3, 2))
        assert not bt.check_f_doubly_b(zero_tensor(3, 2))

    def test_matches_transform_path(self):
        rng = np.random.default_rng(7)
        for k in range(300):
            m, n = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
            A = random_mixed_diag(rng, int(m), int(n))
            F = bt.f_transform(A)
            assert bt.check_f_b(A) == bt.is_b(F)
            assert bt.check_f_doubly_b(A) == bt.is_doubly_b(F)


class TestClassify:
    def test_t43_report(self):
        flags = bt.classify(make_t43()).flags
        assert flags == {"Z": False, "B": True, "B0": True, "doublyB": True,
                         "SDD": False, "SDDD": False, "F_B": True, "F_doublyB": True}

    def test_t42_report(self):
        flags = bt.classify(make_t42()).flags
        assert flags["Z"] and not flags["B"] and not flags["B0"]
        assert flags["doublyB"] and flags["SDDD"] and not flags["SDD"]

    def test_identity_report(self):
        flags = bt.classify(bt.Tensor.identity(4, 3)).flags
        assert all(flags.values())

    def test_witnesses_mirror_false_flags(self):
        report = bt.classify(make_t42())
        assert set(report.witnesses) == {k for k, v in report.flags.items() if not v}
        w = report.witnesses["SDD"]
        assert w["row"] == 2 and w["lhs"] == 2.0 and w["rhs"] == 3.0
        assert w["margin"] == -1.0

    def test_pair_witness_shape(self):
        # diagonals fine on their own but the pair product fails
        A = matrix([[1.0, 1.1], [1.1, 1.0]])
        report = bt.classify(A)
        assert not report.flags["SDDD"]
        w = report.witnesses["SDDD"]
        assert w["pair"] == [1, 2]
        assert w["lhs"] == 1.0 and w["rhs"] == pytest.approx(1.21)

    def test_json_round_trip_keys(self):
        blob = bt.classify(make_t42()).to_json_dict()
        assert set(blob) == {"flags", "witnesses"}
        assert set(blob["flags"]) == set(bt.classes.FLAG_NAMES)


class TestBoundaryTies:
    """Dyadic order-3 dim-2 inputs (row 1 is the first four entries) where
    both sides of each inequality are exact in every formula for them, so
    strict tests must fail on the tie."""

    def test_b_row_tie_and_doubly_b_pair_tie(self):
        A = bt.Tensor(3, 2, [1.5, 0.5, 0.25, -0.25, 1.0, 0.0, 0.5, 2.5])
        report = bt.classify(A)
        # row sums 2 and 4 equal 4 * r_plus exactly (r_plus = 0.5 and 1)
        assert not report.flags["B"] and report.flags["B0"]
        assert report.witnesses["B"] == {"row": 1, "lhs": 2.0, "rhs": 2.0, "margin": 0.0}
        # diagonal gaps 1 and 1.5, upper deficits 1 and 1.5: equal products
        assert not report.flags["doublyB"]
        assert report.witnesses["doublyB"] == {
            "pair": [1, 2], "lhs": 1.5, "rhs": 1.5, "margin": 0.0}

    def test_f_b_tie_on_negative_diagonal(self):
        # row 1: |diag - r_minus| = 1.5 equals the lower excess 0 + 1 + 0.5
        A = bt.Tensor(3, 2, [-2.0, -0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 4.0])
        report = bt.classify(A)
        assert not report.flags["F_B"] and report.flags["F_doublyB"]
        assert report.witnesses["F_B"] == {"row": 1, "lhs": 1.5, "rhs": 1.5, "margin": 0.0}
        F = bt.f_transform(A)
        assert not bt.is_b(F) and bt.is_doubly_b(F)


class TestLargeDiagonal:
    """A diagonal far above the rest of its row must not absorb the
    off-diagonal entries of the deficit sums."""

    def test_z_tensor_pair_test_sees_small_entries(self):
        # row 1 (1e16, -1): gap 1e16, deficit 1; row 2 (-2e16, 1): gap 1,
        # deficit 2e16; 1e16 * 1 < 1 * 2e16, so neither doubly B nor SDDD
        A = bt.Tensor(2, 2, [1e16, -1.0, -2e16, 1.0])
        report = bt.classify(A)
        assert report.flags["Z"] and not report.flags["doublyB"]
        assert not report.flags["SDDD"]
        assert report.witnesses["doublyB"] == report.witnesses["SDDD"] == {
            "pair": [1, 2], "lhs": 1e16, "rhs": 2e16, "margin": -1e16}
        assert not bt.is_doubly_b(A)
        with pytest.raises(bt.ClassViolationError):
            bt.decompose_doubly_b(A)

    def test_f_doubly_b_with_large_negative_diagonal(self):
        # order 3, dim 2.  Row 1: diagonal -1e16, off-diagonal (1, 1, -1), so
        # r_minus = -1 and the lower excess is 2 + 2 + 0 = 4.  Row 2: diagonal
        # 1, off-diagonal -1e15 three times, deficit 3e15.  Gap products
        # 1e16 * 1 < 4 * 3e15, so the flipped tensor is not doubly B.
        A = bt.Tensor(3, 2, [-1e16, 1.0, 1.0, -1.0, -1e15, -1e15, -1e15, 1.0])
        report = bt.classify(A)
        assert not report.flags["F_doublyB"]
        assert report.witnesses["F_doublyB"] == {
            "pair": [1, 2], "lhs": 1e16, "rhs": 1.2e16, "margin": 1e16 - 1.2e16}
        assert not bt.is_doubly_b(bt.f_transform(A))


def _ladder_instances(rng, count):
    makers = (random_tensor, random_z, random_sdd_z, random_sddd_z, random_b,
              random_doubly_b, random_mixed_diag)
    sizes = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
    for k in range(count):
        m, n = sizes[k % len(sizes)]
        maker = makers[k % len(makers)]
        yield maker(rng, m, n)


class TestEquivalenceLadder:
    def test_shift_preserves_classes_both_ways(self):
        rng = np.random.default_rng(42)
        for A in _ladder_instances(rng, 400):
            P = bt.a_plus(A)
            assert bt.is_b(A) == bt.is_b(P)
            assert bt.is_doubly_b(A) == bt.is_doubly_b(P)
            assert bt.is_b(A) == bt.is_sdd(P)
            assert bt.is_doubly_b(A) == bt.is_sddd(P)

    def test_z_tensor_equivalences(self):
        rng = np.random.default_rng(43)
        for k in range(200):
            A = random_z(rng, 2 + k % 3, 2 + k % 3)
            assert bt.is_b(A) == bt.is_sdd(A)
            assert bt.is_doubly_b(A) == bt.is_sddd(A)

    def test_implications(self):
        rng = np.random.default_rng(44)
        for A in _ladder_instances(rng, 300):
            if bt.is_b(A):
                assert bt.is_doubly_b(A)
                assert bt.is_b0(A)
            if bt.is_sdd(A):
                assert bt.is_sddd(A)


class TestHeredityAndCone:
    def test_principal_subtensors_stay_in_class(self):
        rng = np.random.default_rng(45)
        from itertools import chain, combinations
        for k in range(60):
            n = 2 + k % 3
            B = random_b(rng, 2 + k % 3, n)
            D = random_doubly_b(rng, 2 + (k + 1) % 3, n)
            subsets = chain.from_iterable(
                combinations(range(1, n + 1), r) for r in range(1, n + 1))
            for J in subsets:
                assert bt.is_b(bt.principal_subtensor(B, J))
                assert bt.is_doubly_b(bt.principal_subtensor(D, J))

    def test_sums_and_scalings_stay_b(self):
        rng = np.random.default_rng(46)
        for k in range(100):
            m, n = 2 + k % 3, 2 + (k + 1) % 3
            A1, A2 = random_b(rng, m, n), random_b(rng, m, n)
            total = bt.Tensor.from_array(A1.array + A2.array)
            assert bt.is_b(total)
            c = float(rng.uniform(0.1, 5.0))
            assert bt.is_b(bt.Tensor.from_array(c * A1.array))
