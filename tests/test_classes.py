"""Class predicates, transforms, and their equivalence ladder."""

import math
import warnings

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
    tie_row_tensors,
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

    @pytest.mark.parametrize("block_entries", [1, 50, 1 << 17])
    def test_a_plus_subtracts_the_row_stats_r_plus(self, monkeypatch, block_entries):
        # a_plus reads r_plus alone; in blocks of one, a few or all rows it
        # must give bitwise the tensor row_stats' r_plus gives once multiplied
        # back by the row units, which exceed 1 on the rows near 1e300
        from btensor import core

        rng = np.random.default_rng(2)
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        for m, n in [(2, 1), (2, 5), (3, 4), (4, 3), (5, 2), (3, 9)]:
            for big, A in [(False, random_tensor(rng, m, n)),
                           (False, random_mixed_diag(rng, m, n)),
                           (True, bt.Tensor.from_array(1e300 * random_tensor(rng, m, n).array))]:
                stats = bt.row_stats(A)
                assert np.all(stats.unit > 1.0) if big else np.all(stats.unit == 1.0)
                shift = stats.in_units(stats.r_plus).reshape((n,) + (1,) * (m - 1))
                assert bt.a_plus(A).array.tobytes() == (A.array - shift).tobytes()

    def test_a_plus_of_a_z_tensor_is_the_tensor(self):
        # a - 0.0 is a, -0.0 included: no row is shifted, and the result is a
        # read-only copy
        rng = np.random.default_rng(4)
        for m, n in [(2, 1), (2, 4), (3, 3), (4, 3)]:
            arr = random_z(rng, m, n).array.copy()
            arr[rng.random(arr.shape) < 0.3] = -0.0
            arr[rng.random(arr.shape) < 0.2] = 0.0
            A = bt.Tensor.from_array(arr)
            P = bt.a_plus(A)
            assert P.array.tobytes() == A.array.tobytes()
            assert not P.array.flags.writeable
            assert not np.shares_memory(P.array, A.array)

    def test_a_plus_past_the_float_range_is_a_precondition_error(self):
        # a valid input whose shifted row leaves the float range: no
        # overflow warning and no complaint about the input
        A = matrix([[-1.5e308, 1e308], [0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bt.PreconditionError, match="a_plus transform exceeds"):
                bt.a_plus(A)
            assert bt.a_plus(matrix([[1.5e308, 1e308], [0, 1]])) == matrix(
                [[1.5e308 - 1e308, 0], [0, 1]])

    @pytest.mark.parametrize("A", [
        # the second row's diagonal leaves the range
        matrix([[1, 0], [1e308, -1.5e308]]),
        # an off-diagonal entry of the first row leaves the range
        bt.Tensor(3, 2, [1, -1.5e308, 1e308, 0, 0, 0, 0, 1]),
    ], ids=["second-row-diagonal", "off-diagonal"])
    def test_a_plus_past_the_float_range_from_any_entry(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bt.PreconditionError, match="a_plus transform exceeds"):
                bt.a_plus(A)

    def test_a_plus_raises_exactly_where_an_entry_leaves_the_float_range(self):
        # the per-row minimum decides what a finiteness pass over the whole
        # shifted tensor decides, on rows at the edge of the range too
        rng = np.random.default_rng(5)
        for m, n in [(2, 3), (3, 3), (4, 2)]:
            for _ in range(40):
                arr = random_tensor(rng, m, n).array
                arr = arr / np.abs(arr).max() * 10.0 ** rng.uniform(307.5, 308.25)
                A = bt.Tensor.from_array(arr)
                with np.errstate(over="ignore"):
                    shifted = arr - bt.row_stats(A).shift.reshape((n,) + (1,) * (m - 1))
                if np.isfinite(shifted).all():
                    assert bt.a_plus(A).array.tobytes() == shifted.tobytes()
                else:
                    with pytest.raises(bt.PreconditionError):
                        bt.a_plus(A)

    def test_r_plus_of_a_negative_zero_row_is_positive_zero(self):
        # row 1's largest off-diagonal entry is -0.0; its r_plus is +0.0, so
        # no witness carries rhs -0.0, and a_plus leaves its -0.0 entry as is
        A = bt.Tensor(2, 2, [-1.0, -0.0, 0.0, 1.0])
        assert not np.signbit(bt.row_stats(A).r_plus).any()
        for witness in bt.classify(A).witnesses.values():
            assert not math.copysign(1.0, witness["rhs"]) < 0.0
        assert np.signbit(bt.a_plus(A).array[0, 1])

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
        # row 1 flipped is (2, 0.5, -0.5, 0): row sum 2 equals 4 * r_plus 0.5
        A = bt.Tensor(3, 2, [-2.0, -0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 4.0])
        report = bt.classify(A)
        assert not report.flags["F_B"] and report.flags["F_doublyB"]
        assert report.witnesses["F_B"] == {"row": 1, "lhs": 2.0, "rhs": 2.0, "margin": 0.0}
        F = bt.f_transform(A)
        assert not bt.is_b(F) and bt.is_doubly_b(F)
        assert report.witnesses["F_B"] == bt.classify(F).witnesses["B"]


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

    def test_tiny_row_beside_a_huge_one_keeps_its_classes(self):
        # each row has its own unit: the 1e-300 row stays in unit 1 rather
        # than underflowing in the unit of the 1e307 row
        A = bt.Tensor(2, 2, [1e307, 0.0, 0.0, 1e-300])
        stats = bt.row_stats(A)
        assert stats.unit[0] > 1.0 and stats.unit[1] == 1.0
        flags = bt.classify(A).flags
        assert flags["SDD"] and flags["B"] and flags["doublyB"] and flags["SDDD"]
        assert bt.is_sdd(A) and bt.is_b(A) and bt.is_doubly_b(A)

    @pytest.mark.parametrize("small", [1e-200, 1e-160])
    def test_small_positive_entry_beside_a_huge_diagonal_is_not_z(self, small):
        # in the unit of the 1e300 row, 1e-200 underflows to 0 and 1e-160
        # rounds to a subnormal; the Z test and the row constants read the
        # row's r_plus outside the unit
        A = bt.Tensor(2, 2, [1e300, small, 0.0, 1.0])
        stats = bt.row_stats(A)
        assert stats.unit[0] > 1.0 and stats.shift[0] == small
        report = bt.classify(A)
        assert not report.flags["Z"] and not bt.is_z(A)
        assert report.witnesses["Z"] == {"row": 1, "lhs": small, "rhs": 0.0, "margin": small}
        with pytest.raises(bt.ClassViolationError):
            bt.intervals_z(A)
        for dec in (bt.decompose_b(A), bt.decompose_doubly_b(A)):
            assert bt.is_z(dec.part_b)
            assert dec.part_c.array[0, 1] == small
        assert list(bt.decompose_doubly_b(A).row_constants) == [small, 0.0]

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


class TestTieRows:
    """One row of each tensor has its B margin at rounding level: each
    inequality must then be decided by one float expression, whatever name
    it is tested under."""

    SIZES = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]

    def test_f_flags_and_witnesses_are_the_transform_path(self):
        rng = np.random.default_rng(2024)
        for A in tie_row_tensors(rng, self.SIZES, 10):
            report = bt.classify(A)
            flipped = bt.classify(bt.f_transform(A))
            assert report.flags["F_B"] == flipped.flags["B"]
            assert report.flags["F_doublyB"] == flipped.flags["doublyB"]
            assert report.witnesses.get("F_B") == flipped.witnesses.get("B")
            assert report.witnesses.get("F_doublyB") == flipped.witnesses.get("doublyB")

    def test_z_tensors_classify_with_b_equal_to_sdd(self):
        rng = np.random.default_rng(2025)
        sizes = [(m, n) for m in range(2, 6) for n in range(2, 6)]
        for A in tie_row_tensors(rng, sizes, 10, (random_z, random_sdd_z, random_sddd_z)):
            flags = bt.classify(A).flags
            assert flags["Z"] and flags["B"] == flags["SDD"]

    def test_f_flags_near_overflow_are_the_transform_path(self):
        # ties survive an exact power-of-two scaling up to 1e290..1e308,
        # and no pair product overflows in the row units
        rng = np.random.default_rng(2026)
        for A in tie_row_tensors(rng, self.SIZES, 4):
            top = float(np.abs(A.array).max())
            shift = math.frexp(10.0 ** rng.uniform(290, 308))[1] - math.frexp(top)[1]
            big = bt.Tensor.from_array(np.ldexp(A.array, shift))
            F = bt.f_transform(big)
            assert bt.check_f_b(big) == bt.is_b(F)
            assert bt.check_f_doubly_b(big) == bt.is_doubly_b(F)


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
