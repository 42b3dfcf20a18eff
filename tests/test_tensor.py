"""Tensor storage, contraction, row statistics, and slicing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btensor as bt
from cases import make_t42, make_t43, random_tensor


class TestConstruction:
    def test_rejects_wrong_entry_count(self):
        with pytest.raises(bt.InputError):
            bt.Tensor(3, 2, [1.0] * 7)

    def test_rejects_nan_and_inf(self):
        entries = np.ones(8)
        entries[3] = np.nan
        with pytest.raises(bt.InputError):
            bt.Tensor(3, 2, entries)
        entries[3] = np.inf
        with pytest.raises(bt.InputError):
            bt.Tensor(3, 2, entries)

    def test_rejects_order_below_two(self):
        with pytest.raises(bt.InputError):
            bt.Tensor(1, 3, [1.0, 2.0, 3.0])

    def test_entry_cap(self):
        with pytest.raises(bt.InputError):
            bt.Tensor(4, 10, np.zeros(10**4), entry_cap=9999)

    def test_entries_are_immutable(self):
        A = bt.Tensor.ones(3, 2)
        with pytest.raises(ValueError):
            A.array[0, 0, 0] = 5.0

    def test_input_is_copied(self):
        entries = np.ones((2, 2, 2))
        A = bt.Tensor.from_array(entries)
        entries[0, 0, 0] = 5.0
        assert A.entry(1, 1, 1) == 1.0

    def test_entry_accessor_is_one_based(self):
        t43 = make_t43()
        assert t43.entry(2, 2, 2, 2) == 18.0
        assert t43.entry(2, 1, 1, 2) == 15.0
        with pytest.raises(bt.InputError):
            t43.entry(0, 1, 1, 1)


class TestJson:
    def test_dense_round_trip(self):
        t43 = make_t43()
        again = bt.Tensor.from_json_dict(t43.to_json_dict())
        assert again == t43

    def test_sparse_matches_dense(self):
        sparse = {
            "order": 4, "dim": 2,
            "sparse": [
                {"idx": [1, 1, 1, 1], "val": 2.0},
                {"idx": [2, 2, 2, 2], "val": 2.0},
                {"idx": [1, 2, 2, 2], "val": -1.0},
                {"idx": [2, 1, 2, 2], "val": -1.0},
                {"idx": [2, 2, 1, 2], "val": -1.0},
                {"idx": [2, 2, 2, 1], "val": -1.0},
            ],
        }
        assert bt.Tensor.from_json_dict(sparse) == make_t42()

    def test_sparse_duplicate_index_is_an_error(self):
        with pytest.raises(bt.InputError):
            bt.Tensor.from_json_dict({
                "order": 2, "dim": 2,
                "sparse": [{"idx": [1, 1], "val": 1.0}, {"idx": [1, 1], "val": 2.0}],
            })

    def test_needs_exactly_one_payload(self):
        with pytest.raises(bt.InputError):
            bt.Tensor.from_json_dict({"order": 2, "dim": 1, "dense": [1.0],
                                      "sparse": []})
        with pytest.raises(bt.InputError):
            bt.Tensor.from_json_dict({"order": 2, "dim": 1})

    def test_sparse_index_out_of_range(self):
        with pytest.raises(bt.InputError):
            bt.Tensor.from_json_dict({
                "order": 2, "dim": 2, "sparse": [{"idx": [3, 1], "val": 1.0}]})


class TestContract:
    def test_all_ones_annihilates_balanced_vector(self):
        got = bt.contract(bt.Tensor.ones(4, 3), [1.0, -1.0, 0.0])
        assert np.array_equal(got, np.zeros(3))

    def test_identity_gives_componentwise_powers(self):
        A = bt.Tensor.identity(4, 3)
        x = np.array([2.0, -3.0, 0.5])
        assert np.array_equal(bt.contract(A, x), x**3)

    def test_t43_kernel_vector(self):
        got = bt.contract(make_t43(), [-4.0, 2.0, 3.0])
        assert np.max(np.abs(got)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(bt.InputError):
            bt.contract(bt.Tensor.ones(3, 2), [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(min_value=-4.0, max_value=4.0), seed=st.integers(0, 10**6))
    def test_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        A = random_tensor(rng, 3, 3)
        x = rng.uniform(-1.0, 1.0, size=3)
        lhs = bt.contract(A, c * x)
        rhs = c**2 * bt.contract(A, x)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestPolyeval:
    def test_all_ones_is_sum_power(self):
        assert bt.polyeval(bt.Tensor.ones(4, 3), [1.0, 1.0, 1.0]) == 81.0

    def test_t42_at_point_is_negative(self):
        # direct expansion: 2*x1^4 + 2*x2^4 - 4*x1*x2^3 at (0.9, 1)
        expected = 2 * 0.9**4 + 2.0 - 4 * 0.9
        assert bt.polyeval(make_t42(), [0.9, 1.0]) == pytest.approx(expected, abs=1e-10)
        assert bt.polyeval(make_t42(), [0.9, 1.0]) == pytest.approx(-0.2878, abs=1e-10)

    def test_zero_vector(self):
        assert bt.polyeval(make_t43(), [0.0, 0.0, 0.0]) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_agrees_with_contract_dot(self, seed):
        rng = np.random.default_rng(seed)
        A = random_tensor(rng, 4, 2, scale=5.0)
        x = rng.uniform(-2.0, 2.0, size=2)
        direct = bt.polyeval(A, x)
        via_contract = float(np.dot(bt.contract(A, x), x))
        assert direct == pytest.approx(via_contract, rel=1e-10, abs=1e-10)


class TestRowStats:
    def test_t43_row2(self):
        st_ = bt.row_stats(make_t43())
        assert st_.diag[1] == 18.0
        assert st_.r_plus[1] == 16.0
        assert st_.r_minus[1] == 0.0
        assert st_.row_sum[1] == 433.0

    def test_identity_rows(self):
        st_ = bt.row_stats(bt.Tensor.identity(3, 4))
        assert np.array_equal(st_.diag, np.ones(4))
        assert np.array_equal(st_.r_plus, np.zeros(4))
        assert np.array_equal(st_.r_minus, np.zeros(4))
        assert np.array_equal(st_.row_sum, np.ones(4))

    def test_t42_row2(self):
        st_ = bt.row_stats(make_t42())
        assert st_.diag[1] == 2.0
        assert st_.r_plus[1] == 0.0
        assert st_.r_minus[1] == -1.0
        assert st_.row_sum[1] == -1.0
        assert st_.off_diag_abs_sum[1] == 3.0

    def test_r_signed_selects_by_diagonal_sign(self):
        arr = np.zeros((2, 2))
        arr[0, 0], arr[0, 1] = -2.0, -0.5
        arr[1, 1], arr[1, 0] = 3.0, 0.25
        st_ = bt.row_stats(bt.Tensor.from_array(arr))
        assert st_.r_signed[0] == -0.5
        assert st_.r_signed[1] == 0.25

    def test_invariant_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = random_tensor(rng, 3, 3)
            st_ = bt.row_stats(A)
            assert np.all(st_.r_plus >= 0.0)
            assert np.all(st_.r_minus <= 0.0)
            rows = A.array.reshape(3, -1)
            for i in range(3):
                off = np.delete(rows[i], i * ((rows.shape[1] - 1) // 2))
                assert np.all(st_.r_plus[i] >= off)
                assert np.all(st_.r_minus[i] <= off)

    def test_constant_tensor_stats_survive_permutation(self):
        rng = np.random.default_rng(5)
        A = bt.Tensor(3, 3, np.full(27, 0.7))
        st_a = bt.row_stats(A)
        shuffled = rng.permutation(A.array.ravel())
        st_b = bt.row_stats(bt.Tensor(3, 3, shuffled))
        for field in ("diag", "r_plus", "r_minus", "row_sum", "off_diag_abs_sum"):
            assert np.array_equal(getattr(st_a, field), getattr(st_b, field))

    def test_closed_forms_match_row_sums(self):
        rng = np.random.default_rng(13)
        constant = np.full((3, 3, 3), -0.1)
        constant[0, 0, 0], constant[1, 1, 1], constant[2, 2, 2] = -1.0, 0.0, 1.0
        samples = [bt.Tensor.from_array(constant)]
        samples += [random_tensor(rng, 2 + k % 3, 2 + k % 3) for k in range(30)]
        # a diagonal of either sign far above the rest of its row
        for k in range(12):
            arr = random_tensor(rng, 2 + k % 3, 2 + k % 2).array.copy()
            n = arr.shape[0]
            arr[tuple([np.arange(n)] * arr.ndim)] *= 1e17 * rng.choice([-1.0, 1.0], n)
            samples.append(bt.Tensor.from_array(arr))
        for A in samples:
            st_ = bt.row_stats(A)
            n, width = A.dim, A.dim ** (A.order - 1)
            assert st_.width == width
            rows = A.array.reshape(n, width)
            for i in range(n):
                d = i * (width - 1) // (n - 1)
                off = np.delete(rows[i], d)
                want = {
                    "upper_deficit": math.fsum(st_.r_plus[i] - off),
                    "lower_excess": math.fsum(off - st_.r_minus[i]),
                    "signed_deficit": math.fsum(abs(st_.r_signed[i] - off)),
                }
                # the error scale is the off-diagonal part of the row alone
                ulp = np.spacing(width * np.abs(off).max())
                for field, value in want.items():
                    assert abs(getattr(st_, field)[i] - value) <= 4 * ulp, field
                # the endpoints carry the diagonal, through the row sum
                ulp = np.spacing(width * np.abs(rows[i]).max())
                low = rows[i, d] - st_.r_plus[i] - want["upper_deficit"]
                high = rows[i, d] - st_.r_minus[i] + want["lower_excess"]
                assert abs(st_.lows[i] - low) <= 4 * ulp
                assert abs(st_.highs[i] - high) <= 4 * ulp
            # sums of nonnegative terms stay nonnegative after rounding
            assert np.all(st_.upper_deficit >= 0.0) and np.all(st_.lower_excess >= 0.0)

    def test_closed_forms_scale_exactly_near_overflow(self):
        # once W * max|a| nears DBL_MAX, W * r_plus alone can overflow; the
        # closed forms are then evaluated on the rows scaled by a power of
        # two, which must give the exactly scaled result, overflowing to
        # infinity only where that result exceeds DBL_MAX
        rng = np.random.default_rng(17)
        fields = ("upper_deficit", "lower_excess", "signed_deficit", "lows", "highs")
        for k in range(12):
            A = random_tensor(rng, 2 + k % 3, 2 + k % 2)
            width = A.dim ** (A.order - 1)
            shift = 1024 + k % 2 - math.frexp(width * np.abs(A.array).max())[1]
            B = bt.Tensor.from_array(np.ldexp(A.array, shift))
            st_a, st_b = bt.row_stats(A), bt.row_stats(B)
            for field in fields:
                with np.errstate(over="ignore"):
                    want = np.ldexp(getattr(st_a, field), shift)
                assert np.array_equal(getattr(st_b, field), want), field

    def test_dim_one_tensor(self):
        A = bt.Tensor(3, 1, [4.0])
        st_ = bt.row_stats(A)
        assert st_.diag[0] == 4.0
        assert st_.r_plus[0] == 0.0 and st_.r_minus[0] == 0.0
        assert st_.row_sum[0] == 4.0 and st_.off_diag_abs_sum[0] == 0.0


class TestPrincipalSubtensor:
    def test_singleton_gives_diagonal_entry(self):
        sub = bt.principal_subtensor(make_t43(), [2])
        assert sub.order == 4 and sub.dim == 1
        assert sub.entry(1, 1, 1, 1) == 18.0

    def test_full_index_set_is_identity(self):
        t43 = make_t43()
        assert bt.principal_subtensor(t43, [1, 2, 3]) == t43

    def test_constant_tensor_restriction(self):
        sub = bt.principal_subtensor(bt.Tensor.ones(3, 3), [1, 3])
        assert sub == bt.Tensor.ones(3, 2)

    def test_nested_restriction_idempotent(self):
        rng = np.random.default_rng(2)
        A = random_tensor(rng, 3, 4)
        once = bt.principal_subtensor(A, [1, 3, 4])
        twice = bt.principal_subtensor(once, [1, 2, 3])
        assert once == twice

    def test_validation(self):
        t43 = make_t43()
        with pytest.raises(bt.InputError):
            bt.principal_subtensor(t43, [])
        with pytest.raises(bt.InputError):
            bt.principal_subtensor(t43, [0, 1])
        with pytest.raises(bt.InputError):
            bt.principal_subtensor(t43, [2, 2])
        with pytest.raises(bt.InputError):
            bt.principal_subtensor(t43, [3, 1])


class TestSymmetry:
    def test_all_ones_and_identity(self):
        assert bt.is_symmetric(bt.Tensor.ones(4, 3))
        assert bt.is_symmetric(bt.Tensor.identity(4, 3))

    def test_t43_is_not_symmetric(self):
        # entry (1,2,2,2) = 64 while (2,1,2,2) = 16
        assert not bt.is_symmetric(make_t43())

    def test_t42_is_symmetric(self):
        # the whole orbit of (1,2,2,2) carries -1, everything else is 0 or diagonal
        assert bt.is_symmetric(make_t42())

    def test_tolerance_parameter(self):
        arr = np.ones((3, 3, 3))
        arr[0, 1, 2] += 1e-12
        A = bt.Tensor.from_array(arr)
        assert not bt.is_symmetric(A)
        assert bt.is_symmetric(A, tol=1e-10)

    def test_rejects_invariance_under_a_proper_subgroup(self):
        rng = np.random.default_rng(12)
        base = rng.integers(-4, 5, size=(3,) * 4).astype(float)
        # invariant under the axis swaps (0 1) and (2 3), not under (1 2)
        klein = sum(np.transpose(base, p) for p in
                    [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)])
        assert np.array_equal(klein, np.swapaxes(klein, 0, 1))
        assert np.array_equal(klein, np.swapaxes(klein, 2, 3))
        assert not np.array_equal(klein, np.swapaxes(klein, 1, 2))
        # invariant under the 3-cycle of axes, not under a transposition
        base = rng.integers(-4, 5, size=(3,) * 3).astype(float)
        cyclic = sum(np.transpose(base, p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert np.array_equal(cyclic, np.transpose(cyclic, (1, 2, 0)))
        assert not np.array_equal(cyclic, np.swapaxes(cyclic, 0, 1))
        for arr in (klein, cyclic):
            A = bt.Tensor.from_array(arr)
            assert not bt.is_symmetric(A)
            assert not bt.is_symmetric(A, tol=0.5)
