"""Tensor storage, contraction, row statistics, and slicing."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btensor as bt
from btensor import core
from cases import (
    make_cancelling_rows,
    make_t42,
    make_t43,
    random_b,
    random_hypergraph,
    random_mixed_diag,
    random_tensor,
    random_z,
)


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

    def test_entry_cap(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ENTRY_CAP", 9999)
        with pytest.raises(bt.InputError):
            bt.Tensor(4, 10, np.zeros(10**4))

    def test_entries_are_immutable(self):
        A = bt.Tensor.ones(3, 2)
        with pytest.raises(ValueError):
            A.array[0, 0, 0] = 5.0

    def test_equal_tensors_hash_equal(self):
        # -0.0 == 0.0, so tensors apart only in the signs of zeros are equal
        a = bt.Tensor(2, 2, [0.0, 1.0, 1.0, 0.0])
        b = bt.Tensor(2, 2, [-0.0, 1.0, 1.0, -0.0])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        c = bt.Tensor(2, 2, [0.0, 1.0, 1.0, 1e-300])
        assert len({a, b, c, bt.Tensor(4, 1, [0.0])}) == 3

    def test_input_is_copied(self):
        entries = np.ones((2, 2, 2))
        A = bt.Tensor.from_array(entries)
        entries[0, 0, 0] = 5.0
        assert A.entry(1, 1, 1) == 1.0

    def test_entry_accessor_is_one_based(self):
        t43 = make_t43()
        assert t43.entry(2, 2, 2, 2) == 18.0
        assert t43.entry(2, 1, 1, 2) == 15.0
        with pytest.raises(bt.InputError, match=r"^index component 0 outside \[1, 3\]$"):
            t43.entry(0, 1, 1, 1)
        with pytest.raises(bt.InputError,
                           match=r"^index component must be an integer, got 1\.0$"):
            t43.entry(1, 1.0, 1, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: bt.Tensor.from_array(np.ones(3)), "array must have at least 2 axes, got 1"),
    (lambda: bt.Tensor.from_array(np.ones((2, 3))),
     "array axes must all have equal length, got shape (2, 3)"),
    (lambda: bt.Tensor.ones(3, 2).entry(1, 1), "multi-index needs 3 components, got 2"),
    (lambda: bt.Tensor.from_json_dict({"order": 2, "dim": 2, "sparse": [{"idx": [1, 1]}]}),
     "sparse records must look like {'idx': [...], 'val': v}"),
    (lambda: bt.Tensor.from_json_dict(
        {"order": 2, "dim": 2, "sparse": [{"idx": [1, 1], "val": [1, 2]}]}),
     "sparse value [1, 2] must be a real number"),
    (lambda: bt.contract(bt.Tensor.ones(3, 2), [np.nan, 1.0]),
     "vector components must all be finite"),
    (lambda: bt.polyeval(bt.Tensor.ones(3, 2), [1.0, np.inf]),
     "vector components must all be finite"),
], ids=["from-array-one-axis", "from-array-unequal-axes", "entry-arity", "sparse-without-val",
        "sparse-val-list", "contract-nan", "polyeval-inf"])
def test_input_checks_name_the_fault(build, message):
    with pytest.raises(bt.InputError, match=f"^{re.escape(message)}$"):
        build()


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
        for idx, message in [
            ([3, 1], r"^sparse index component 3 outside \[1, 2\]$"),
            ([1, "2"], r"^sparse index component must be an integer, got '2'$"),
        ]:
            with pytest.raises(bt.InputError, match=message):
                bt.Tensor.from_json_dict({
                    "order": 2, "dim": 2, "sparse": [{"idx": idx, "val": 1.0}]})

    @pytest.mark.parametrize("parse, obj, message", [
        (bt.Tensor.from_json_dict, [2, 2], "tensor JSON must be an object"),
        (bt.Tensor.from_json_dict, {"dim": 2, "dense": []},
         "tensor JSON lacks required field 'order'"),
        (bt.Hypergraph.from_json_dict, "graph", "hypergraph JSON must be an object"),
        (bt.Hypergraph.from_json_dict, {"n": 3, "m": 2},
         "hypergraph JSON lacks required field 'edges'"),
    ])
    def test_an_object_with_its_required_fields(self, parse, obj, message):
        with pytest.raises(bt.InputError) as info:
            parse(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize("header", [
        {"order": 1, "dim": 2}, {"order": 2, "dim": 0}, {"order": 4, "dim": 200},
        {"order": "2", "dim": 2}, {"order": 2, "dim": True}, {"order": 33, "dim": 1},
    ])
    def test_sparse_and_dense_share_the_header_check(self, header):
        messages = []
        for payload in ({"dense": []}, {"sparse": []}):
            with pytest.raises(bt.InputError) as info:
                bt.Tensor.from_json_dict({**header, **payload})
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_sparse_value_must_be_finite(self):
        with pytest.raises(bt.InputError, match="finite"):
            bt.Tensor.from_json_dict({
                "order": 2, "dim": 2, "sparse": [{"idx": [1, 2], "val": float("inf")}]})


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


def reference_row_stats(A):
    """The :class:`RowStats` fields, in order, from the whole (n, W) row
    array at once, always summing the absolute values of the entries in
    their unit; the unit rule is that of the sweep."""
    rows, pos = core._row_layout(A)
    n, width = rows.shape
    idx = np.arange(n)
    off = rows.copy()
    off[idx, pos] = -np.inf
    r_plus = np.maximum(off.max(axis=1), 0.0)
    off[idx, pos] = np.inf
    r_minus = np.minimum(0.0, off.min(axis=1))
    off[idx, pos] = 0.0
    diag = rows[idx, pos]
    top = np.abs((diag, r_plus, r_minus)).max(axis=0)
    k = np.maximum(0, np.frexp(top)[1] + math.frexp(width)[1] - core._UNIT_EXPONENT)
    shift, unit = r_plus, np.ldexp(1.0, k)
    off = np.ldexp(off, -k[:, None])
    diag, r_plus, r_minus = (np.ldexp(v, -k) for v in (diag, r_plus, r_minus))
    off_sum, abs_sum = off.sum(axis=1), np.abs(off).sum(axis=1)
    row_sum = diag + off_sum
    upper = np.maximum((width - 1) * r_plus - off_sum, 0.0)
    lower = np.maximum(off_sum - (width - 1) * r_minus, 0.0)
    return (diag, r_plus, r_minus, row_sum, abs_sum,
            np.where(r_plus == 0.0, abs_sum, upper), np.where(r_minus == 0.0, abs_sum, lower),
            row_sum - width * r_plus, row_sum - width * r_minus, shift, unit)


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
        # once W * max|a| nears DBL_MAX, W * r_plus alone can overflow; each
        # row is then divided by its unit, a power of two, which must leave
        # every field finite and exactly the field of the unscaled row times
        # 2**shift / unit, so that multiplying back gives the exactly scaled
        # value, or infinity only where that value exceeds DBL_MAX
        rng = np.random.default_rng(17)
        fields = [f for f in bt.RowStats.__dataclass_fields__
                  if f not in ("shift", "unit", "width")]
        for k in range(12):
            A = random_tensor(rng, 2 + k % 3, 2 + k % 2)
            width = A.dim ** (A.order - 1)
            shift = 1024 + k % 2 - math.frexp(width * np.abs(A.array).max())[1]
            B = bt.Tensor.from_array(np.ldexp(A.array, shift))
            st_a, st_b = bt.row_stats(A), bt.row_stats(B)
            assert np.all(st_a.unit == 1.0) and np.all(st_b.unit > 1.0)
            mantissa, exponent = np.frexp(st_b.unit)
            assert np.all(mantissa == 0.5)
            for field in fields:
                got = getattr(st_b, field)
                assert np.all(np.isfinite(got)), field
                assert np.all(np.isfinite(np.outer(got, got))), field
                assert np.array_equal(got, np.ldexp(getattr(st_a, field), shift + 1 - exponent))
                with np.errstate(over="ignore"):
                    want = np.ldexp(getattr(st_a, field), shift)
                assert np.array_equal(st_b.in_units(got), want), field
            # the shift is r_plus outside the unit, exactly scaled
            assert np.array_equal(st_a.shift, st_a.r_plus)
            assert np.array_equal(st_b.shift, np.ldexp(st_a.r_plus, shift))

    @pytest.mark.parametrize("block_entries", [
        lambda width: 1,                       # a row longer than the buffer
        lambda width: width,                   # one row per block
        lambda width: width + width // 2,      # one row, buffer not a row multiple
        lambda width: 2 * width + width // 2,  # two rows, short last block for odd n
        lambda width: 3 * width,               # three rows, short last block for n = 4, 5
        lambda width: 10**9,                   # one block for every tensor
    ])
    def test_row_blocks_do_not_change_any_field(self, monkeypatch, block_entries):
        # row_stats walks blocks of whole rows; per-row reductions must not
        # depend on where the block boundaries fall, also in the scaled
        # regime near DBL_MAX (k > 0) and on rows spread over 10**+-8
        rng = np.random.default_rng(29)
        families = (random_tensor, random_mixed_diag, random_z, random_b)
        samples = []
        for k, (m, n) in enumerate([(2, 3), (2, 5), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4)]):
            arr = families[k % 4](rng, m, n).array
            top = np.abs(arr).max()
            samples += [arr, arr * 10.0 ** rng.uniform(-8.0, 8.0, arr.shape),
                        arr * (1.5e308 / top), arr * (10.0 ** rng.uniform(300, 308) / top)]
        samples.append(random_tensor(rng, 2, 400).array)  # two blocks by default
        fields = [f for f in bt.RowStats.__dataclass_fields__ if f != "width"]
        for arr in samples:
            A = bt.Tensor.from_array(arr)
            width = A.dim ** (A.order - 1)
            want = bt.row_stats(A)
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries(width))
            got = bt.row_stats(A)
            assert core._scratch(A.dim, width).size <= max(width, block_entries(width))
            monkeypatch.undo()
            assert got.width == want.width
            for field in fields:
                assert not np.isnan(getattr(got, field)).any(), field
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    @pytest.mark.parametrize("rows_per_block", [1, 2, None])
    def test_one_signed_rows_skip_no_bit(self, monkeypatch, rows_per_block):
        # where every row of a block has one sign, the sweep reads the
        # absolute sums off the signed sums; each field must stay bitwise
        # that of a sweep that always sums the absolute values
        rng = np.random.default_rng(43)
        samples = [np.zeros((1, 1)), np.full((3, 3, 3), -0.0), np.array([[-0.0, -0.0], [0.0, -0.0]])]
        for m, n in [(2, 1), (3, 1), (2, 2), (2, 5), (3, 3), (3, 4), (4, 3)]:
            z = random_z(rng, m, n).array
            signed_zeros = np.where(rng.random(z.shape) < 0.3, -0.0, z)
            tiny = np.where(rng.random(z.shape) < 0.5, -1.0, 1.0) * 5e-324 * rng.integers(0, 9, z.shape)
            spread = 10.0 ** rng.uniform(-320.0, 0.0, z.shape)
            spread.reshape(n, -1)[:, 0] = 1.0  # one entry per row at full scale
            spread *= z / np.abs(z).max() * 1.5e308
            mixed = random_tensor(rng, m, n).array.copy()
            for i in range(n):  # rows of one sign or of both, in any order
                mixed[i] = [-np.abs(mixed[i]), np.abs(mixed[i]), mixed[i]][rng.integers(3)]
            samples += [z, -z, np.abs(z), signed_zeros, -signed_zeros, tiny, -np.abs(tiny),
                        spread, -spread, mixed,
                        mixed / np.abs(mixed).max() * 1.5e308]
        fields = [f for f in bt.RowStats.__dataclass_fields__ if f != "width"]
        for arr in samples:
            A = bt.Tensor.from_array(arr)
            width = A.dim ** (A.order - 1)
            if rows_per_block is not None:
                monkeypatch.setattr(core, "_BLOCK_ENTRIES", rows_per_block * width)
            got = bt.row_stats(A)
            monkeypatch.undo()
            for field, want in zip(fields, reference_row_stats(A)):
                assert getattr(got, field).tobytes() == want.tobytes(), (field, arr)

    def test_row_sums_cancel_exactly_near_overflow(self):
        # each row's absolute off-diagonal sum is 3e308, finite in the row's
        # unit and infinite only once multiplied back
        st_ = bt.row_stats(make_cancelling_rows())
        assert np.array_equal(st_.row_sum, np.zeros(8))
        assert np.all(st_.unit > 1.0)
        assert np.array_equal(st_.off_diag_abs_sum, 3.0 * (1e308 / st_.unit))
        assert np.all(st_.in_units(st_.off_diag_abs_sum) == np.inf)

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
        for empty in ([], iter([])):
            with pytest.raises(bt.InputError, match="^index set must be nonempty$"):
                bt.principal_subtensor(t43, empty)
        with pytest.raises(bt.InputError, match=r"^index set member 0 outside \[1, 3\]$"):
            bt.principal_subtensor(t43, [0, 1])
        with pytest.raises(bt.InputError,
                           match=r"^index set member must be an integer, got True$"):
            bt.principal_subtensor(t43, [True, 2])
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

    def test_exact_comparison(self):
        arr = np.ones((3, 3, 3))
        arr[0, 1, 2] += 1e-12
        assert not bt.is_symmetric(bt.Tensor.from_array(arr))

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
            assert not bt.is_symmetric(bt.Tensor.from_array(arr))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_every_permutation(self, m, n):
        # exactly symmetric, then changed in one entry at a time: a change
        # on the diagonal keeps the symmetry, any other breaks it
        def brute_force(arr):
            return all(np.array_equal(arr, np.transpose(arr, p))
                       for p in itertools.permutations(range(m)))

        rng = np.random.default_rng(13)
        base = rng.integers(-4, 5, size=(n,) * m).astype(float)
        sym = sum(np.transpose(base, p) for p in itertools.permutations(range(m)))
        assert bt.is_symmetric(bt.Tensor.from_array(sym)) and brute_force(sym)
        for index in np.ndindex(sym.shape):
            arr = sym.copy()
            arr[index] += 1.0
            assert bt.is_symmetric(bt.Tensor.from_array(arr)) == brute_force(arr), index


def split_parts(dec):
    return [dec.part_b, dec.part_c]


class TestOwnership:
    """Tensors the package builds skip the defensive copy, but stay
    read-only and share no memory with their input."""

    @staticmethod
    def assert_owned(T, *inputs):
        assert not T.array.flags.writeable
        with pytest.raises(ValueError):
            T.array.ravel()[0] = 1.0
        for source in inputs:
            assert not np.shares_memory(T.array, source)

    @pytest.mark.parametrize("build", [
        lambda A: [bt.a_plus(A)],
        lambda A: [bt.f_transform(A)],
        lambda A: [bt.principal_subtensor(A, [1, 3])],
        lambda A: [bt.principal_subtensor(A, [1, 2, 3])],
        lambda A: split_parts(bt.decompose_b(A)),
        lambda A: split_parts(bt.decompose_doubly_b(A)),
    ])
    def test_outputs_are_read_only_and_unshared(self, build):
        rng = np.random.default_rng(31)
        # B-tensors, so that both splits exist
        for A in (random_b(rng, 3, 3), random_b(rng, 4, 3)):
            outputs = build(A)
            for T in outputs:
                self.assert_owned(T, A.array, *(U.array for U in outputs if U is not T))

    def test_laplacian_is_read_only_and_unshared(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            G = random_hypergraph(rng, 5, 3)
            self.assert_owned(bt.laplacian_tensor(G), G.degrees)

    def test_builders_that_prove_finiteness_keep_their_entries(self):
        # f_transform, principal_subtensor and laplacian_tensor skip the
        # finiteness pass: their entries are those of the definitions, and
        # finite, also next to DBL_MAX
        rng = np.random.default_rng(47)
        for m, n in [(2, 1), (2, 4), (3, 3), (4, 3)]:
            arr = random_mixed_diag(rng, m, n).array
            for A in (bt.Tensor.from_array(arr),
                      bt.Tensor.from_array(arr / np.abs(arr).max() * 1.7e308)):
                signs = np.sign(A.array[core._diag_index(n, m)])
                flipped = bt.f_transform(A).array
                assert flipped.tobytes() == (signs.reshape((n,) + (1,) * (m - 1))
                                             * A.array).tobytes()
                members = sorted(rng.choice(np.arange(1, n + 1), size=max(1, n - 1),
                                            replace=False).tolist())
                sub = bt.principal_subtensor(A, members).array
                zero_based = [i - 1 for i in members]
                assert sub.tobytes() == A.array[np.ix_(*[zero_based] * m)].tobytes()
                assert np.isfinite(flipped).all() and np.isfinite(sub).all()
        for n, m in [(1, 2), (5, 3), (6, 4)]:
            G = random_hypergraph(rng, n, m)
            L = bt.laplacian_tensor(G)
            assert L == bt.Tensor.from_array(L.array)  # passes the checked constructor
            assert np.array_equal(L.array[core._diag_index(n, m)], G.degrees)
