"""Decompositions into a Z-part plus a nonnegative structured part."""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import btensor as bt
from btensor import core, decompose
from cases import (
    GENERATORS,
    diag_index,
    make_t42,
    make_t43,
    matrix,
    random_b,
    random_doubly_b,
    random_sddd_z,
    scaled,
)


def assert_reconstructs(dec, A, bitwise):
    """Exact on desk examples; for generic floats, where a bitwise split is
    not representable, within 4 ulps of max(|a|, |c|) per entry, the bound
    the decompositions enforce."""
    total = dec.part_b.array + dec.part_c.array
    if bitwise:
        assert np.array_equal(total, A.array)
    else:
        limit = 4.0 * np.spacing(np.maximum(np.abs(A.array), np.abs(dec.part_c.array)))
        assert np.all(np.abs(total - A.array) <= limit)


def check_b_invariants(dec, A, bitwise=True):
    assert dec.kind == "B"
    assert_reconstructs(dec, A, bitwise)
    assert bt.is_z(dec.part_b) and bt.is_b(dec.part_b)
    assert np.all(dec.part_c.array >= 0.0) and bt.is_b(dec.part_c)
    assert dec.epsilon > 0.0


def check_doubly_invariants(dec, A, bitwise=True):
    assert dec.kind == "doublyB"
    assert_reconstructs(dec, A, bitwise)
    assert bt.is_z(dec.part_b) and bt.is_doubly_b(dec.part_b)
    assert np.all(dec.part_c.array >= 0.0) and bt.is_doubly_b(dec.part_c)
    n, m = A.dim, A.order
    expected = np.broadcast_to(
        dec.row_constants.reshape((n,) + (1,) * (m - 1)), A.array.shape).copy()
    expected[diag_index(n, m)] = dec.row_constants + dec.epsilon
    assert np.array_equal(dec.part_c.array, expected)


class TestDecomposeB:
    def test_matrix_golden(self):
        dec = bt.decompose_b(matrix([[2, 1], [1, 2]]))
        assert dec.epsilon == 0.5
        assert np.array_equal(dec.part_b.array, [[0.5, 0.0], [0.0, 0.5]])
        assert np.array_equal(dec.part_c.array, [[1.5, 1.0], [1.0, 1.5]])
        check_b_invariants(dec, matrix([[2, 1], [1, 2]]))

    def test_identity_golden(self):
        iden = bt.Tensor.identity(4, 3)
        dec = bt.decompose_b(iden)
        assert dec.epsilon == 0.5
        assert np.array_equal(dec.part_b.array, 0.5 * iden.array)
        assert np.array_equal(dec.part_c.array, 0.5 * iden.array)

    def test_t43(self):
        t43 = make_t43()
        dec = bt.decompose_b(t43)
        # smallest dominance slack of the shifted tensor comes from row 3
        assert dec.epsilon == (40.0 / 3.0 - 12.0 - 1.0) / 2.0
        check_b_invariants(dec, t43)

    def test_rejects_non_b_with_witness(self):
        with pytest.raises(bt.ClassViolationError) as err:
            bt.decompose_b(make_t42())
        assert err.value.witness["row"] == 2

    def test_random_b_tensors(self):
        rng = np.random.default_rng(8)
        for k in range(40):
            A = random_b(rng, 2 + k % 3, 2 + (k + 1) % 3)
            check_b_invariants(bt.decompose_b(A), A, bitwise=False)


class TestDecomposeDoublyB:
    def test_counterexample_golden(self):
        t42 = make_t42()
        dec = bt.decompose_doubly_b(t42)
        # d = (2, 2) and s = (1, 3) give the ratios q = (1/2, 3/2), so
        # sqrt(Q) = sqrt(3) / 2 and epsilon = (1 - sqrt(3) / 2) / 2 * 2
        assert dec.epsilon == pytest.approx((2.0 - math.sqrt(3.0)) / 2.0, rel=1e-12)
        assert np.array_equal(dec.row_constants, [0.0, 0.0])
        # C is epsilon times the identity here
        expected_c = dec.epsilon * bt.Tensor.identity(4, 2).array
        assert np.array_equal(dec.part_c.array, expected_c)
        check_doubly_invariants(dec, t42)

    def test_identity_golden(self):
        iden = bt.Tensor.identity(3, 3)
        dec = bt.decompose_doubly_b(iden)
        assert dec.epsilon == 0.5
        assert np.array_equal(dec.part_b.array, 0.5 * iden.array)
        check_doubly_invariants(dec, iden)

    def test_b_tensor_is_accepted(self):
        t43 = make_t43()
        check_doubly_invariants(bt.decompose_doubly_b(t43), t43)

    def test_rejects_non_doubly_b(self):
        bad = matrix([[1.0, -1.1], [-1.1, 1.0]])
        with pytest.raises(bt.ClassViolationError) as err:
            bt.decompose_doubly_b(bad)
        assert err.value.witness["pair"] == [1, 2]

    def test_random_doubly_b_tensors(self):
        rng = np.random.default_rng(9)
        for k in range(40):
            A = random_doubly_b(rng, 2 + k % 3, 2 + (k + 1) % 3)
            check_doubly_invariants(bt.decompose_doubly_b(A), A, bitwise=False)


class TestEpsilonChoice:
    def test_half_epsilon_still_valid(self):
        """Any epsilon in (0, returned] must also give a valid split."""
        rng = np.random.default_rng(10)
        for k in range(20):
            A = random_doubly_b(rng, 2 + k % 3, 2 + k % 2)
            dec = bt.decompose_doubly_b(A)
            eps = dec.epsilon / 2.0
            stats = bt.row_stats(A)
            n, m = A.dim, A.order
            part_c = np.broadcast_to(
                stats.r_plus.reshape((n,) + (1,) * (m - 1)), A.array.shape).copy()
            part_c[diag_index(n, m)] = stats.r_plus + eps
            part_b = bt.Tensor.from_array(A.array - part_c)
            assert bt.is_z(part_b) and bt.is_doubly_b(part_b)
            assert bt.is_doubly_b(bt.Tensor.from_array(part_c))

    def test_diagonal_input_takes_half_the_smallest_diagonal(self):
        """With no off-diagonal mass every deficit ratio is 0, so epsilon is
        half the smallest diagonal."""
        A = bt.Tensor.from_array(np.diag([2.0, 3.0]))
        dec = bt.decompose_doubly_b(A)
        assert dec.epsilon == 1.0  # (1 - 0) / 2 * 2


    def test_b_epsilon_is_half_the_transform_slack(self):
        """Epsilon is min((diag - r_plus) - upper_deficit) / 2 from row_stats(A)."""
        rng = np.random.default_rng(14)
        for k in range(60):
            A = scaled(random_b(rng, 2 + k % 3, 2 + (k + 1) % 3), (-40, 0, 40)[k % 3])
            st_ = bt.row_stats(A)
            slack = (st_.diag - st_.r_plus) - st_.upper_deficit
            assert bt.decompose_b(A).epsilon == float(slack.min()) / 2.0

    def test_doubly_b_margin_is_never_degenerate(self):
        rng = np.random.default_rng(15)
        for k in range(90):
            make = (random_doubly_b, random_sddd_z, random_b)[k % 3]
            A = scaled(make(rng, 2 + k % 3, 2 + (k // 3) % 3), (-40, 0, 40)[(k // 9) % 3])
            assert bt.is_doubly_b(A)
            check_doubly_invariants(bt.decompose_doubly_b(A), A, bitwise=False)

    def test_rounding_level_margins_raise_typed_errors(self):
        """Members whose margin is at rounding level split or raise
        DegenerateMarginError; neither decomposition raises InternalError."""
        rng = np.random.default_rng(16)
        cases = []
        for k in range(150):
            m, n = 2 + k % 3, 2 + (k // 3) % 3
            # row 1 of a B-tensor with row sum W r_plus, rounded
            arr = random_b(rng, m, n).array.copy()
            st_ = bt.row_stats(bt.Tensor.from_array(arr))
            arr[(0,) * m] = st_.width * st_.r_plus[0] - (st_.row_sum[0] - arr[(0,) * m])
            cases.append((bt.decompose_b, bt.is_b, check_b_invariants, arr))
            # the same row one ulp above the tie, which can land on it exactly
            arr = arr.copy()
            arr[(0,) * m] = np.nextafter(arr[(0,) * m], np.inf)
            cases.append((bt.decompose_b, bt.is_b, check_b_invariants, arr))
            # rows 1, 2 of a doubly B-tensor with d_1 d_2 = s_1 s_2, rounded
            arr = random_doubly_b(rng, m, n).array.copy()
            st_ = bt.row_stats(bt.Tensor.from_array(arr))
            d, s = st_.diag - st_.r_plus, st_.upper_deficit
            arr[(0,) * m] = s[0] * s[1] / d[1] + st_.r_plus[0]
            cases.append((bt.decompose_doubly_b, bt.is_doubly_b, check_doubly_invariants, arr))
        members = 0
        for decompose, member, check, arr in cases:
            A = bt.Tensor.from_array(arr)
            if not member(A):
                continue
            members += 1
            try:
                dec = decompose(A)
            except bt.DegenerateMarginError:
                continue
            check(dec, A, bitwise=False)
        assert members >= 50


def wide_b(rng, m, n):
    """B-tensor with entries spread over 10**+-8: each diagonal is set so
    that row sum - W r_plus is the row's largest off-diagonal magnitude."""
    arr = rng.uniform(-1.0, 1.0, (n,) * m) * 10.0 ** rng.uniform(-8.0, 8.0, (n,) * m)
    width = n ** (m - 1)
    rows = arr.reshape(n, width)
    for i in range(n):
        d = i * (width - 1) // (n - 1)
        off = np.delete(rows[i], d)
        rows[i, d] = width * max(0.0, off.max()) - off.sum() + np.abs(off).max()
    return bt.Tensor.from_array(arr)


class TestVerify:
    """The post-construction checks, reached with hand-made parts."""

    A = matrix([[10, 3, -1], [3, 10, -1], [-1, 3, 10]])

    @staticmethod
    def verify(dec, part_b, part_c):
        dec = dataclasses.replace(dec, part_b=bt.Tensor.from_array(part_b),
                                  part_c=bt.Tensor.from_array(part_c))
        decompose._verify(dec, TestVerify.A)

    @pytest.mark.parametrize("split", [bt.decompose_b, bt.decompose_doubly_b])
    def test_entry_moved_beyond_4_ulps_fails(self, split):
        dec = split(self.A)
        part_b = dec.part_b.array.copy()
        part_b[0, 2] += 1e-6
        with pytest.raises(bt.InternalError, match="reproduce the input"):
            self.verify(dec, part_b, dec.part_c.array)

    @pytest.mark.parametrize("split", [bt.decompose_b, bt.decompose_doubly_b])
    def test_entry_nudged_by_one_ulp_verifies(self, split):
        dec = split(self.A)
        part_b = dec.part_b.array.copy()
        assert part_b[0, 2] == -4.0
        part_b[0, 2] = np.nextafter(-4.0, -np.inf)
        # off by one ulp of 4, which is 4 ulps of the entry -1 itself
        assert not np.array_equal(part_b + dec.part_c.array, self.A.array)
        self.verify(dec, part_b, dec.part_c.array)

    @pytest.mark.parametrize("split", [bt.decompose_b, bt.decompose_doubly_b])
    @pytest.mark.parametrize("index, value", [((0, 2), -0.5), ((1, 1), -1.0)])
    def test_negative_remainder_entry_fails(self, split, index, value):
        dec = split(self.A)
        part_b, part_c = dec.part_b.array.copy(), dec.part_c.array.copy()
        part_b[index] += part_c[index] - value
        part_c[index] = value
        assert np.array_equal(part_b + part_c, self.A.array)
        with pytest.raises(bt.InternalError, match="negative entry"):
            self.verify(dec, part_b, part_c)

    @pytest.mark.parametrize("split", [bt.decompose_b, bt.decompose_doubly_b])
    @pytest.mark.parametrize("index, delta", [((0, 2), -0.5), ((1, 1), 0.25)])
    def test_remainder_out_of_shape_fails(self, split, index, delta):
        dec = split(self.A)
        part_b, part_c = dec.part_b.array.copy(), dec.part_c.array.copy()
        part_c[index] += delta
        part_b[index] -= delta
        assert np.array_equal(part_b + part_c, self.A.array)
        with pytest.raises(bt.InternalError, match="row-constant-plus-epsilon"):
            self.verify(dec, part_b, part_c)

    def test_wide_range_splits_verify(self):
        rng = np.random.default_rng(43)
        members = inexact = 0
        for k in range(90):
            A = wide_b(rng, 2 + k % 3, 2 + (k // 3) % 3)
            if not bt.is_b(A):
                continue
            members += 1
            for dec, check in ((bt.decompose_b(A), check_b_invariants),
                               (bt.decompose_doubly_b(A), check_doubly_invariants)):
                check(dec, A, bitwise=False)
                inexact += not np.array_equal(dec.part_b.array + dec.part_c.array, A.array)
        # the splits that do not reconstruct bitwise take the 4-ulp check
        assert members >= 80 and inexact >= 80


def reference_parts(A, constants, eps):
    """B = A - C with C holding the constants off the diagonal and
    constants + eps on it, built the direct way."""
    n, m = A.dim, A.order
    part_c = np.broadcast_to(constants.reshape((n,) + (1,) * (m - 1)), A.array.shape).copy()
    part_c[diag_index(n, m)] = constants + eps
    return A.array - part_c, part_c


def b_epsilon(stats):
    slack = (stats.diag - stats.r_plus) - stats.upper_deficit
    return float(stats.in_units(slack / 2.0).min())


def doubly_b_epsilon(stats):
    """(1 - sqrt(Q)) / 2 * min d, with sqrt(Q) the largest r_i r_j over the
    pairs i != j and r_i = sqrt(s_i / d_i) taken on row i's d and s divided
    by the power of two that puts the larger in [1/2, 1)."""
    d = [float(v) for v in stats.diag - stats.r_plus]
    s = [float(v) for v in stats.upper_deficit]
    r = []
    for d_i, s_i in zip(d, s):
        e = math.frexp(max(d_i, s_i))[1]
        r.append(math.sqrt(math.ldexp(s_i, -e)) / math.sqrt(math.ldexp(d_i, -e)))
    root_q = max((r[i] * r[j] for i in range(len(r)) for j in range(len(r)) if i != j),
                 default=0.0)
    min_d = min(d_i * float(unit) for d_i, unit in zip(d, stats.unit))
    return (1.0 - root_q) / 2.0 * min_d


def split_members(seed):
    """The B and doubly-B members among the ``tests/cases.py`` families at
    a few shapes, each also with all rows near DBL_MAX and with its first
    row alone there, so that row units exceed 1."""
    rng = np.random.default_rng(seed)
    for make in GENERATORS * 2:
        for m, n in [(2, 5), (3, 4), (4, 3), (5, 2), (3, 9)]:
            A = make(rng, m, n)
            top = math.frexp(np.abs(A.array).max())[1] + math.frexp(n ** (m - 1))[1]
            arr = A.array.copy()
            arr[0] = np.ldexp(arr[0], 1000 - top)
            for X in (A, scaled(A, 1000 - top), bt.Tensor.from_array(arr)):
                yield X


class TestBlockedSweeps:
    """Both parts are written and re-verified in blocks of whole rows; the
    block size must change no bit and no error."""

    @pytest.mark.parametrize("block_entries", [1, 50, 1 << 17])
    def test_splits_are_the_reference_construction(self, monkeypatch, block_entries):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        splits = big_units = 0
        for A in split_members(44):
            stats = bt.row_stats(A)
            for split, member, epsilon in ((bt.decompose_b, bt.is_b, b_epsilon),
                                           (bt.decompose_doubly_b, bt.is_doubly_b,
                                            doubly_b_epsilon)):
                if not member(A):
                    continue
                try:
                    dec = split(A)
                except bt.DegenerateMarginError as err:
                    # a lone row near DBL_MAX with r_plus > 0: its constant
                    # absorbs an epsilon set by the other rows' slack
                    assert stats.unit[0] > 1.0 and stats.shift[0] > 0.0
                    assert str(err) == (
                        f"row 1 keeps its constant {float(stats.shift[0])!r} when epsilon "
                        f"{epsilon(stats)!r} is added: one epsilon cannot split rows this "
                        f"far apart in scale")
                    continue
                assert dec.epsilon == epsilon(stats)
                part_b, part_c = reference_parts(A, stats.shift, dec.epsilon)
                assert dec.part_b.array.tobytes() == part_b.tobytes()
                assert dec.part_c.array.tobytes() == part_c.tobytes()
                assert dec.row_constants.tobytes() == stats.shift.tobytes()
                splits += 1
                big_units += bool(np.any(stats.unit > 1.0))
        assert splits >= 200 and big_units >= 120

    def test_doubly_b_epsilon_keeps_every_pair_exactly(self):
        # on the stored floats, in exact arithmetic: d_i > epsilon and
        # (d_i - epsilon)(d_j - epsilon) > s_i s_j for every pair i != j
        members = 0
        for A in split_members(44):
            if not bt.is_doubly_b(A):
                continue
            stats = bt.row_stats(A)
            eps = Fraction(doubly_b_epsilon(stats))
            units = [Fraction(float(u)) for u in stats.unit]
            d = [Fraction(float(v)) * u for v, u in zip(stats.diag - stats.r_plus, units)]
            s = [Fraction(float(v)) * u for v, u in zip(stats.upper_deficit, units)]
            assert eps > 0 and all(d_i > eps for d_i in d)
            for i, j in itertools.permutations(range(len(d)), 2):
                assert (d[i] - eps) * (d[j] - eps) > s[i] * s[j]
            members += 1
        assert members >= 100

    @pytest.mark.parametrize("block_entries", [1, 50, 1 << 17])
    def test_verify_failures_raise_the_same_errors(self, monkeypatch, block_entries):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        checks = TestVerify()
        for split in (bt.decompose_b, bt.decompose_doubly_b):
            checks.test_entry_moved_beyond_4_ulps_fails(split)
            checks.test_entry_nudged_by_one_ulp_verifies(split)
            for index, value in [((0, 2), -0.5), ((1, 1), -1.0)]:
                checks.test_negative_remainder_entry_fails(split, index, value)
            for index, delta in [((0, 2), -0.5), ((1, 1), 0.25)]:
                checks.test_remainder_out_of_shape_fails(split, index, delta)

    @pytest.mark.parametrize("block_entries", [1, 50, 1 << 17])
    def test_a_fault_in_any_row_is_caught(self, monkeypatch, block_entries):
        # order 3, dim 4: blocks of 1, 3 or all 4 rows of 16 entries
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(45)
        A = random_doubly_b(rng, 3, 4)
        splits = [(A, bt.decompose_doubly_b(A))]
        A = random_b(rng, 3, 4)
        splits.append((A, bt.decompose_b(A)))

        def moved(b, c, i):
            b[i, 0, 1] += 1e-3

        def negative(b, c, i):
            b[i, i, i] += c[i, i, i] + 1.0
            c[i, i, i] = -1.0

        def off_shape(b, c, i):
            b[i, i, i] += 2.0 ** -20
            c[i, i, i] -= 2.0 ** -20

        for (A, dec), (fault, message) in itertools.product(
                splits, [(moved, "reproduce the input"), (negative, "negative entry"),
                         (off_shape, "row-constant-plus-epsilon")]):
            for i in range(A.dim):
                part_b, part_c = dec.part_b.array.copy(), dec.part_c.array.copy()
                fault(part_b, part_c, i)
                broken = dataclasses.replace(dec, part_b=bt.Tensor.from_array(part_b),
                                             part_c=bt.Tensor.from_array(part_c))
                with pytest.raises(bt.InternalError, match=message):
                    decompose._verify(broken, A)


    @pytest.mark.parametrize("block_entries", [1, 50, 1 << 17])
    def test_a_part_past_dbl_max_raises_from_any_row(self, monkeypatch, block_entries):
        # the row (1e308, -1.7e308, 1.7e308) is doubly B beside two unit
        # rows, but its entry -1.7e308 minus r_plus 1e308 overflows in B:
        # a typed precondition error, with no RuntimeWarning
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        arr = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e308, -1.7e308, 1.7e308]])
        for shift in range(3):
            A = bt.Tensor.from_array(np.roll(arr, shift, axis=(0, 1)))
            assert bt.is_doubly_b(A)
            with pytest.raises(bt.PreconditionError,
                               match="Z-part of the split exceeds the float range"):
                bt.decompose_doubly_b(A)


class TestTinyRows:
    def test_tiny_row_beside_a_huge_one_splits(self):
        # each row's deficit ratio is taken at its own scale, where the
        # 1e-300 row does not underflow to d = 0 as it would in the 1e307
        # row's unit
        A = bt.Tensor(2, 2, [1e307, 0.0, 0.0, 1e-300])
        for split in (bt.decompose_b, bt.decompose_doubly_b):
            dec = split(A)
            assert dec.epsilon == 5e-301
            decompose._verify(dec, A)
        check_doubly_invariants(dec, A)

    def test_two_tiny_rows_are_doubly_b_and_split(self):
        # the pair products 1e-400 underflowed to a tie, so classify raised
        # "B implies doublyB"; each row's sides are now compared at the row's
        # own scale
        A = bt.Tensor(2, 2, [1e-200, -1e-201, 0.0, 1e-200])
        flags = bt.classify(A).flags
        assert flags["B"] and flags["doublyB"] and flags["SDDD"] and flags["F_doublyB"]
        small = bt.decompose_doubly_b(A)
        assert small.epsilon == math.ldexp(
            bt.decompose_doubly_b(scaled(A, 700)).epsilon, -700)
        check_doubly_invariants(small, A)

    @pytest.mark.parametrize("entries, epsilon", [
        ([1e-300, -1e10, 0.0, 1.0], 5e-301),
        ([1e-300, -1e10, -1e-320, 1.0], 4.99995e-301)])
    def test_a_deficit_ratio_past_dbl_max_splits(self, entries, epsilon):
        # q_1 = 1e310 does not fit a double, but sqrt(q_1) = 1e155 does; Q
        # is 0 beside the second row's zero deficit and about 1e-10 beside
        # its subnormal one
        A = bt.Tensor(2, 2, entries)
        assert bt.is_doubly_b(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = bt.decompose_doubly_b(A)
        assert dec.epsilon == pytest.approx(epsilon, rel=1e-9)
        check_doubly_invariants(dec, A)


class TestConverseDirections:
    def test_z_b_plus_nonnegative_b_is_b(self):
        rng = np.random.default_rng(11)
        for k in range(60):
            m, n = 2 + k % 3, 2 + (k + 1) % 3
            A = random_b(rng, m, n)
            dec = bt.decompose_b(A)
            total = bt.Tensor.from_array(dec.part_b.array + dec.part_c.array)
            assert bt.is_b(total)

    def test_row_constant_addition_keeps_doubly_b(self):
        rng = np.random.default_rng(12)
        for k in range(60):
            m, n = 2 + k % 3, 2 + (k + 1) % 3
            A = random_doubly_b(rng, m, n)
            c = rng.uniform(0.0, 2.0, size=n)
            shifted = A.array + c.reshape((n,) + (1,) * (m - 1))
            assert bt.is_doubly_b(bt.Tensor.from_array(shifted))

    def test_nonnegative_diagonal_addition_keeps_doubly_b(self):
        rng = np.random.default_rng(13)
        for k in range(60):
            m, n = 2 + k % 3, 2 + (k + 1) % 3
            A = random_doubly_b(rng, m, n)
            boosted = A.array.copy()
            boosted[diag_index(n, m)] += rng.uniform(0.0, 3.0, size=n)
            assert bt.is_doubly_b(bt.Tensor.from_array(boosted))


class TestSerialization:
    def test_json_shape(self):
        blob = bt.decompose_doubly_b(make_t42()).to_json_dict()
        assert set(blob) == {"kind", "epsilon", "row_constants", "B", "C"}
        assert blob["kind"] == "doublyB"
        assert blob["row_constants"] == [0.0, 0.0]
        assert bt.Tensor.from_json_dict(blob["B"]).dim == 2

    def test_b_kind_reports_its_row_constants(self):
        # each row's r_plus, as in the doubly-B report
        blob = bt.decompose_b(make_t43()).to_json_dict()
        assert blob["row_constants"] == [64.0, 16.0, 12.0]
