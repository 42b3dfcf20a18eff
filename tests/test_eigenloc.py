"""Localization intervals, hypergraph Laplacians, and definiteness verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btensor as bt
from cases import (
    make_t42,
    make_t43,
    make_z32,
    random_hypergraph,
    random_symmetric,
    random_symmetric_b,
    random_tensor,
    random_sdd_z,
    random_sddd_z,
    random_z,
)


def parts(union):
    return [(p.lo, p.hi) for p in union.parts]


class TestIntervalUnion:
    def test_merges_overlaps_and_touching(self):
        union = bt.IntervalUnion.from_intervals(
            [bt.Interval(1.0, 3.0), bt.Interval(-1.0, 5.0), bt.Interval(5.0, 6.0)])
        assert parts(union) == [(-1.0, 6.0)]

    def test_keeps_disjoint_parts_sorted(self):
        union = bt.IntervalUnion.from_intervals(
            [bt.Interval(4.0, 5.0), bt.Interval(0.0, 1.0)])
        assert parts(union) == [(0.0, 1.0), (4.0, 5.0)]
        assert union.contains(0.5) and not union.contains(2.0)
        assert union.contains(5.0 + 1e-10, slack=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0, 10)), min_size=1,
                    max_size=8))
    def test_merge_idempotent_and_order_independent(self, raw):
        items = [bt.Interval(lo, lo + width) for lo, width in raw]
        merged = bt.IntervalUnion.from_intervals(items)
        again = bt.IntervalUnion.from_intervals(merged.parts)
        assert parts(again) == parts(merged)
        reversed_merge = bt.IntervalUnion.from_intervals(items[::-1])
        assert parts(reversed_merge) == parts(merged)
        for p, q in zip(merged.parts, merged.parts[1:]):
            assert p.hi < q.lo


class TestIntervalsZ:
    def test_cross_coupled_example(self):
        assert parts(bt.intervals_z(make_z32())) == [(1.0, 3.0)]

    def test_identity(self):
        assert parts(bt.intervals_z(bt.Tensor.identity(4, 3))) == [(1.0, 1.0)]

    def test_single_edge_laplacian(self):
        L = bt.laplacian_tensor(bt.Hypergraph(3, 3, [(1, 2, 3)]))
        assert parts(bt.intervals_z(L)) == [(0.0, 2.0)]

    def test_rejects_non_z(self):
        with pytest.raises(bt.ClassViolationError):
            bt.intervals_z(bt.Tensor.ones(3, 2))

    def test_contains_known_eigenvalue(self):
        # the cross-coupled example has the lone H-eigenvalue 1
        union = bt.intervals_z(make_z32())
        assert union.contains(1.0)

    def test_is_the_gerschgorin_union(self):
        rng = np.random.default_rng(17)
        for k in range(120):
            make = (random_z, random_sdd_z, random_sddd_z)[k % 3]
            arr = make(rng, 2 + k % 4, 2 + (k // 4) % 4).array.copy()
            if k % 2:
                # a diagonal far above its row must not absorb the other entries
                arr[tuple([np.arange(arr.shape[0])] * arr.ndim)] *= 10.0 ** rng.uniform(6, 17)
            A = bt.Tensor.from_array(arr)
            assert parts(bt.intervals_z(A)) == parts(bt.intervals_gerschgorin(A))


class TestIntervalsEvenSymmetric:
    def test_all_ones_golden(self):
        assert parts(bt.intervals_even_symmetric(bt.Tensor.ones(4, 3))) == [(0.0, 27.0)]

    def test_identity_golden(self):
        assert parts(bt.intervals_even_symmetric(bt.Tensor.identity(4, 2))) == [(1.0, 1.0)]

    def test_counterexample_is_symmetric_and_enclosed(self):
        # full permutation check shows the doubly-B counter-example is
        # symmetric; its H-spectrum is {2 - 3**0.75, 2, 2 + 3**0.75}
        union = bt.intervals_even_symmetric(make_t42())
        assert parts(union) == [(-1.0, 9.0)]
        for lam in (2.0 - 3.0**0.75, 2.0, 2.0 + 3.0**0.75):
            assert union.contains(lam)

    def test_rejects_odd_order(self):
        with pytest.raises(bt.PreconditionError):
            bt.intervals_even_symmetric(bt.Tensor.ones(3, 3))

    def test_rejects_asymmetric(self):
        with pytest.raises(bt.PreconditionError):
            bt.intervals_even_symmetric(make_t43())


class TestIntervalsOddOrN2:
    def test_all_ones_n2_golden(self):
        union = bt.intervals_odd_or_n2(bt.Tensor.ones(4, 2))
        assert parts(union) == [(0.0, 8.0)]
        assert union.contains(0.0) and union.contains(8.0)

    def test_identity_golden(self):
        assert parts(bt.intervals_odd_or_n2(bt.Tensor.identity(3, 3))) == [(1.0, 1.0)]

    def test_cross_coupled_rows(self):
        # each row yields [1, 5]: the lower deficit removes 1, the upper
        # excess adds |row minimum| across the three off-diagonal slots
        union = bt.intervals_odd_or_n2(make_z32())
        assert parts(union) == [(1.0, 5.0)]
        assert union.contains(1.0)

    def test_rejects_even_order_above_dim_2(self):
        with pytest.raises(bt.PreconditionError):
            bt.intervals_odd_or_n2(bt.Tensor.ones(4, 3))

    def test_refines_even_symmetric_when_both_apply(self):
        rng = np.random.default_rng(21)
        for k in range(60):
            A = random_symmetric(rng, 2 * (1 + k % 2), 2)
            narrow = bt.intervals_odd_or_n2(A)
            wide = bt.intervals_even_symmetric(A).parts[0]
            for part in narrow.parts:
                assert wide.lo <= part.lo and part.hi <= wide.hi

    def test_shift_covariance(self):
        rng = np.random.default_rng(22)
        for k in range(40):
            m = (3, 5, 4)[k % 3]
            n = 2 if m % 2 == 0 else 3
            A = random_tensor(rng, m, n)
            c = float(rng.uniform(-2.0, 2.0))
            shifted_arr = A.array.copy()
            shifted_arr[tuple([np.arange(n)] * m)] += c
            shifted = bt.intervals_odd_or_n2(bt.Tensor.from_array(shifted_arr))
            base = bt.intervals_odd_or_n2(A)
            got = sorted(v for p in shifted.parts for v in (p.lo, p.hi))
            want = sorted(v + c for p in base.parts for v in (p.lo, p.hi))
            # merging can differ when translated endpoints collide; compare hulls
            assert shifted.hull().lo == pytest.approx(base.hull().lo + c, abs=1e-9)
            assert shifted.hull().hi == pytest.approx(base.hull().hi + c, abs=1e-9)
            if len(shifted.parts) == len(base.parts):
                assert np.allclose(got, want, atol=1e-9)


class TestGerschgorin:
    def test_all_ones_golden(self):
        assert parts(bt.intervals_gerschgorin(bt.Tensor.ones(4, 3))) == [(-25.0, 27.0)]

    def test_identity(self):
        assert parts(bt.intervals_gerschgorin(bt.Tensor.identity(3, 3))) == [(1.0, 1.0)]

    def test_counterexample_merges(self):
        assert parts(bt.intervals_gerschgorin(make_t42())) == [(-1.0, 5.0)]


class TestLaplacian:
    @pytest.mark.parametrize("n, m, message", [
        (0, 2, "vertex count must be positive, got 0"),
        (3, 1, "edge cardinality must be at least 2, got 1"),
    ], ids=["no-vertices", "one-vertex-edges"])
    def test_hypergraph_header_is_checked(self, n, m, message):
        with pytest.raises(bt.InputError, match=f"^{message}$"):
            bt.Hypergraph(n, m, [])

    def test_single_edge(self):
        G = bt.Hypergraph(3, 3, [(1, 2, 3)])
        L = bt.laplacian_tensor(G)
        assert L.entry(1, 1, 1) == 1.0
        assert L.entry(1, 2, 3) == -0.5 and L.entry(1, 3, 2) == -0.5
        assert L.entry(1, 2, 2) == 0.0
        stats = bt.row_stats(L)
        assert np.array_equal(stats.row_sum, np.zeros(3))
        assert bt.is_z(L) and bt.is_symmetric(L)

    def test_empty_edge_set_is_zero_tensor(self):
        G = bt.Hypergraph(4, 3, [])
        assert np.all(bt.laplacian_tensor(G).array == 0.0)
        assert bt.laplacian_bounds(G).to_json_dict() == {"lo": 0.0, "hi": 0.0}

    def test_two_disjoint_edges(self):
        G = bt.Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)])
        L = bt.laplacian_tensor(G)
        stats = bt.row_stats(L)
        assert np.array_equal(stats.diag, np.ones(6))
        assert np.array_equal(stats.row_sum, np.zeros(6))
        # vertices of different edges never interact
        assert L.entry(1, 4, 5) == 0.0
        assert L.entry(4, 5, 6) == -0.5

    def test_bounds_golden(self):
        single = bt.Hypergraph(3, 3, [(1, 2, 3)])
        assert bt.laplacian_bounds(single).to_json_dict() == {"lo": 0.0, "hi": 2.0}
        from itertools import combinations
        complete = bt.Hypergraph(4, 3, list(combinations(range(1, 5), 3)))
        assert bt.laplacian_bounds(complete).to_json_dict() == {"lo": 0.0, "hi": 6.0}

    def test_bounds_equal_hull_of_z_intervals(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            G = random_hypergraph(rng, 5, 3)
            if not G.edges:
                continue
            hull = bt.intervals_z(bt.laplacian_tensor(G)).hull()
            bound = bt.laplacian_bounds(G)
            assert hull.lo == bound.lo and hull.hi == bound.hi

    def test_laplacian_invariants_random(self):
        rng = np.random.default_rng(24)
        for k in range(25):
            m = 2 + k % 2  # factorial weights stay exact for m <= 3
            G = random_hypergraph(rng, 5, m)
            L = bt.laplacian_tensor(G)
            assert bt.is_z(L)
            assert bt.is_symmetric(L)
            assert np.array_equal(bt.row_stats(L).row_sum, np.zeros(5))

    def test_validation(self):
        with pytest.raises(bt.InputError):
            bt.Hypergraph(3, 3, [(1, 2)])
        with pytest.raises(bt.InputError):
            bt.Hypergraph(3, 3, [(1, 2, 4)])
        with pytest.raises(bt.InputError):
            bt.Hypergraph(3, 3, [(1, 2, 2)])
        with pytest.raises(bt.InputError):
            bt.Hypergraph(3, 3, [(1, 2, 3), (3, 2, 1)])

    def test_validation_rejects_non_integers(self):
        # JSON true is not the integer 1, and 1.0 is not an integer at all
        with pytest.raises(bt.InputError):
            bt.Hypergraph(True, 2, [])
        with pytest.raises(bt.InputError):
            bt.Hypergraph(3, 2, [(True, 2)])
        with pytest.raises(bt.InputError, match="integer"):
            bt.Hypergraph(3, 2, [(1.0, 2)])

    def test_entry_cap_is_the_tensor_header_check(self, monkeypatch):
        # n**m is refused before it is computed, as for a tensor header
        with pytest.raises(bt.InputError, match="dim 10 and order 3000000 needs more entries "
                           "than the cap of 100000000"):
            bt.laplacian_tensor(bt.Hypergraph(10, 3_000_000, []))
        with pytest.raises(bt.InputError, match="needs 1000000000 entries, above the cap"):
            bt.laplacian_tensor(bt.Hypergraph(10, 9, []))
        monkeypatch.setattr(bt.core, "DEFAULT_ENTRY_CAP", 999)
        with pytest.raises(bt.InputError, match="needs 1000 entries, above the cap of 999"):
            bt.laplacian_tensor(bt.Hypergraph(10, 3, []))

    def test_json_round_trip(self):
        G = bt.Hypergraph(4, 3, [(1, 2, 4)])
        again = bt.Hypergraph.from_json_dict(G.to_json_dict())
        assert again.edges == G.edges and again.n == 4 and again.m == 3


class TestDefiniteness:
    def test_identity_is_definite_by_class(self):
        verdict = bt.definiteness(bt.Tensor.identity(4, 3))
        assert verdict.verdict == "positive_definite"
        assert verdict.method == "B_test"
        assert verdict.bound is None

    def test_all_ones_is_semidefinite(self):
        verdict = bt.definiteness(bt.Tensor.ones(4, 3))
        assert verdict.verdict == "positive_semidefinite"
        assert verdict.method == "interval_lower_bound"
        assert verdict.bound == 0.0

    def test_counterexample_indefinite_possible(self):
        # not PSD: the quartic form is negative at (0.9, 1)
        verdict = bt.definiteness(make_t42())
        assert verdict.verdict == "indefinite_possible"
        assert verdict.bound == -1.0

    def test_rejects_odd_or_asymmetric(self):
        with pytest.raises(bt.PreconditionError):
            bt.definiteness(bt.Tensor.ones(3, 3))
        with pytest.raises(bt.PreconditionError):
            bt.definiteness(make_t43())

    def test_symmetric_b_generator_never_indefinite(self):
        rng = np.random.default_rng(25)
        for k in range(40):
            A = random_symmetric_b(rng, 2 * (1 + k % 2), 2 + k % 3)
            assert bt.is_b(A) and bt.is_symmetric(A)
            assert bt.definiteness(A).verdict == "positive_definite"

    def test_b_tie_is_semidefinite_not_b_test(self):
        # symmetric, entry set by the count of index 2; row 1 sums to
        # 6 + 3 * 0.25 - 3 * 0.5 + 0.75 = 6 = 8 * r_plus exactly
        arr = np.empty((2, 2, 2, 2))
        for idx in np.ndindex(arr.shape):
            arr[idx] = (6.0, 0.25, -0.5, 0.75, 8.0)[sum(idx)]
        A = bt.Tensor.from_array(arr)
        assert not bt.is_b(A) and bt.is_b0(A)
        verdict = bt.definiteness(A)
        assert (verdict.verdict, verdict.method, verdict.bound) == (
            "positive_semidefinite", "interval_lower_bound", 0.0)

    def test_b_test_agrees_with_row_endpoints(self):
        rng = np.random.default_rng(29)
        seen = set()
        for k in range(120):
            m, n = (2, 4)[k % 2], 2 + k % 3
            width = n ** (m - 1)
            arr = random_symmetric(rng, m, n).array.copy()
            arr[tuple([np.arange(n)] * m)] += rng.uniform(0.0, 2.0 * width)
            A = bt.Tensor.from_array(arr)
            verdict = bt.definiteness(A)
            assert bt.is_b(A) == (verdict.method == "B_test")
            seen.add(verdict.method)

            # the hull [min L, max U] from the defining sums over each row
            rows = arr.reshape(n, width)
            lows, highs, ulps = [], [], []
            for i in range(n):
                d = i * (width - 1) // (n - 1)
                off = np.delete(rows[i], d)
                r_plus, r_minus = max(0.0, off.max()), min(0.0, off.min())
                lows.append(rows[i, d] - r_plus - math.fsum(r_plus - off))
                highs.append(rows[i, d] - r_minus + math.fsum(off - r_minus))
                ulps.append(np.spacing(width * np.abs(rows[i]).max()))
            hull = bt.intervals_even_symmetric(A).parts[0]
            assert abs(hull.lo - min(lows)) <= 4 * max(ulps)
            assert abs(hull.hi - max(highs)) <= 4 * max(ulps)
            if verdict.method != "B_test":
                assert verdict.bound == hull.lo
        assert seen == {"B_test", "interval_lower_bound"}


class TestSoundnessSpotChecks:
    def test_z_intervals_contain_search_results(self):
        rng = np.random.default_rng(26)
        for _ in range(15):
            A = random_z(rng, 3, 3)
            union = bt.intervals_z(A)
            for pair in bt.eigen_search(A, restarts=24, seed=0):
                assert union.contains(pair.lam, slack=1e-9)

    def test_even_symmetric_interval_contains_search_results(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            A = random_symmetric(rng, 4, 3)
            union = bt.intervals_even_symmetric(A)
            for pair in bt.eigen_search(A, restarts=24, seed=0):
                assert union.contains(pair.lam, slack=1e-9)

    def test_n2_union_contains_full_spectrum(self):
        rng = np.random.default_rng(28)
        for k in range(30):
            A = random_tensor(rng, 2 + k % 3, 2)
            union = bt.intervals_odd_or_n2(A)
            for pair in bt.eigenpairs_n2(A):
                assert union.contains(pair.lam, slack=1e-9)
