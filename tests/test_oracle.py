"""Residual verification, exhaustive dim-2 eigenpairs, and the heuristic search."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import btensor as bt
from btensor import core, oracle
from cases import (make_cancelling_rows, make_t42, make_t43, make_z32, random_b,
                   random_hypergraph, random_mixed_diag, random_symmetric, random_tensor,
                   random_z)


def lam_set(pairs, digits=9):
    return sorted(set(round(p.lam, digits) for p in pairs))


class TestResidual:
    def test_all_ones_known_pairs(self):
        ones43 = bt.Tensor.ones(4, 3)
        assert bt.residual(ones43, 27.0, [1.0, 1.0, 1.0]) == 0.0
        assert bt.residual(ones43, 0.0, [1.0, -1.0, 0.0]) == 0.0

    def test_wrong_eigenvalue_has_unit_defect(self):
        assert bt.residual(bt.Tensor.identity(4, 2), 2.0, [1.0, 0.0]) == 1.0

    def test_scaling_invariance(self):
        ones43 = bt.Tensor.ones(4, 3)
        assert bt.residual(ones43, 27.0, [5.0, 5.0, 5.0]) == 0.0

    def test_t43_kernel_vector(self):
        assert bt.residual(make_t43(), 0.0, [-4.0, 2.0, 3.0]) <= 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(bt.InputError):
            bt.residual(bt.Tensor.ones(3, 2), 1.0, [0.0, 0.0])


class TestEigenpairsN2:
    def test_all_ones_golden(self):
        # t = 1 and t = -1 are exact probe roots here; their bisection twins
        # are off in the last bits, so this also pins that the probes win
        pairs = bt.eigenpairs_n2(bt.Tensor.ones(4, 2))
        assert [(p.lam, p.x.tolist()) for p in pairs] == [
            (0.0, [1.0, -1.0]), (8.0, [1.0, 1.0])]
        assert all(p.residual <= 1e-10 for p in pairs)

    def test_cross_coupled_golden(self):
        pairs = bt.eigenpairs_n2(make_z32())
        assert [(p.lam, p.x.tolist()) for p in pairs] == [
            (1.0, [1.0, -1.0]), (1.0, [1.0, 1.0])]

    def test_identity_continuum_representatives(self):
        # every direction is an eigenvector of the identity; the chart
        # polynomial vanishes identically and representatives come back
        pairs = bt.eigenpairs_n2(bt.Tensor.identity(4, 2))
        assert [(p.lam, p.x.tolist()) for p in pairs] == [
            (1.0, [0.0, 1.0]), (1.0, [1.0, -1.0]),
            (1.0, [1.0, 0.0]), (1.0, [1.0, 1.0])]

    def test_counterexample_spectrum_matches_closed_form(self):
        # eliminating the eigenvalue from the two cubics leaves
        # t**2 * (t**4 - 3); the H-spectrum is {2 - 3**0.75, 2, 2 + 3**0.75}
        pairs = bt.eigenpairs_n2(make_t42())
        expected = sorted([2.0 - 3.0**0.75, 2.0, 2.0 + 3.0**0.75])
        assert len(pairs) == 3
        for pair, want in zip(pairs, expected):
            assert pair.lam == pytest.approx(want, abs=1e-9)

    def test_second_chart_requires_zero_corner(self):
        # matrix with a12 = 0 has eigenpair (a22, (0, 1))
        A = bt.Tensor.from_array(np.array([[3.0, 0.0], [1.0, 5.0]]))
        pairs = bt.eigenpairs_n2(A)
        assert (5.0, [0.0, 1.0]) in [(p.lam, p.x.tolist()) for p in pairs]

    def test_matrix_case_agrees_with_numpy(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            arr = rng.uniform(-2.0, 2.0, size=(2, 2))
            pairs = bt.eigenpairs_n2(bt.Tensor.from_array(arr))
            eig = np.linalg.eigvals(arr)
            real = sorted(v.real for v in eig if abs(v.imag) < 1e-12)
            got = sorted(p.lam for p in pairs)
            assert len(got) == len(real)
            assert np.allclose(got, real, atol=1e-7)

    def test_rejects_wider_tensors(self):
        with pytest.raises(bt.PreconditionError):
            bt.eigenpairs_n2(bt.Tensor.ones(3, 3))

    @pytest.mark.parametrize("dense", [[1e308, 1e308, 1e308, 1e308],
                                       [1e308, 1e308, -1e308, 1e308]])
    def test_overflowing_bound_is_a_precondition_error(self, dense):
        # 2e308 is an eigenvalue of the first; the bound 1 + max|row sum| on
        # every eigenvalue exceeds DBL_MAX in both, as it does for the search
        A = bt.Tensor(2, 2, dense)
        for solve in (bt.eigenpairs_n2, bt.eigen_search):
            with pytest.raises(bt.PreconditionError) as info:
                solve(A)
            assert str(info.value) == ("the eigenvalue bound, 1 plus the largest absolute "
                                       "row sum, exceeds the float range")

    @pytest.mark.parametrize("dense, lams", [
        ([1e307, -1e306, -1e306, 1e307], [9e306, 1.1e307]),
        ([1e200, -1e199, -1e199, 1e200], [9e199, 1.1e200]),
        ([1e155, -1e154, -1e154, 1e155], [9e154, 1.1e155]),
    ])
    def test_finite_bound_near_overflow_keeps_every_pair(self, dense, lams):
        # the suite turns RuntimeWarnings into errors
        pairs = bt.eigenpairs_n2(bt.Tensor(2, 2, dense))
        assert [p.lam for p in pairs] == lams
        assert [p.x.tolist() for p in pairs] == [[1.0, 1.0], [1.0, -1.0]]

    def test_chart_polynomial_does_not_overflow_where_rows_meet(self):
        # a22 - a11 is -3.4e308 as floats; A / 2**k keeps every coefficient
        # finite, and both eigenvalues come back multiplied by 2**k exactly
        # (the suite turns RuntimeWarnings into errors)
        pairs = bt.eigenpairs_n2(bt.Tensor(2, 2, [1.7e308, 0.0, 0.0, -1.7e308]))
        assert [(p.lam, p.x.tolist(), p.residual) for p in pairs] == [
            (-1.7e308, [0.0, 1.0], 0.0), (1.7e308, [1.0, 0.0], 0.0)]

    def test_pairs_reverify_through_residual(self):
        rng = np.random.default_rng(32)
        for k in range(40):
            A = random_tensor(rng, 2 + k % 3, 2)
            for p in bt.eigenpairs_n2(A, tol=1e-8):
                assert bt.residual(A, p.lam, p.x) <= 1e-8
                assert np.max(np.abs(p.x)) == 1.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(33)
        for k in range(40):
            A = random_tensor(rng, 2 + k % 3, 2)
            scaled = bt.Tensor.from_array(3.0 * A.array)
            base = bt.eigenpairs_n2(A)
            got = bt.eigenpairs_n2(scaled)
            assert len(base) == len(got)
            for p, q in zip(base, got):
                assert q.lam == pytest.approx(3.0 * p.lam, abs=1e-9)
                assert np.allclose(q.x, p.x, atol=1e-9)

    def test_eigenvalues_scale_with_powers_of_two_down_to_tiny_tensors(self):
        # a sign change is told by the signs of the two values, not by their
        # product, which underflows to 0 on tensors near 1e-170
        base = np.array([2.0, -1.0, -1.0, 0.0, -1.0, 0.0, 0.0, 2.0])
        want = bt.eigenpairs_n2(bt.Tensor(3, 2, base))
        assert len(want) == 2
        for j in range(0, 1000, 37):
            got = bt.eigenpairs_n2(bt.Tensor(3, 2, np.ldexp(base, -j)))
            assert [p.lam for p in got] == [math.ldexp(p.lam, -j) for p in want], j
            assert all(np.array_equal(p.x, q.x) for p, q in zip(got, want)), j

    def test_chart_derivatives_near_dbl_max_stay_finite(self):
        # the chart polynomial of this tensor is TestUnivariateHelpers'
        # OVERFLOWING: its first derivative overflows, and at 2**-6 and
        # 2**-10 a later one does, unless the polynomial is scaled first
        c, m = TestUnivariateHelpers.OVERFLOWING, 6
        rows = np.zeros((2, 2 ** (m - 1)))
        for k in range(m):
            rows[1, 2 ** k - 1] = c[k]
        for k in range(1, m - 1):
            rows[0, 2 ** k - 1] = -c[k + m - 1]
        A = bt.Tensor(m, 2, rows.reshape(-1))
        want = bt.eigenpairs_n2(A, tol=math.ldexp(1e-6, 1000))
        assert len(want) == 6
        for j in (6, 10, 1000):
            got = bt.eigenpairs_n2(bt.Tensor(m, 2, np.ldexp(A.array, -j)),
                                   tol=math.ldexp(1e-6, 1000 - j))
            assert [p.lam for p in got] == [math.ldexp(p.lam, -j) for p in want], j
            assert all(np.array_equal(p.x, q.x) for p, q in zip(got, want)), j

    def test_a_chart_value_past_dbl_max_is_no_pair(self):
        # at 2**1019 the chart root near 1e9 evaluates to an eigenvalue past
        # DBL_MAX, where math.ldexp would raise OverflowError; it is inf,
        # and fails the residual check as it does unscaled
        a = np.array([-1.0, 3.0, -3.0, -3.0, 3.0, 3.0, -1.0, 1e-09,
                      -1.0, -3.0, 3.0, 1.0, 1.0, -2.0, 0.0, -2.0])
        want = bt.eigenpairs_n2(bt.Tensor(4, 2, a))
        got = bt.eigenpairs_n2(bt.Tensor(4, 2, np.ldexp(a, 1019)), tol=math.ldexp(1e-8, 1019))
        assert [p.lam for p in got] == [math.ldexp(p.lam, 1019) for p in want]
        assert all(np.array_equal(p.x, q.x) for p, q in zip(got, want))

    def test_a_nan_value_brackets_no_root(self, monkeypatch):
        # t**2 - 1 on the points -2, 0, 2; an overflowed NaN at -2 has no
        # sign, so only the bracket [0, 2] is searched
        evaluate = oracle._eval
        monkeypatch.setattr(oracle, "_eval",
                            lambda c, t: math.nan if t == -2.0 else evaluate(c, t))
        assert oracle._isolated_roots([-1.0, 0.0, 1.0]) == [1.0]

    def test_horner_values_past_dbl_max_raise_no_warning(self):
        # at 2**990 the chart polynomial's values at the Cauchy bound pass
        # DBL_MAX; as Python floats they become inf without a warning (the
        # suite turns RuntimeWarnings into errors), and at the absolute
        # default tol no residual of this scale passes
        A = random_z(np.random.default_rng(0), 5, 2)
        assert bt.eigenpairs_n2(bt.Tensor.from_array(np.ldexp(A.array, 990))) == []

    def test_a_root_far_out_in_the_chart_keeps_its_pair(self):
        # the chart root t ~ 1e9 gives x ~ (1e-9, 1); the first row's value
        # at t carries the error of t**3 ~ 1e27 and failed the check, while
        # the second row's p2(t) / t**3, taken at 1/t, is accurate
        A = bt.Tensor(4, 2, [-1, 3, -3, -3, 3, 3, -1, 1e-9, -1, -3, 3, 1, 1, -2, 0, -2])
        pairs = bt.eigenpairs_n2(A)
        assert len(pairs) == 2
        far = pairs[1]
        assert abs(far.lam + 2.000000001) <= 1e-15 and far.x[1] == 1.0
        assert abs(far.x[0] - 1e-9) <= 1e-17 and far.residual <= 1e-20


def _float_bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _coefficients(rng, size):
    """Random coefficients with exact zeros (trailing ones too), small
    integers, negative leading terms and scalings of 2**+-1000."""
    c = rng.uniform(-1.0, 1.0, size)
    if rng.uniform() < 0.3:
        c = np.round(4.0 * c)
    c[rng.uniform(size=size) < 0.2] = 0.0
    if rng.uniform() < 0.2:
        c[-rng.integers(1, size + 1):] = 0.0
    if rng.uniform() < 0.3:
        c[-1] = -abs(c[-1]) - 0.5
    return np.ldexp(c, int(rng.choice([0, 0, 1000, -1000]))).tolist()


class TestUnivariateHelpers:
    """The root isolation runs on Python floats in numpy's operation order,
    so on the inputs its callers pass its quotients and values are numpy's,
    byte for byte, and its remainders are numpy's after ``_strip``."""

    def test_polydiv_is_bitwise_numpys(self):
        # the callers divide _strip'ped lists, the dividend no shorter
        rng = np.random.default_rng(35)
        for case in range(400):
            c1 = c2 = []
            while not c1:
                c1 = oracle._strip(_coefficients(rng, int(rng.integers(1, 14))))
            # degree-0, equal-degree and lower-degree divisors
            size = [1, len(c1), int(rng.integers(1, len(c1) + 1))][case % 3]
            while not c2:
                c2 = oracle._strip(_coefficients(rng, size))
            with np.errstate(all="ignore"):
                want_q, want_r = npoly.polydiv(c1, c2)
            dividend = list(c1)
            got_q, got_r = oracle._polydiv(c1, c2)
            assert c1 == dividend
            assert _float_bytes(got_q) == want_q.tobytes(), (c1, c2)
            assert (_float_bytes(oracle._strip(got_r))
                    == _float_bytes(oracle._strip(want_r.tolist()))), (c1, c2)

    def test_eval_is_bitwise_polyval(self):
        rng = np.random.default_rng(36)
        for _ in range(400):
            c = _coefficients(rng, int(rng.integers(1, 14)))
            for t in (0.0, -1.0, rng.uniform(-2.0, 2.0),
                      math.ldexp(rng.uniform(-1.0, 1.0), int(rng.integers(-600, 600)))):
                with np.errstate(all="ignore"):
                    want = npoly.polyval(t, c)
                assert _float_bytes(oracle._eval(c, t)) == _float_bytes(want), (c, t)

    def test_real_roots_keeps_one_root_per_cluster(self):
        # polishing brings two bracketed roots of this polynomial within
        # 1e-12 of each other near 1/3; one of them stands for both
        c = [0.004186707299833447, 0.012560121899500355, -0.0753607313970021,
             -0.22608219419100628, 0.3391232912865096, 1.0173698738595285]
        sf = oracle._square_free(c)
        raw = sorted(oracle._polish(sf, oracle._deriv(sf), t) for t in oracle._isolated_roots(sf))
        roots = oracle._real_roots(c)

        def close(s, t):
            return abs(s - t) <= 1e-12 * max(1.0, abs(s))

        assert len(raw) == 3 and len(roots) == 2
        assert all(any(close(t, u) for u in roots) for t in raw)
        assert not close(roots[1], roots[0])

    #: a polynomial whose derivative overflows
    OVERFLOWING = [3.0824642230149443e+304, -1.3871089003567248e+305, -4.6236963345224175e+305,
                   2.7433931584833003e+306, 4.6236963345224276e+305, -1.553561968399532e+307,
                   1.4148510783638593e+307, 1.747757214449474e+307, -2.996155224770527e+307,
                   1.1235582092889474e+307]

    def test_gcd_ends_on_non_finite_coefficients(self):
        # the gcd's remainders of c and its overflowing derivative hold NaN
        # and never vanish; run in a subprocess so that a hang fails this
        # test instead of stalling the suite
        c = self.OVERFLOWING
        probe = ("import json; from btensor import oracle; "
                 f"print(json.dumps(oracle._real_roots({c!r})))")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                timeout=30, check=True)
        roots = json.loads(result.stdout)
        assert roots and all(math.isfinite(t) for t in roots)
        assert oracle._gcd(c, oracle._deriv(c)) == [1.0]

    def test_import_loads_no_numpy_polynomial(self):
        probe = "import sys, btensor.cli; print('numpy.polynomial' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True, check=True)
        assert result.stdout == "False\n"


class TestEigenSearch:
    def test_all_ones_finds_extremes(self):
        found = bt.eigen_search(bt.Tensor.ones(4, 3), restarts=64, seed=0)
        lams = lam_set(found, digits=6)
        assert 0.0 in lams and 27.0 in lams
        assert all(p.residual <= 1e-8 for p in found)

    def test_identity_finds_only_one(self):
        found = bt.eigen_search(bt.Tensor.identity(4, 3), restarts=64, seed=0)
        assert lam_set(found, digits=6) == [1.0]

    def test_single_edge_laplacian(self):
        # brute-force elimination gives the H-spectrum {0, 1}: the all-ones
        # vector carries 0 and each standard basis vector carries 1
        L = bt.laplacian_tensor(bt.Hypergraph(3, 3, [(1, 2, 3)]))
        found = bt.eigen_search(L, restarts=64, seed=0)
        bounds = bt.laplacian_bounds(bt.Hypergraph(3, 3, [(1, 2, 3)]))
        assert found
        for p in found:
            assert bounds.contains(p.lam, slack=1e-9)
            assert min(abs(p.lam - 0.0), abs(p.lam - 1.0)) <= 1e-6

    def test_determinism_byte_for_byte(self):
        A = bt.Tensor.ones(4, 3)
        first = bt.eigen_search(A, restarts=16, seed=7)
        second = bt.eigen_search(A, restarts=16, seed=7)
        blob1 = json.dumps([p.to_json_dict() for p in first])
        blob2 = json.dumps([p.to_json_dict() for p in second])
        assert blob1 == blob2

    def test_agrees_with_exhaustive_on_dim2(self):
        rng = np.random.default_rng(34)
        for k in range(25):
            A = random_tensor(rng, 2 + k % 3, 2)
            full = bt.eigenpairs_n2(A, tol=1e-8)
            for p in bt.eigen_search(A, restarts=16, seed=0):
                assert any(abs(p.lam - q.lam) <= 1e-7 for q in full)

    def test_empty_result_is_legal(self):
        # rotation-like matrix with no real eigenvalues
        A = bt.Tensor.from_array(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert bt.eigen_search(A, restarts=8, seed=0) == []

    def test_restart_validation(self):
        with pytest.raises(bt.InputError):
            bt.eigen_search(bt.Tensor.ones(3, 2), restarts=0)

    @pytest.mark.parametrize("restarts", [10**12, 8_333_334])
    def test_restarts_past_the_batch_cap_are_refused_before_allocating(self, monkeypatch,
                                                                       restarts):
        # at order 3, dim 3 the batch holds C(4, 2) = 6 monomials of each of
        # 2 * restarts starts: 8,333,333 restarts fill 10**8 entries
        def no_starts(seed):
            raise AssertionError("the start batch was allocated")

        monkeypatch.setattr(np.random, "default_rng", no_starts)
        with pytest.raises(bt.InputError, match="at most 8333333 .* 100000000 entries"):
            bt.eigen_search(bt.Tensor.ones(3, 3), restarts=restarts)

    def test_restarts_at_the_batch_cap_pass_the_check(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(seed):
            raise Reached

        monkeypatch.setattr(np.random, "default_rng", reached)
        with pytest.raises(Reached):
            bt.eigen_search(bt.Tensor.ones(3, 3), restarts=8_333_333)

    @pytest.mark.parametrize("kwargs", [{"restarts": True}, {"seed": -1}, {"seed": 1.5},
                                        {"seed": False}])
    def test_integer_argument_validation(self, kwargs):
        with pytest.raises(bt.InputError):
            bt.eigen_search(bt.Tensor.ones(3, 3), **kwargs)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), True, "1e-8"])
    @pytest.mark.parametrize("solver, dim", [(bt.eigen_search, 3), (bt.eigenpairs_n2, 2)],
                             ids=["search", "n2"])
    def test_tol_validation(self, solver, dim, tol):
        with pytest.raises(bt.InputError):
            solver(bt.Tensor.ones(3, dim), tol=tol)

    def test_sign_symmetry(self):
        # the search runs every start on A and on -A, so negating the input
        # negates the eigenvalues found; clusters, not raw pair lists, are
        # compared because the greedy dedupe depends on the order it sees
        def clusters(lams):
            heads = []
            for i, lam in enumerate(sorted(lams)):
                if i == 0 or lam - last > 1e-6:
                    heads.append(lam)
                last = lam
            return np.array(heads)

        rng = np.random.default_rng(36)
        families = [random_tensor, random_z, random_symmetric, random_mixed_diag]
        for k in range(40):
            m, n = (3, 4)[k % 2], (3, 4, 5)[k % 3]
            A = families[k % 4](rng, m, n)
            neg = bt.Tensor.from_array(-A.array)
            got = clusters([p.lam for p in bt.eigen_search(A, restarts=16, seed=k)])
            want = clusters([-p.lam for p in bt.eigen_search(neg, restarts=16, seed=k)])
            assert got.size == want.size, (k, got, want)
            assert np.allclose(got, want, rtol=0.0, atol=1e-7), (k, got, want)

    def test_one_fixed_point_batch_per_search(self, monkeypatch):
        calls = []
        inner = oracle._batched_fixed_point

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(oracle, "_batched_fixed_point", counted)
        assert bt.eigen_search(bt.Tensor.ones(4, 3), restarts=8, seed=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("m, family, scale", [
        (2, "uniform", 1e160), (2, "full", 0.33e308), (3, "uniform", 1e300),
        (4, "uniform", 1e300)])
    def test_entries_near_dbl_max_warn_of_nothing(self, m, family, scale):
        # the pass overflows by design where an iterate or the sum of its
        # scales' squares leaves the float range: that retires a start or
        # sends the pass to the full test, and warns of nothing
        rng = np.random.default_rng(0)
        arr = (rng.uniform(-1.0, 1.0, (3,) * m) if family == "uniform"
               else np.ones((3,) * m)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bt.search_report(bt.Tensor.from_array(arr))

    def test_results_reverify(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            A = random_tensor(rng, 3, 3)
            for p in bt.eigen_search(A, restarts=16, seed=1):
                assert bt.residual(A, p.lam, p.x) <= 1e-8
                assert np.max(np.abs(p.x)) == 1.0


def qi_bound(m, n):
    """Qi (2005): an order-m dim-n tensor has at most n (m-1)^(n-1) eigenvalues."""
    return n * (m - 1) ** (n - 1)


def clusters(pairs, tol=1e-6):
    heads = []
    for lam in sorted(p.lam for p in pairs):
        if not heads or lam - last > tol:
            heads.append(lam)
        last = lam
    return np.array(heads)


@pytest.fixture(scope="module")
def generic_searches():
    """Searches on the four generic families at the four benchmark shapes."""
    rng = np.random.default_rng(71)
    found = []
    for m, n in [(3, 3), (3, 6), (4, 3), (4, 6)]:
        for family in (random_z, random_symmetric, random_b, random_mixed_diag):
            for _ in range(2):
                A = family(rng, m, n)
                found.append((A, bt.eigen_search(A, restarts=64, seed=int(rng.integers(1000)))))
    return found


class TestNewtonFinish:
    def test_within_qi_bound(self, generic_searches):
        assert sum(len(pairs) for _, pairs in generic_searches) >= len(generic_searches)
        for A, pairs in generic_searches:
            assert len({p.lam for p in pairs}) <= qi_bound(A.order, A.dim)

    def test_pairs_are_distinct(self, generic_searches):
        for A, pairs in generic_searches:
            for i, p in enumerate(pairs):
                for q in pairs[i + 1:]:
                    assert not (abs(p.lam - q.lam) <= 1e-6
                                and np.max(np.abs(p.x - q.x)) <= 1e-6), (p, q)

    def test_pairs_are_polished(self, generic_searches):
        for A, pairs in generic_searches:
            bound = 1e-10 * max(1.0, float(np.max(np.abs(A.array))))
            for p in pairs:
                assert p.residual <= bound
                assert bt.residual(A, p.lam, p.x) <= bound

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 3), (5, 2), (8, 3)])
    def test_jacobian_plan_matches_finite_differences(self, m, n):
        rng = np.random.default_rng(72 + m)
        A = random_tensor(rng, m, n)
        x = rng.uniform(-1.0, 1.0, size=n)
        Sj, steps = oracle._jacobian_plan(*oracle._monomial_plan(A.array.reshape(n, -1), m))
        assert Sj.shape == (n * n, math.comb(n + m - 3, m - 2))
        w = oracle._monomials(x[:, None], steps)[:, 0] if m > 2 else np.ones(1)
        J = (w @ Sj.T).reshape(n, n)
        h = 1e-6
        numeric = np.column_stack([
            (bt.contract(A, x + h * e) - bt.contract(A, x - h * e)) / (2 * h)
            for e in np.eye(n)])
        assert np.allclose(J, numeric, rtol=0.0, atol=1e-8)

    def test_bordered_solve_keeps_regular_rows_exact(self):
        # an exactly singular system makes the stacked solve raise; the
        # regular ones still get the plain LU solution, the singular one the
        # minimum-norm step
        rng = np.random.default_rng(73)
        J = rng.standard_normal((4, 3, 3))
        J[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
        F = rng.standard_normal((4, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(J, F[:, :, None])
        d = oracle._bordered_solve(J, F)
        for i in (0, 1, 3):
            assert np.array_equal(d[i], np.linalg.solve(J[i], F[i]))
        assert np.allclose(d[2], np.linalg.pinv(J[2]) @ F[2])

    @pytest.mark.parametrize("make", [
        lambda rng: bt.Tensor.identity(4, 3),
        lambda rng: bt.Tensor.ones(4, 3),
        lambda rng: bt.Tensor(3, 3, np.zeros(27)),
        lambda rng: bt.laplacian_tensor(bt.Hypergraph(5, 3, [(1, 2, 3)])),
        lambda rng: bt.laplacian_tensor(random_hypergraph(rng, 6, 3)),
    ], ids=["identity", "ones", "zero", "isolated-vertices", "random-hypergraph"])
    def test_singular_jacobians(self, make):
        A = make(np.random.default_rng(74))
        pairs, counts = bt.search_report(A, restarts=16, seed=3)
        assert pairs and counts.handed_off
        for p in pairs:
            assert np.isfinite(p.lam) and np.all(np.isfinite(p.x))
            assert bt.residual(A, p.lam, p.x) <= 1e-8

    @pytest.mark.parametrize("make", [
        lambda rng: bt.Tensor.identity(4, 3),
        lambda rng: bt.Tensor.ones(4, 3),
        lambda rng: bt.laplacian_tensor(random_hypergraph(rng, 5, 3)),
        lambda rng: random_z(rng, 3, 4),
        lambda rng: random_symmetric(rng, 4, 3),
    ], ids=["identity", "ones", "laplacian", "z", "symmetric"])
    def test_failed_newton_runs_give_no_pair(self, monkeypatch, make):
        # every start that leaves the fixed point unconverged goes to one
        # Newton run; where that run fails, the start gives no pair and is
        # not swept again
        A = make(np.random.default_rng(75))
        sweeps, inner, sweep = [], oracle._newton, oracle._sweep

        def failing(*args):
            X, defect = inner(*args)
            return X, np.full_like(defect, np.inf)

        def counted(*args):
            sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(oracle, "_newton", failing)
        monkeypatch.setattr(oracle, "_sweep", counted)
        failed, counts = bt.search_report(A, restarts=8, seed=5)
        assert counts.handed_off + counts.out_of_passes and not counts.polished
        assert len(sweeps) == 1
        # at tol 1e-8 no start converges in the fixed point: a defect within
        # 0.9 tol is below the hand-off threshold, which is tested first
        assert counts.converged == 0 and failed == []


class TestSearchContract:
    def test_a_search_takes_at_most_the_pass_budget(self):
        rng = np.random.default_rng(79)
        for A in (random_z(rng, 3, 4), random_b(rng, 4, 6), bt.Tensor.ones(4, 3)):
            _, counts = bt.search_report(A, restarts=16, seed=1)
            assert 0 < counts.passes <= oracle._PASSES

    def test_rough_newton_vectors_give_no_pair(self, monkeypatch):
        # Newton's vectors are kept only where their defect is within both
        # 0.9 tol and the polish target; one between the two gives no pair,
        # though its vector may well pass the residual check
        A = random_symmetric(np.random.default_rng(80), 3, 4)
        assert bt.eigen_search(A, restarts=8, seed=2)
        inner = oracle._newton

        def rough(plan, m, X, target, counts):
            X, defect = inner(plan, m, X, target, counts)
            return X, np.full_like(defect, 0.5 * (target + 0.9e-8))

        monkeypatch.setattr(oracle, "_newton", rough)
        pairs, counts = bt.search_report(A, restarts=8, seed=2, tol=1e-8)
        assert counts.handed_off + counts.out_of_passes and not counts.polished
        assert pairs == []

    def test_dim2_recall_floor(self):
        # at dimension 2, eigenpairs_n2 gives the complete spectrum.  On this
        # sample, eigenvalues matched at 1e-7 relative, a search that let
        # starts stall for up to 200 passes and restarted those Newton's
        # method failed found 240 of 306, all of them in 71 of 120 tensors;
        # sending every unconverged start to Newton's method after at most
        # 50 passes finds 271, all in 94.  The floors lie between the two,
        # clear of rounding-level changes.
        rng = np.random.default_rng(3)
        total = found = complete = 0
        for m in (3, 4, 5, 6):
            for family in (random_tensor, random_symmetric, random_z):
                for _ in range(10):
                    A = family(rng, m, 2)
                    ref = []
                    for p in bt.eigenpairs_n2(A):
                        if all(abs(p.lam - lam) > 1e-7 * max(1.0, abs(lam)) for lam in ref):
                            ref.append(p.lam)
                    got = [p.lam for p in bt.eigen_search(A, restarts=64, seed=1)]
                    hits = sum(any(abs(lam - g) <= 1e-7 * max(1.0, abs(lam)) for g in got)
                               for lam in ref)
                    total, found, complete = (total + len(ref), found + hits,
                                              complete + (hits == len(ref)))
        assert total == 306
        assert found >= 260 and complete >= 85


class TestMonomialContraction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_agrees_with_contract(self, m, n):
        # both sides sum at most n**(m-1) products of an entry or a sum of
        # entries with at most m-1 components of x in [-1, 1]; each is within
        # gamma_K * sum|a| of the exact row value, K = n**(m-1) + m
        rng = np.random.default_rng(80 + 10 * m + n)
        A = random_tensor(rng, m, n)
        rows = A.array.reshape(n, -1)
        S, steps = oracle._monomial_plan(rows, m)
        assert S.shape == (n, math.comb(n + m - 2, m - 1))
        X = rng.uniform(-1.0, 1.0, size=(n, 16))
        X[:, 0] = 1.0
        Z = S @ oracle._monomials(X, steps)
        K = n ** (m - 1) + m
        gamma = K * 2.0**-53 / (1.0 - K * 2.0**-53)
        bound = 2.0 * gamma * np.abs(rows).sum(axis=1)
        for j in range(X.shape[1]):
            assert np.all(np.abs(Z[:, j] - bt.contract(A, X[:, j])) <= bound)

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 5), (4, 6), (5, 3)])
    def test_negation_gives_exactly_minus_s(self, m, n):
        A = random_tensor(np.random.default_rng(90 + m), m, n)
        rows = A.array.reshape(n, -1)
        S, steps = oracle._monomial_plan(rows, m)
        neg, neg_steps = oracle._monomial_plan(-rows, m)
        assert np.array_equal(neg, -S)
        assert all(np.array_equal(p, q) and np.array_equal(a, b)
                   for (p, a), (q, b) in zip(steps, neg_steps))


class TestSearchReport:
    def test_counts_add_up(self):
        rng = np.random.default_rng(76)
        for A in (random_z(rng, 3, 4), random_symmetric(rng, 4, 3), bt.Tensor.ones(4, 3)):
            pairs, counts = bt.search_report(A, restarts=16, seed=2)
            again = bt.eigen_search(A, restarts=16, seed=2)
            assert [p.to_json_dict() for p in pairs] == [p.to_json_dict() for p in again]
            # every start ends the fixed point in one of four ways, and only
            # the handed-off and out-of-passes starts go on to Newton's method
            assert (counts.converged + counts.degenerate + counts.handed_off
                    + counts.out_of_passes) == 32
            assert counts.polished <= counts.handed_off + counts.out_of_passes
            assert counts.pairs == len(pairs) <= counts.pairs_found
            assert counts.passes > 0
            assert counts.newton_steps > 0
            # a pass halves the shift of each of at most 32 live starts once
            assert 0 < counts.halvings <= 32 * counts.passes

    def test_starts_per_pair_counts_what_the_dedupe_collapsed(self):
        rng = np.random.default_rng(77)
        for A in (random_z(rng, 3, 4), random_symmetric(rng, 4, 3), bt.Tensor.ones(4, 3),
                  random_tensor(rng, 3, 5)):
            pairs, counts = bt.search_report(A, restarts=16, seed=3)
            assert len(counts.starts_per_pair) == counts.pairs == len(pairs) > 0
            assert sum(counts.starts_per_pair) == counts.pairs_found
            assert all(k >= 1 for k in counts.starts_per_pair)

    def test_dedupe_counts_follow_the_sorted_pairs(self):
        x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0])
        items = [(oracle.EigenPair(2.0, y, 1e-12), 1), (oracle.EigenPair(1.0, x, 1e-12), 2),
                 (oracle.EigenPair(2.0 + 1e-12, y, 1e-14), 3),
                 (oracle.EigenPair(2.0, y, 1e-13), 1)]
        kept, merged = oracle._dedupe_sort(items)
        assert [(p.lam, p.residual) for p in kept] == [(1.0, 1e-12), (2.0 + 1e-12, 1e-14)]
        assert merged == (2, 5)

    def test_dedupe_compares_eigenvalues_relative_to_their_size(self):
        # near 1e160 one ulp of lambda is about 1e144: the absolute 1e-9 kept
        # each bit pattern apart, the relative one merges pairs within 1e-9
        # of the larger magnitude and keeps those beyond it
        x = np.array([1.0, 0.5])
        lam = 1.2449e160
        items = [(oracle.EigenPair(lam, x, 1e150), 2),
                 (oracle.EigenPair(lam * (1.0 + 1e-12), x, 1e149), 3),
                 (oracle.EigenPair(-lam * (1.0 - 1e-10), x, 1e150), 1),
                 (oracle.EigenPair(-lam, x, 1e150), 1),
                 (oracle.EigenPair(lam * (1.0 + 1e-8), x, 1e150), 1)]
        kept, merged = oracle._dedupe_sort(items)
        assert [p.lam for p in kept] == [-lam, lam * (1.0 + 1e-12), lam * (1.0 + 1e-8)]
        assert merged == (2, 5, 1)

    def test_dedupe_takes_x_and_minus_x_as_one_direction(self):
        # (lambda, -x) is an eigenpair with (lambda, x); a first component at
        # rounding level gives either sign, so both join one slot, while a
        # vector near neither stays apart
        x = np.array([7e-243, 1.0, 0.0])
        near = np.array([-7e-243, 1.0, 1e-10])
        items = [(oracle.EigenPair(3.0, x, 1e-12), 2), (oracle.EigenPair(3.0, -x, 1e-14), 1),
                 (oracle.EigenPair(3.0, near, 1e-13), 4),
                 (oracle.EigenPair(3.0, np.array([0.0, 1.0, 0.5]), 1e-12), 1)]
        kept, merged = oracle._dedupe_sort(items)
        assert [p.x.tolist() for p in kept] == [(-x).tolist(), [0.0, 1.0, 0.5]]
        assert [p.residual for p in kept] == [1e-14, 1e-12]
        assert merged == (7, 1)

    def test_dedupe_keeps_the_first_of_tied_pairs(self):
        # -0.0 == 0.0, so the sort keys tie and the first pair given stands
        # for both: the solvers keep their candidates in start order so that
        # the returned vectors stay bitwise the same
        neg, pos = (oracle.EigenPair(1.0, np.array([1.0, z]), 1e-12) for z in (-0.0, 0.0))
        for pairs in ([neg, pos], [pos, neg]):
            kept, merged = oracle._dedupe_sort([(p, 1) for p in pairs])
            assert kept[0] is pairs[0] and merged == (2,)

    def test_overflowing_shift_is_a_precondition_error(self):
        # (0, ones) is an eigenpair, but the shift bound 1 + max|row sum| is
        # infinite, so the search cannot run
        A = make_cancelling_rows()
        assert bt.residual(A, 0.0, np.ones(8)) == 0.0
        with pytest.raises(bt.PreconditionError, match="float range"):
            bt.eigen_search(A, restarts=8)


# ---------------------------------------------------------------------------
# one stacked check of the distinct candidates, their repeats carried as counts

def _reference_verified(A, candidates, tol):
    """One :func:`residual` check, read-only copy and dedupe comparison per
    (lambda, x) candidate, repeats included.  ``oracle._verified``, given
    each distinct candidate once with its number of repeats, must return
    what it returns."""
    pairs = []
    for lam, x in candidates:
        res = oracle.residual(A, lam, x)
        if res <= tol:
            x = x.copy()
            x.setflags(write=False)
            pairs.append(oracle.EigenPair(lam, x, res))
    return _reference_dedupe_sort(pairs)


def _expanded(candidates):
    """The (lambda, x, repeats) ``candidates`` with each repeat listed."""
    return [(lam, x) for lam, x, repeats in candidates for _ in range(repeats)]


def _verify(A, candidates, tol=1e-8):
    """``oracle._verified`` on the (lambda, x, repeats) ``candidates``."""
    X = np.array([x for _, x, _ in candidates]).reshape(-1, A.dim)
    return oracle._verified(A, X, [repeats for _, _, repeats in candidates], tol,
                            [lam for lam, _, _ in candidates])


def _search_lambda(A, x):
    """The lambda that the search gives its vector ``x``."""
    xm = x ** (A.order - 1)
    return float(bt.contract(A, x) @ xm / (xm @ xm)) + 0.0


def _bits(pairs):
    return [(p.lam.hex(), p.x.tobytes(), p.residual.hex()) for p in pairs]


def _key(lam, x):
    return float.hex(lam), np.asarray(x).tobytes()


def _repeat_rich_searches():
    rng = np.random.default_rng(74)
    return {"laplacian-6-3": bt.laplacian_tensor(random_hypergraph(rng, 6, 3)),
            "ones-4-3": bt.Tensor.ones(4, 3),
            "z-3-3": random_z(np.random.default_rng(75), 3, 3)}


#: The families and (order, dim) shapes of the benchmark's search stream.
_STREAM_FAMILIES = {"z": random_z, "symmetric": random_symmetric, "b": random_b,
                    "mixed-diag": random_mixed_diag}
_STREAM_SHAPES = [(3, 3), (3, 6), (4, 3), (4, 6)]


def _stream_search(case):
    """The tensor of ``case``, "family-order-dim"."""
    family, m, n = case.rsplit("-", 2)
    m, n = int(m), int(n)
    return _STREAM_FAMILIES[family](np.random.default_rng(10 * m + n), m, n)


@pytest.fixture
def recorded(monkeypatch):
    """Run a solver with its stages recorded: the vectors each fixed-point
    run returned, in start order, the (lambda, x, repeats) candidates each
    ``_verified`` call got, lambda None where the call takes it from the
    contraction, the bits of the rows each stacked contraction of the oracle got,
    the (lambda, x) bits of the rows of each defect check and the items
    each ``_dedupe_sort`` call got."""
    seen = {"vectors": [], "candidates": [], "contracted": [], "checked": [], "deduped": []}
    fixed_point, verified = oracle._batched_fixed_point, oracle._verified
    contract_rows, defects, dedupe = oracle._contract_rows, oracle._defects, oracle._dedupe_sort

    def recording_fixed_point(*args):
        seen["vectors"].append(list(fixed_point(*args)))
        return seen["vectors"][-1]

    def recording_verified(A, X, repeats, tol, lams=None):
        given = [None] * len(X) if lams is None else lams
        seen["candidates"].append(list(zip(given, X, repeats)))
        return verified(A, X, repeats, tol, lams)

    def recording_contract_rows(A, X):
        seen["contracted"].append([x.tobytes() for x in X])
        return contract_rows(A, X)

    def recording_defects(A, lam, X, Z):
        lams = np.broadcast_to(lam, (len(X), 1))[:, 0].tolist()
        seen["checked"].append([_key(v, x) for v, x in zip(lams, X)])
        return defects(A, lam, X, Z)

    def recording_dedupe(items):
        seen["deduped"].append(list(items))
        return dedupe(seen["deduped"][-1])

    monkeypatch.setattr(oracle, "_batched_fixed_point", recording_fixed_point)
    monkeypatch.setattr(oracle, "_verified", recording_verified)
    monkeypatch.setattr(oracle, "_contract_rows", recording_contract_rows)
    monkeypatch.setattr(oracle, "_defects", recording_defects)
    monkeypatch.setattr(oracle, "_dedupe_sort", recording_dedupe)
    return seen


class TestVerifiedOncePerDistinctCandidate:
    def _check_search(self, recorded, A):
        """The search's candidates, its one contraction and its one defect
        check against a check per start through :func:`residual`."""
        pairs, counts = bt.search_report(A, restarts=64, seed=0)
        [vectors], [candidates] = recorded["vectors"], recorded["candidates"]
        # one candidate per distinct vector, in first-seen order, with its
        # number of starts; the search leaves lambda to the check
        firsts = {}
        for x in vectors:
            firsts.setdefault(x.tobytes(), [x, 0])[1] += 1
        assert [(lam, x.tobytes(), repeats) for lam, x, repeats in candidates] == [
            (None, key, repeats) for key, (x, repeats) in firsts.items()]
        # one contraction gives the defects and each candidate the lambda
        # its own vector gives, and one stacked check covers every candidate
        assert recorded["contracted"] == [list(firsts)]
        assert recorded["checked"] == [[_key(_search_lambda(A, x), x) for x, _ in firsts.values()]]
        # one check and comparison per start give the same pairs and counts
        want_pairs, want_merged = _reference_verified(
            A, [(_search_lambda(A, x), x) for x in vectors], 1e-8)
        assert _bits(pairs) == _bits(want_pairs)
        assert counts.starts_per_pair == want_merged
        assert counts.pairs_found == sum(repeats for _, repeats in recorded["deduped"][0])
        return vectors, candidates

    @pytest.mark.parametrize("case", list(_repeat_rich_searches()))
    def test_searches_rich_in_repeats_match_the_reference(self, recorded, case):
        vectors, candidates = self._check_search(recorded, _repeat_rich_searches()[case])
        assert len(candidates) < len(vectors)

    @pytest.mark.parametrize("case", [f"{family}-{m}-{n}" for m, n in _STREAM_SHAPES
                                      for family in _STREAM_FAMILIES])
    def test_stream_shapes_and_families_match_the_reference(self, recorded, case):
        self._check_search(recorded, _stream_search(case))

    def test_search_without_candidates(self, recorded):
        # a rotation has no real eigenvector: no start ends on a vector, and
        # the contraction and check run on a stack of no rows
        A = bt.Tensor.from_array(np.array([[0.0, -1.0], [1.0, 0.0]]))
        pairs, counts = bt.search_report(A, restarts=8, seed=0)
        assert (pairs, counts.pairs_found, counts.starts_per_pair) == ([], 0, ())
        assert recorded["vectors"] == [[]] and recorded["candidates"] == [[]]
        assert recorded["contracted"] == [[]] and recorded["checked"] == [[]]
        assert _verify(A, []) == ([], ())

    def test_high_order_checks_stay_within_one_block(self, monkeypatch):
        # the searches' candidates and the dim-2 roots are contracted in
        # blocks of at most _BLOCK_ENTRIES weights, or one row's, where all
        # of them at once would be many times that
        contract_rows, peaks = oracle._contract_rows, []

        def traced_contract_rows(A, X):
            tracemalloc.start()
            try:
                Z = contract_rows(A, X)
                peaks.append((A, len(X), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return Z

        monkeypatch.setattr(oracle, "_contract_rows", traced_contract_rows)
        rng = np.random.default_rng(4)
        bt.search_report(random_z(rng, 7, 6), restarts=64, seed=0)
        bt.search_report(random_z(rng, 8, 6), restarts=64, seed=0)
        bt.eigenpairs_n2(random_tensor(rng, 20, 2))
        assert len(peaks) == 3
        for A, k, peak in peaks:
            width = A.dim ** (A.order - 1)
            assert peak <= 2 * 8 * max(core._BLOCK_ENTRIES, width) < 8 * k * width

    def test_dim2_candidates_match_the_reference(self, recorded):
        # the identity's continuum gives three representatives and the
        # (0, 1) corner a fourth candidate
        rng = np.random.default_rng(78)
        tensors = [bt.Tensor.identity(4, 2), bt.Tensor.ones(3, 2)]
        tensors += [random_tensor(rng, m, 2) for m in (2, 3, 4, 5)]
        for A in tensors:
            for found in recorded.values():
                found.clear()
            pairs = bt.eigenpairs_n2(A)
            [candidates] = recorded["candidates"]
            assert all(repeats == 1 for _, _, repeats in candidates)
            keys = [_key(lam, x) for lam, x, _ in candidates]
            assert recorded["checked"] == [keys] and len(set(keys)) == len(keys)
            assert recorded["contracted"] == [[x.tobytes() for _, x, _ in candidates]]
            assert _bits(pairs) == _bits(_reference_verified(A, _expanded(candidates), 1e-8)[0])

    def test_signed_zeros_are_distinct_candidates(self, recorded):
        # 0.0 == -0.0, but their bits differ, in lambda and in x alike
        A = bt.Tensor.from_array(np.diag([0.0, 1.0]))
        x, y = np.array([1.0, 0.0]), np.array([1.0, -0.0])
        candidates = [(0.0, x, 2), (-0.0, x, 1), (0.0, y, 1), (-0.0, y, 1)]
        pairs, merged = _verify(A, candidates)
        assert recorded["checked"] == [[_key(lam, v) for lam, v, _ in candidates]]
        want_pairs, want_merged = _reference_verified(A, _expanded(candidates), 1e-8)
        assert _bits(pairs) == _bits(want_pairs)
        assert merged == want_merged == (5,)

    def test_rejected_candidates_are_checked_once(self, recorded):
        A = bt.Tensor.from_array(np.diag([2.0, 1.0]))
        x = np.array([1.0, 1.0])
        assert _verify(A, [(1.0, x, 3)]) == ([], ())
        assert recorded["checked"] == [[_key(1.0, x)]]


# ---------------------------------------------------------------------------
# the dedupe of counted items against its one-comparison-per-pair form

def _reference_dedupe_sort(pairs):
    """``oracle._dedupe_sort`` with a sort key built and a comparison run for
    every pair, repeats included.  ``_dedupe_sort``, given each object once
    with its number of repeats, must keep the same objects with the same
    counts."""
    ordered = sorted(pairs, key=lambda p: (p.lam, tuple(p.x)))
    kept, merged = [], []
    for p in ordered:
        for slot, q in enumerate(kept):
            if (abs(p.lam - q.lam) <= oracle._DEDUPE_TOL * max(1.0, abs(p.lam), abs(q.lam))
                    and min(np.max(np.abs(p.x - q.x)),
                            np.max(np.abs(p.x + q.x))) <= oracle._DEDUPE_TOL):
                merged[slot] += 1
                if p.residual < q.residual:
                    kept[slot] = p
                break
        else:
            kept.append(p)
            merged.append(1)
    order = sorted(range(len(kept)), key=lambda s: (kept[s].lam, tuple(kept[s].x)))
    return [kept[s] for s in order], tuple(merged[s] for s in order)


def _counted(pairs):
    """``pairs`` as (pair, repeats) items, one per object, in first-seen order."""
    firsts = {}
    for p in pairs:
        firsts.setdefault(id(p), [p, 0])[1] += 1
    return [(p, repeats) for p, repeats in firsts.values()]


class TestDedupeMatchesReference:
    def _check(self, pairs):
        kept, merged = oracle._dedupe_sort(_counted(pairs))
        want_kept, want_merged = _reference_dedupe_sort(pairs)
        assert [id(p) for p in kept] == [id(p) for p in want_kept]
        assert merged == want_merged

    def test_interleaved_objects_with_equal_keys(self):
        # 0.0 == -0.0, so a and b tie in the sort; the reference meets a's
        # repeats on both sides of b, the counted form only once before it
        a = oracle.EigenPair(1.0, np.array([1.0, 0.0]), 1e-12)
        b = oracle.EigenPair(1.0, np.array([1.0, -0.0]), 1e-13)
        c = oracle.EigenPair(1.0 + 1e-12, np.array([1.0, 0.0]), 1e-14)
        for pairs in ([a, b, a, b, a], [b, a, b, a], [a, a, b, b, a], [b, b, a, a, b],
                      [a, b, c, a, c, b], [c, a, b, a, c, c], [a, c, b, c, a]):
            self._check(pairs)
            kept, merged = oracle._dedupe_sort(_counted(pairs))
            assert sum(merged) == len(pairs)

    def test_a_slot_compares_with_its_current_pair(self):
        # b replaces a, its smaller residual winning, and c is within the
        # tolerance of b but not of a, in lambda or in x: c joins b's slot
        tol = oracle._DEDUPE_TOL
        for d_lam, d_x in ((0.9 * tol, 0.0), (0.0, 0.9 * tol)):
            a, b, c = (oracle.EigenPair(1.0 + k * d_lam, np.array([1.0, 0.5 + k * d_x]), res)
                       for k, res in ((0, 1e-12), (1, 1e-14), (2, 1e-13)))
            self._check([a, b, c, a])
            assert oracle._dedupe_sort(_counted([a, b, c]))[1] == (3,)

    def test_random_repeat_patterns(self):
        # objects whose keys tie, differ within the dedupe tolerance or lie
        # beyond it, each repeated and shuffled
        rng = np.random.default_rng(81)
        tol = oracle._DEDUPE_TOL
        for _ in range(300):
            objects = []
            for _ in range(int(rng.integers(1, 7))):
                lam = float(rng.choice([1.0, 1.0 + 0.4 * tol, 1.0 + 3 * tol, 2.0]))
                x = np.array([1.0, float(rng.choice([0.0, -0.0, 0.3 * tol, 0.5]))])
                res = float(rng.choice([1e-12, 1e-13, 1e-14]))
                objects.append(oracle.EigenPair(lam, x, res))
            pairs = [objects[i] for i in rng.integers(0, len(objects), int(rng.integers(1, 20)))]
            self._check(pairs)

    @pytest.mark.parametrize("case", list(_repeat_rich_searches()))
    def test_search_candidate_lists(self, recorded, case):
        bt.search_report(_repeat_rich_searches()[case], restarts=64, seed=0)
        [vectors], [items] = recorded["vectors"], recorded["deduped"]
        assert any(repeats > 1 for _, repeats in items)
        # each start that passed the check, in start order, as its pair
        pair_of = {p.x.tobytes(): p for p, _ in items}
        pairs = [pair_of[x.tobytes()] for x in vectors if x.tobytes() in pair_of]
        assert [(id(p), k) for p, k in _counted(pairs)] == [(id(p), k) for p, k in items]
        self._check(pairs)


# ---------------------------------------------------------------------------
# the fixed-point pass against a plain one over per-start state

def _reference_power(X, p):
    Y = np.abs(X) ** p
    return Y if p % 2 == 0 else np.copysign(Y, X)


@dataclass
class _ReferenceStarts:
    """Fixed-point state of a batch of starts: one column per start in the
    (n, k) arrays ``X`` and ``best_X``, one entry per start in the others."""

    X: np.ndarray
    signs: np.ndarray
    order: np.ndarray
    alpha: np.ndarray
    prev: np.ndarray
    best_res: np.ndarray
    best_X: np.ndarray
    #: passes the start has taken
    age: np.ndarray

    def take(self, idx):
        """The starts at the indices ``idx``."""
        return _ReferenceStarts(*(v.take(idx, axis=-1) for v in vars(self).values()))


def _reference_sweep(plan, m, X, signs, alpha0, tol, counts):
    """The fixed-point pass in its plain form: a loop over the
    ``_ReferenceStarts`` fields, with an age counter per start and every
    test run on every pass.  ``oracle._sweep`` must match it bitwise."""
    S, steps = plan
    power = 1.0 / (m - 1)
    k = X.shape[1]
    batch = _ReferenceStarts(X=X, signs=signs, order=np.arange(k), alpha=np.full(k, alpha0),
                             prev=np.full(k, np.inf), best_res=np.full(k, np.inf),
                             best_X=X.copy(), age=np.zeros(k, dtype=int))
    finished, handed = {}, [(batch.order[:0], X[:, :0])]
    while batch.order.size:
        counts.passes += 1
        X = batch.X
        # multiplying by -1 is exact: a -1 column sees the product with -A
        Z = S @ oracle._monomials(X, steps)
        Z *= batch.signs
        XM = _reference_power(X, m - 1)
        lam = (Z * XM).sum(axis=0) / (XM * XM).sum(axis=0)
        res = np.abs(Z - lam * XM).max(axis=0)

        hand = res < oracle._HANDOFF
        if np.count_nonzero(hand):
            handed.append((batch.order[hand], X[:, hand]))
            counts.handed_off += int(np.count_nonzero(hand))
            stay = np.flatnonzero(~hand)
            batch, X, Z, XM, res = (batch.take(stay), X.take(stay, axis=1),
                                    Z.take(stay, axis=1), XM.take(stay, axis=1),
                                    res.take(stay))

        improved = res < batch.best_res * (1.0 - 1e-6)
        np.copyto(batch.best_res, res, where=improved)
        np.copyto(batch.best_X, X, where=improved)

        halve = res > batch.prev
        counts.halvings += int(np.count_nonzero(halve))
        np.multiply(batch.alpha, 0.5, out=batch.alpha, where=halve)
        batch.prev = res
        Y = batch.alpha * XM
        Y += Z
        if m % 2 == 0:
            Xn = _reference_power(Y, power)
        else:
            # even component powers lose the sign; keep the current pattern,
            # a zero component counting as positive
            Xn = np.copysign(np.maximum(Y, 0.0) ** power, X + 0.0)
        scale = np.abs(Xn).max(axis=0)

        converged = res <= 0.9 * tol
        sound = np.isfinite(scale) & (scale > 0.0)
        # a sound start at the budget joins the hand-off with its best vector
        out = sound & ~converged & (batch.age >= oracle._PASSES - 1)
        if np.count_nonzero(out):
            handed.append((batch.order[out], batch.best_X[:, out]))
            counts.out_of_passes += int(np.count_nonzero(out))
        retire = converged | ~sound | out
        if np.count_nonzero(retire):
            counts.converged += int(np.count_nonzero(converged))
            counts.degenerate += int(np.count_nonzero(~sound & ~converged))
            for i in np.nonzero((converged | ~sound) & (batch.best_res <= tol))[0]:
                finished[batch.order[i]] = batch.best_X[:, i]
            keep = np.flatnonzero(~retire)
            batch, Xn, scale = batch.take(keep), Xn.take(keep, axis=1), scale.take(keep)
        batch.X = oracle._scaled_columns(Xn, scale)
        batch.age += 1
    orders, vectors = zip(*handed)
    return finished, (np.concatenate(orders), np.concatenate(vectors, axis=1))


def _fresh_starts(starts):
    """The (X, signs) that ``_batched_fixed_point`` sweeps: each column of
    ``starts`` once on A and once on -A."""
    X = np.hstack([starts, starts])
    return X, np.repeat([1.0, -1.0], X.shape[1] // 2)


def _both_sweeps(plan, m, batch, alpha0, tol):
    """``(finished, handed, counts)`` of the pass under test and of the
    reference, each run on its own copy of the (X, signs) ``batch``."""
    out = []
    for sweep in (oracle._sweep, _reference_sweep):
        own = [v.copy() for v in batch]
        tally = oracle.SearchCounts()
        with np.errstate(all="ignore"):
            finished, handed = sweep(plan, m, *own, alpha0, tol, tally)
        out.append((finished, handed, tally))
    return out


def _assert_same_sweep(got, want):
    (f1, h1, c1), (f2, h2, c2) = got, want
    assert list(f1) == list(f2)
    assert all(type(a) is type(b) for a, b in zip(f1, f2))
    assert all(f1[i].tobytes() == f2[i].tobytes() for i in f1)
    # the hand-off's start indices and vectors
    for a, b in zip(h1, h2, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    # repr also compares the types of the counts
    assert repr(c1) == repr(c2)


class TestSweepMatchesReference:
    CASES = {"z-3-4": lambda rng: random_z(rng, 3, 4),
             "symmetric-4-3": lambda rng: random_symmetric(rng, 4, 3),
             "mixed-3-3": lambda rng: random_mixed_diag(rng, 3, 3),
             "b-4-4": lambda rng: random_b(rng, 4, 4),
             "matrix-2-4": lambda rng: random_tensor(rng, 2, 4),
             "tensor-5-3": lambda rng: random_tensor(rng, 5, 3)}

    @pytest.mark.parametrize("budget", [None, 7], ids=["default", "short"])
    @pytest.mark.parametrize("tol", [1e-8, 2e-3, 1e-2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_sweeps_are_bitwise_the_reference(self, monkeypatch, case, tol, budget):
        if budget:
            monkeypatch.setattr(oracle, "_PASSES", budget)
        rng = np.random.default_rng(91)
        A = self.CASES[case](rng)
        n, m = A.dim, A.order
        rows = A.array.reshape(n, -1)
        starts = oracle._canonical_rows(rng.standard_normal((12, n))).T
        _assert_same_sweep(*_both_sweeps(oracle._monomial_plan(rows, m), m,
                                         _fresh_starts(starts), oracle._spectral_bound(rows),
                                         tol))

    def test_outcomes_cover_every_kind_of_retirement(self):
        # the cases above reach each branch of the pass at least once
        seen = oracle.SearchCounts()
        for case in self.CASES.values():
            rng = np.random.default_rng(91)
            A = case(rng)
            n, m = A.dim, A.order
            rows = A.array.reshape(n, -1)
            starts = oracle._canonical_rows(rng.standard_normal((12, n))).T
            for tol in (1e-8, 1e-2):
                oracle._sweep(oracle._monomial_plan(rows, m), m, *_fresh_starts(starts),
                              oracle._spectral_bound(rows), tol, seen)
        assert seen.handed_off and seen.converged and seen.out_of_passes and seen.degenerate

    def test_nan_defects_and_infinite_scales(self):
        # on (0, 1, 1) the eigenvalue estimate overflows and 0 * inf makes the
        # defect NaN, and on A its next iterate overflows; e1 is an exact
        # eigenvector, whose hand-off the NaN defect must not hide
        A = bt.Tensor.from_array(np.diag([1e308, 1.5e308, 1.5e308])[:, :, None]
                                 * np.eye(3)[:, None, :])
        rows = A.array.reshape(3, -1)
        plan = oracle._monomial_plan(rows, 3)
        alpha0 = oracle._spectral_bound(rows)
        pair = _fresh_starts(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        # (0, 1, 1) alone on A: nothing else sends its pass to the full test
        alone = [v[..., [1]] for v in pair]
        for batch, handed, passes in ((pair, [0, 2], None), (alone, [], 1)):
            got, want = _both_sweeps(plan, 3, batch, alpha0, 1e-8)
            _assert_same_sweep(got, want)
            assert got[1][0].tolist() == handed and got[2].degenerate
            assert passes in (None, got[2].passes)

    def test_search_is_bitwise_the_reference(self, monkeypatch):
        L = bt.laplacian_tensor(random_hypergraph(np.random.default_rng(74), 6, 3))
        pairs, counts = bt.search_report(L, restarts=64, seed=0)
        assert counts.handed_off and counts.out_of_passes
        monkeypatch.setattr(oracle, "_sweep", _reference_sweep)
        want_pairs, want_counts = bt.search_report(L, restarts=64, seed=0)
        assert repr(counts) == repr(want_counts)
        assert ([(p.lam, p.x.tobytes(), p.residual) for p in pairs]
                == [(p.lam, p.x.tobytes(), p.residual) for p in want_pairs])


@pytest.mark.parametrize("n", [53, 54, 60])
def test_sweeps_on_either_side_of_53_components_are_bitwise_the_reference(monkeypatch, n):
    # up to 53 components the pass takes each column's first nonzero sign
    # from its weighted signs, beyond that by argmax; with the first n-2
    # rows of A zero, half the starts keep their first n-2 components zero
    monkeypatch.setattr(oracle, "_PASSES", 7)
    rng = np.random.default_rng(95)
    arr = rng.standard_normal((n, n))
    arr[:n - 2] = 0.0
    rows = bt.Tensor.from_array(arr).array
    raw = rng.standard_normal((12, n))
    raw[::2, :n - 2] = 0.0
    starts = oracle._canonical_rows(raw).T
    _assert_same_sweep(*_both_sweeps(oracle._monomial_plan(rows, 2), 2, _fresh_starts(starts),
                                     oracle._spectral_bound(rows), 1e-8))


# ---------------------------------------------------------------------------
# Newton's method against its form on n**(m-2) ordered products of x

def _reference_jacobian_rows(rows, m):
    """The matrix ``S`` of shape (n*n, n**(m-2)) such that ``w @ S.T``,
    for ``w`` the (m-2)-fold products of the components of x, is the
    Jacobian of ``A x^(m-1)`` flattened row-major.  ``S`` is the sum of A
    with each of its last m-1 axes in turn moved to second place; on such
    products it acts as (m-1) times A symmetrized over its last m-1
    indices, at m-1 instead of (m-1)! terms."""
    n = rows.shape[0]
    arr = rows.reshape((n,) * m)
    S = arr.copy()
    for axis in range(2, m):
        S += np.moveaxis(arr, axis, 1)
    return S.reshape(n * n, -1)


def _reference_newton(jac, m, X, target, counts):
    """Newton's method with the Jacobian of :func:`_reference_jacobian_rows`
    times every ordered (m-2)-fold product of x.  At m = 3 both products
    are x itself and each Jacobian entry the same two-term sum, so
    ``oracle._newton`` must match it bitwise there."""
    k, n = X.shape
    X = X.copy()
    pin = np.argmax(np.abs(X), axis=1)
    last = np.full(k, np.inf)
    best, best_X = np.full(k, np.inf), X.copy()
    live = np.arange(k)
    diag = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(oracle._NEWTON_STEPS + 1):
            x = X[live]
            W = np.ones((live.size, 1))
            for _ in range(m - 2):
                W = (W[:, :, None] * x[:, None, :]).reshape(live.size, -1)
            J = (W @ jac.T).reshape(-1, n, n)
            Z = (J @ x[:, :, None])[:, :, 0] / (m - 1)
            XM = oracle._power(x, m - 1)
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
            if step == oracle._NEWTON_STEPS or not go.any():
                break
            live, x, J, F, XM = live[go], x[go], J[go], F[go], XM[go]
            J[:, diag, diag] -= (m - 1) * lam[live, None] * oracle._power(x, m - 2)
            idx = np.arange(live.size)
            J[idx, :, pin[live]] = -XM
            d = oracle._bordered_solve(J, -F)
            counts.newton_steps += 1
            lam[live] += d[idx, pin[live]]
            d[idx, pin[live]] = 0.0
            X[live] = x + d
    return oracle._canonical_rows(best_X), best


class TestNewtonMatchesReference:
    CASES = {"z-3-4": lambda rng: random_z(rng, 3, 4),
             "symmetric-3-3": lambda rng: random_symmetric(rng, 3, 3),
             "b-3-4": lambda rng: random_b(rng, 3, 4),
             "tensor-3-5": lambda rng: random_tensor(rng, 3, 5),
             "laplacian-6-3": lambda rng: bt.laplacian_tensor(
                 random_hypergraph(np.random.default_rng(74), 6, 3))}

    @pytest.mark.parametrize("case", list(CASES))
    def test_order_3_runs_are_bitwise_the_reference(self, monkeypatch, case):
        # each Newton run of a search, on the starts it was handed
        A = self.CASES[case](np.random.default_rng(96))
        runs, inner = [], oracle._newton

        def recording(plan, m, X, target, counts):
            runs.append((plan, X.copy(), target))
            return inner(plan, m, X, target, counts)

        monkeypatch.setattr(oracle, "_newton", recording)
        bt.search_report(A, restarts=64, seed=4)
        assert runs
        jac = _reference_jacobian_rows(A.array.reshape(A.dim, -1), 3)
        for plan, X, target in runs:
            got, want = oracle.SearchCounts(), oracle.SearchCounts()
            gx, gd = inner(plan, 3, X, target, got)
            wx, wd = _reference_newton(jac, 3, X, target, want)
            assert (gx.tobytes(), gd.tobytes()) == (wx.tobytes(), wd.tobytes())
            assert got.newton_steps == want.newton_steps

    @pytest.mark.parametrize("case", list(CASES))
    def test_order_3_searches_are_bitwise_the_reference(self, monkeypatch, case):
        A = self.CASES[case](np.random.default_rng(96))
        pairs, counts = bt.search_report(A, restarts=64, seed=4)
        assert counts.handed_off
        jac = _reference_jacobian_rows(A.array.reshape(A.dim, -1), 3)
        monkeypatch.setattr(oracle, "_newton", lambda plan, m, X, target, counts:
                            _reference_newton(jac, m, X, target, counts))
        want_pairs, want_counts = bt.search_report(A, restarts=64, seed=4)
        assert repr(counts) == repr(want_counts)
        assert _bits(pairs) == _bits(want_pairs)

    def test_order_8_dim_3_monomials_stay_within_the_batch(self, monkeypatch):
        # every start reaches Newton's method, whose monomials are the
        # C(8, 6) = 28 of degree 6, where the ordered products were 3**6 =
        # 729, and the pass's are the C(9, 7) = 36 of degree 7
        A = bt.Tensor.from_array(np.random.default_rng(0).random((3,) * 8))
        shapes, inner = [], oracle._monomials

        def recording(X, steps):
            M = inner(X, steps)
            shapes.append(M.shape)
            return M

        monkeypatch.setattr(oracle, "_monomials", recording)
        _, counts = bt.search_report(A, restarts=64, seed=0)
        assert counts.handed_off + counts.out_of_passes == 128
        assert {rows for rows, _ in shapes} == {28, 36}
        assert (28, 128) in shapes
