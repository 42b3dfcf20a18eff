"""Command-line interface: dispatch, JSON reports, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import btensor as bt
from btensor import cli
from btensor.cli import _INTERVAL_METHODS, _ReportEncoder, main
from cases import (
    make_cancelling_rows,
    make_t42,
    make_t43,
    make_z32,
    random_b,
    random_hypergraph,
    random_mixed_diag,
    random_z,
)


@pytest.fixture
def t43_path(tmp_path):
    path = tmp_path / "t43.json"
    path.write_text(json.dumps(make_t43().to_json_dict()))
    return str(path)


@pytest.fixture
def t42_path(tmp_path):
    path = tmp_path / "t42.json"
    path.write_text(json.dumps(make_t42().to_json_dict()))
    return str(path)


@pytest.fixture
def ones43_path(tmp_path):
    path = tmp_path / "ones43.json"
    path.write_text(json.dumps(bt.Tensor.ones(4, 3).to_json_dict()))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_classify_t43(self, capsys, t43_path):
        code, out, _ = run_main(capsys, ["classify", t43_path])
        assert code == 0
        report = json.loads(out)
        assert report["flags"]["B"] is True
        assert report["flags"]["Z"] is False

    def test_intervals_even_sym(self, capsys, ones43_path):
        code, out, _ = run_main(capsys, ["intervals", "--method", "even-sym",
                                         ones43_path])
        assert code == 0
        assert json.loads(out) == {"parts": [{"lo": 0.0, "hi": 27.0}]}

    def test_intervals_gerschgorin(self, capsys, ones43_path):
        code, out, _ = run_main(capsys, ["intervals", "--method", "gerschgorin",
                                         ones43_path])
        assert code == 0
        assert json.loads(out) == {"parts": [{"lo": -25.0, "hi": 27.0}]}

    def test_oracle_dim2_exhaustive(self, capsys, tmp_path):
        path = tmp_path / "ones42.json"
        path.write_text(json.dumps(bt.Tensor.ones(4, 2).to_json_dict()))
        code, out, _ = run_main(capsys, ["oracle", str(path)])
        assert code == 0
        report = json.loads(out)
        assert [p["lambda"] for p in report] == [0.0, 8.0]
        assert all(p["residual"] <= 1e-10 for p in report)

    def test_oracle_search_with_options(self, capsys, ones43_path):
        code, out, _ = run_main(capsys, ["oracle", "--restarts", "32",
                                         "--seed", "3", "--tol", "1e-9",
                                         ones43_path])
        assert code == 0
        lams = sorted(set(round(p["lambda"], 6) for p in json.loads(out)))
        assert 27.0 in lams

    def test_decompose_doubly_b(self, capsys, t42_path):
        code, out, _ = run_main(capsys, ["decompose", "--method", "doubly-b",
                                         t42_path])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "doublyB"
        assert report["row_constants"] == [0.0, 0.0]
        part_b = bt.Tensor.from_json_dict(report["B"])
        part_c = bt.Tensor.from_json_dict(report["C"])
        assert bt.is_doubly_b(part_b) and bt.is_doubly_b(part_c)

    def test_laplacian(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 3, "m": 3, "edges": [[1, 2, 3]]}))
        code, out, _ = run_main(capsys, ["laplacian", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["bounds"] == {"lo": 0.0, "hi": 2.0}
        assert bt.is_z(bt.Tensor.from_json_dict(report["tensor"]))

    def test_definiteness(self, capsys, ones43_path):
        code, out, _ = run_main(capsys, ["definiteness", ones43_path])
        assert code == 0
        assert json.loads(out)["verdict"] == "positive_semidefinite"

    def test_out_file(self, capsys, tmp_path, ones43_path):
        target = tmp_path / "report.json"
        code, out, _ = run_main(capsys, ["intervals", "--method", "even-sym",
                                         "--out", str(target), ones43_path])
        assert code == 0 and out == ""
        assert json.loads(target.read_text()) == {"parts": [{"lo": 0.0, "hi": 27.0}]}


class TestFailurePaths:
    def test_unknown_verb_exits_2(self, capsys):
        code, _, err = run_main(capsys, ["frobnicate", "x.json"])
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_main(capsys, ["classify", "/nonexistent/input.json"])
        assert code == 2
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("relative", ["missing/report.json", ""],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, t43_path, relative):
        # one strict-JSON error line instead of a traceback
        target = tmp_path / relative
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "classify", "--out", str(target), t43_path],
            capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (2, "")
        [line] = result.stderr.splitlines()
        error = json.loads(line, parse_constant=_strict)
        assert error["error"] == "input"
        assert error["detail"].startswith(f"cannot write {target}: ")

    @pytest.mark.parametrize("dim", [3, 20], ids=["buffered-report", "report-past-buffer"])
    def test_closed_stdout_exits_2(self, tmp_path, dim):
        # the read end of the pipe closes before the report is written: a
        # small report fails at the flush, a large one at the write itself
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(bt.Tensor.identity(3, dim).to_json_dict()))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "btensor.cli", "decompose", "--method", "b", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert result.returncode == 2
        [line] = result.stderr.splitlines()
        error = json.loads(line, parse_constant=_strict)
        assert error["error"] == "input"
        assert error["detail"].startswith("cannot write to standard output: ")

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_main(capsys, ["classify", str(path)])
        assert code == 2
        assert "malformed" in json.loads(err)["detail"]

    def test_wrong_entry_count_exits_2(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"order": 3, "dim": 2, "dense": [1.0] * 5}))
        code, _, err = run_main(capsys, ["classify", str(path)])
        assert code == 2

    def test_laplacian_boolean_vertex_exits_2(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 3, "m": 2, "edges": [[true, 2]]}')
        code, out, err = run_main(capsys, ["laplacian", str(path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("verb, text", [
        ("laplacian", '{"n": 3, "m": 2, "edges": [5]}'),
        ("classify", '{"order": 2, "dim": 2, "dense": ["a", 1, 2, 3]}'),
        ("classify", '{"order": 2, "dim": 2, "dense": [[1, 2], [3]]}'),
        ("classify", '{"order": 2, "dim": 2, "sparse": [{"idx": 5, "val": 1}]}'),
        ("classify", '{"order": 2, "dim": 2, "sparse": [{"idx": [1, 1], "val": "x"}]}'),
        ("classify", '{"order": 2, "dim": 2, "sparse": 7}'),
        ("classify", '{"order": 2, "dim": 1, "dense": [1' + "0" * 400 + ']}'),
        ("classify", '{"order": 2, "dim": 2, "dense": [true, "0.5", 0, "2"]}'),
        ("classify", '{"order": 2, "dim": 2, "dense": [1, 0, 0, true]}'),
        ("classify", '{"order": 2, "dim": 2, "dense": [[1, "0.5"], [0, 2]]}'),
        ("classify", '{"order": 2, "dim": 2, "sparse": [{"idx": [1, 1], "val": "3"}]}'),
        ("classify", '{"order": 2, "dim": 2, "sparse": [{"idx": [1, 1], "val": false}]}'),
    ], ids=["edge-not-a-list", "dense-string", "dense-ragged", "sparse-idx-not-a-list",
            "sparse-val-string", "sparse-not-a-list", "dense-int-overflow",
            "dense-bool-and-numeric-strings", "dense-bool", "dense-nested-numeric-string",
            "sparse-val-numeric-string", "sparse-val-bool"])
    def test_malformed_values_exit_2(self, capsys, tmp_path, verb, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_main(capsys, [verb, str(path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("header", [
        {"order": 100_000, "dim": 3, "dense": []},
        {"order": 10**9, "dim": 3, "dense": []},
        {"order": 10**9, "dim": 2, "sparse": []},
        {"order": 2, "dim": 10**4000, "dense": []},
    ], ids=["order-1e5", "order-1e9", "order-1e9-sparse", "dim-4001-digits"])
    def test_huge_header_exits_2(self, capsys, tmp_path, header):
        # dim**order would have more digits than int-to-str prints, or take
        # minutes to compute; the cap is decided without it
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(header))
        code, out, err = run_main(capsys, ["classify", str(path)])
        assert code == 2 and out == ""
        last = json.loads(err)
        assert last["error"] == "input" and "cap" in last["detail"]

    @pytest.mark.parametrize("verb, payload", [
        ("classify", {"order": 100, "dim": 1, "dense": [1.0]}),
        ("classify", {"order": 100, "dim": 1, "sparse": []}),
        ("laplacian", {"n": 1, "m": 70, "edges": []}),
    ], ids=["dense", "sparse", "laplacian"])
    def test_order_beyond_numpy_axes_exits_2(self, capsys, tmp_path, verb, payload):
        # 1**order is within the cap, but no array holds that many axes
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_main(capsys, [verb, str(path)])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        last = json.loads(line)
        assert last["error"] == "input" and "order must be at most 32" in last["detail"]

    def test_method_tensor_mismatch_exits_3(self, capsys, ones43_path):
        code, _, err = run_main(capsys, ["intervals", "--method", "odd-n2",
                                         ones43_path])
        assert code == 3
        assert json.loads(err)["error"] == "precondition"

    def test_class_violation_exits_3_with_witness(self, capsys, t42_path):
        code, _, err = run_main(capsys, ["decompose", "--method", "b", t42_path])
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "class-violation"
        assert payload["witness"]["row"] == 2

    def test_intervals_requires_method(self, capsys, ones43_path):
        code, _, err = run_main(capsys, ["intervals", ones43_path])
        assert code == 2

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_oracle_rejects_bad_tol(self, capsys, tmp_path, dim, tol):
        path = tmp_path / "ones.json"
        path.write_text(json.dumps(bt.Tensor.ones(4, dim).to_json_dict()))
        code, out, err = run_main(capsys, ["oracle", "--tol", tol, str(path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("option, value, message", [
        ("--seed", "-1", "seed must be a nonnegative integer, got -1"),
        ("--restarts", "0", "restarts must be a positive integer, got 0"),
        ("--restarts", "-5", "restarts must be a positive integer, got -5")])
    def test_oracle_rejects_negative_seed(self, capsys, tmp_path, dim, option, value, message):
        # the dim-2 solver uses no starts, but its options are checked alike
        path = tmp_path / "ones.json"
        path.write_text(json.dumps(bt.Tensor.ones(4, dim).to_json_dict()))
        code, out, err = run_main(capsys, ["oracle", option, value, str(path)])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": message}

    @pytest.mark.parametrize("restarts", ["1000000000000", "8333334"])
    def test_oracle_restarts_past_the_batch_cap_exit_2(self, capsys, monkeypatch, tmp_path,
                                                       restarts):
        # refused before the start batch is drawn, with the cap named
        def no_starts(seed):
            raise AssertionError("the start batch was allocated")

        monkeypatch.setattr(np.random, "default_rng", no_starts)
        path = tmp_path / "ones33.json"
        path.write_text(json.dumps(bt.Tensor.ones(3, 3).to_json_dict()))
        code, out, err = run_main(capsys, ["oracle", "--restarts", restarts, str(path)])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "input" and "100000000 entries" in error["detail"]

    @pytest.mark.parametrize("error, kind, status", [
        (bt.InputError("x"), "input", 2),
        (bt.ClassViolationError("x"), "class-violation", 3),
        (bt.DegenerateMarginError("x"), "degenerate-margin", 3),
        (bt.PreconditionError("x"), "precondition", 3),
        (bt.InternalError("x"), "internal", 1),
    ])
    def test_each_error_kind_exits_with_its_status(self, capsys, monkeypatch, ones43_path,
                                                    error, kind, status):
        # the two PreconditionError subclasses keep their own kinds
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_run", fail)
        code, out, err = run_main(capsys, ["classify", ones43_path])
        assert code == status and out == ""
        assert json.loads(err) == {"error": kind, "detail": "x"}

    def test_restarts_only_for_oracle(self, capsys, ones43_path):
        code, _, err = run_main(capsys, ["classify", "--restarts", "9",
                                         ones43_path])
        assert code == 2


class TestDeterminism:
    def test_byte_identical_output(self, capsys, ones43_path):
        _, first, _ = run_main(capsys, ["oracle", "--seed", "5", ones43_path])
        _, second, _ = run_main(capsys, ["oracle", "--seed", "5", ones43_path])
        assert first == second

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "iden.json"
        path.write_text(json.dumps(bt.Tensor.identity(4, 2).to_json_dict()))
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "classify", str(path)],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["flags"]["SDD"] is True


def _strict(name):
    raise ValueError(f"non-standard JSON constant {name}")


#: Inputs whose sums or pair products overflow the float range: in the first
#: two the values themselves exceed DBL_MAX, in the rest only partial sums or
#: products of unscaled rows.
_OVERFLOW_DENSE = [
    [1e308, 1e308, -1e308, 1e308],
    [1e308, 1e308, 1e308, 1e308],
    [1e307, -1e306, -1e306, 1e307],
    [1e200, -1e199, -1e199, 1e200],
    [1e155, -1e154, -1e154, 1e155],
]
_REPRODUCERS = _OVERFLOW_DENSE[2:]

_VERBS = [["classify"], ["decompose", "--method", "b"], ["decompose", "--method", "doubly-b"],
          *(["intervals", "--method", m] for m in _INTERVAL_METHODS),
          ["oracle", "--restarts", "4"], ["laplacian"], ["definiteness"]]
#: The verbs that read row_stats.
_ROW_STATS_VERBS = [verb for verb in _VERBS if verb[0] not in ("oracle", "laplacian")]


class TestNearOverflow:
    def test_internal_error_exits_1_without_traceback(self, capsys, monkeypatch, t43_path):
        # a doubly-B test that fails every tensor breaks "B implies doublyB"
        # on the B-tensor T43, and classify's own flag check raises
        # InternalError, which main reports as one error line
        from btensor import classes

        def always_fails(stats):
            return {"row": 1, "lhs": 0.0, "rhs": 0.0, "margin": 0.0}

        monkeypatch.setattr(classes, "_doubly_b_witness", always_fails)
        code, out, err = run_main(capsys, ["classify", t43_path])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        last = json.loads(err.splitlines()[-1], parse_constant=_strict)
        assert last["error"] == "internal"
        assert "B implies doublyB" in last["detail"]

    @pytest.mark.parametrize("dense", _REPRODUCERS)
    def test_reproducers_exit_0_on_every_row_stats_verb(self, capsys, tmp_path, dense):
        # every class test is positively homogeneous, so the rows near
        # DBL_MAX classify, split and localize as the same tensor scaled
        # down, and every printed value is finite
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "dense": dense}))
        small = bt.Tensor(2, 2, np.ldexp(dense, -900))
        for verb in _ROW_STATS_VERBS:
            code, out, err = run_main(capsys, verb + [str(path)])
            assert code == 0, (verb, err)
            json.loads(out, parse_constant=_strict)
        code, out, _ = run_main(capsys, ["classify", str(path)])
        assert json.loads(out)["flags"] == bt.classify(small).flags
        assert all(json.loads(out)["flags"].values())
        code, out, _ = run_main(capsys, ["decompose", "--method", "doubly-b", str(path)])
        assert json.loads(out)["epsilon"] == math.ldexp(
            bt.decompose_doubly_b(small).epsilon, 900)

    @pytest.mark.parametrize("dense", _OVERFLOW_DENSE[:2])
    def test_values_past_dbl_max_exit_3_with_a_typed_error(self, capsys, tmp_path, dense):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "dense": dense}))
        for verb in _ROW_STATS_VERBS:
            code, out, err = run_main(capsys, verb + [str(path)])
            assert code in (0, 3), verb
            if code == 3:
                assert out == ""
                last = json.loads(err.splitlines()[-1], parse_constant=_strict)
                assert last["error"] in ("class-violation", "degenerate-margin",
                                         "precondition"), verb

    @pytest.mark.parametrize("method, dense", [
        ("odd-n2", [1e308, 1e308, -1e308, 1e308]),
        ("even-sym", [1e308, 1e308, 1e308, 1e308]),
    ])
    def test_intervals_keep_their_finite_lower_end(self, tmp_path, method, dense):
        # L = diag - r_plus - deficit is 0 in both rows; only the upper end U
        # exceeds DBL_MAX, which strict JSON cannot carry, so the CLI exits 3
        union = getattr(bt, _INTERVAL_METHODS[method])(bt.Tensor(2, 2, dense))
        assert union.to_json_dict() == {"parts": [{"lo": 0.0, "hi": float("inf")}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "dense": dense}))
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "intervals", "--method", method,
             str(path)], capture_output=True, text=True)
        assert result.returncode == 3
        assert result.stdout == ""
        last = json.loads(result.stderr.splitlines()[-1], parse_constant=_strict)
        assert last == {"error": "precondition",
                        "detail": "the result exceeds the float range"}

    def test_cancelling_row_sums_exit_3_with_strict_json(self, tmp_path):
        # every exact row sum is 0, but L = row sum - W r_plus is -inf, so
        # classify's witnesses cannot be written as strict JSON
        path = tmp_path / "cancel.json"
        path.write_text(json.dumps(make_cancelling_rows().to_json_dict()))
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "classify", str(path)],
            capture_output=True, text=True)
        assert result.returncode == 3
        assert result.stdout == ""
        last = json.loads(result.stderr.splitlines()[-1], parse_constant=_strict)
        assert last["error"] == "precondition"

    def test_class_violation_witness_is_strict_json(self, tmp_path):
        # 1e200 * 1e200 < 2e200 * 2e200 is a real violation, but both pair
        # products exceed DBL_MAX once multiplied back: lhs and rhs are inf
        # and their margin is NaN, which the error line writes as null,
        # keeping the detail text
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"order": 2, "dim": 2, "dense": [1e200, -2e200, -2e200, 1e200]}))
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "decompose", "--method", "doubly-b",
             str(path)], capture_output=True, text=True)
        assert result.returncode == 3
        assert result.stdout == ""
        last = json.loads(result.stderr.splitlines()[-1], parse_constant=_strict)
        assert last == {"error": "class-violation",
                        "detail": "not a doubly B-tensor: pair [1, 2] has inf <= inf",
                        "witness": {"pair": [1, 2], "lhs": None, "rhs": None,
                                    "margin": None}}

    def test_overflowing_z_part_exits_3_with_a_precondition_line(self, tmp_path):
        # the input is finite and doubly B, but row 3's entry -1.7e308 minus
        # its r_plus 1e308 is past DBL_MAX: one error line, no RuntimeWarning
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"order": 2, "dim": 3, "dense": [1, 0, 0, 0, 1, 0, 1e308, -1.7e308, 1.7e308]}))
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "decompose", "--method", "doubly-b",
             str(path)], capture_output=True, text=True)
        assert result.returncode == 3
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert json.loads(line, parse_constant=_strict) == {
            "error": "precondition",
            "detail": "the Z-part of the split exceeds the float range"}

    @pytest.mark.parametrize("argv, dense, key, want", [
        (["decompose", "--method", "doubly-b"], [1e307, 0.0, 0.0, 1e-300], "epsilon", 5e-301),
        (["oracle"], [1.7e308, 0.0, 0.0, -1.7e308], None, [
            {"lambda": -1.7e308, "x": [0.0, 1.0], "residual": 0.0},
            {"lambda": 1.7e308, "x": [1.0, 0.0], "residual": 0.0}]),
    ])
    def test_rows_far_apart_in_scale_exit_0(self, tmp_path, argv, dense, key, want):
        # a 1e-300 row beside a 1e307 one splits, and the dim-2 solver keeps
        # both eigenvalues near DBL_MAX, with nothing on stderr
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "dense": dense}))
        result = subprocess.run([sys.executable, "-m", "btensor.cli", *argv, str(path)],
                                capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        report = json.loads(result.stdout, parse_constant=_strict)
        assert (report if key is None else report[key]) == want

    def test_dim2_oracle_past_dbl_max_in_horner_writes_nothing_on_stderr(self, tmp_path):
        # the chart polynomial's values at the Cauchy bound pass DBL_MAX at
        # 2**990; they become inf without a RuntimeWarning, and at the
        # absolute default tol no pair of this scale is kept
        A = random_z(np.random.default_rng(0), 5, 2)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(bt.Tensor.from_array(np.ldexp(A.array, 990)).to_json_dict()))
        result = subprocess.run([sys.executable, "-m", "btensor.cli", "oracle", str(path)],
                                capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_search_near_1e160_writes_nothing_on_stderr(self, tmp_path):
        # the search's pass overflows without a RuntimeWarning, and the
        # starts that reached the eigenpair near 1.2449e160, 64 pairs at an
        # absolute 1e-9 on lambda, make one; x and -x of the -1e160 pair,
        # whose signs a 1e-11 noise component sets, make one too
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"order": 2, "dim": 3, "dense": [1e160, 2e159, 0, 3e159, 1e160, 0, 0, 0, -1e160]}))
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "oracle", "--tol", "1e150", str(path)],
            capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        pairs = json.loads(result.stdout, parse_constant=_strict)
        assert 0 < len(pairs) <= 2
        assert sum(abs(p["lambda"] - 1.2449e160) <= 1e-4 * 1.2449e160 for p in pairs) == 1

    def test_oracle_on_overflowing_shift_exits_3(self, tmp_path):
        # the search (dim 8) and the dim-2 solver refuse alike, and the error
        # line is all a process writes on stderr: no RuntimeWarning
        payloads = [make_cancelling_rows().to_json_dict(),
                    *({"order": 2, "dim": 2, "dense": dense} for dense in _OVERFLOW_DENSE[:2])]
        for payload in payloads:
            path = tmp_path / "big.json"
            path.write_text(json.dumps(payload))
            result = subprocess.run(
                [sys.executable, "-m", "btensor.cli", "oracle", str(path)],
                capture_output=True, text=True)
            assert result.returncode == 3, payload
            assert result.stdout == ""
            [line] = result.stderr.splitlines()
            assert json.loads(line, parse_constant=_strict) == {
                "error": "precondition",
                "detail": "the eigenvalue bound, 1 plus the largest absolute row sum, "
                          "exceeds the float range"}


def _fixture_payloads():
    rng = np.random.default_rng(43)
    inputs = [make_t43(), make_t42(), make_z32(), bt.Tensor.identity(3, 2),
              random_mixed_diag(rng, 3, 3), random_b(rng, 2, 4),
              random_hypergraph(rng, 5, 3), random_hypergraph(rng, 5, 3),
              random_b(rng, 4, 6)]  # 1296 entries: a split's C is a few long runs
    return [x.to_json_dict() for x in inputs]


class TestStrictJson:
    """Every verb either prints RFC 8259 JSON with exit 0 or prints nothing
    on stdout and exits non-zero, also when a result overflows."""

    def run_every_verb(self, capsys, tmp_path, payloads):
        for k, payload in enumerate(payloads):
            path = tmp_path / f"input{k}.json"
            path.write_text(json.dumps(payload))
            for verb in _VERBS:
                code, out, _ = run_main(capsys, verb + [str(path)])
                if code == 0:
                    json.loads(out, parse_constant=_strict)
                else:
                    assert out == "", (verb, payload)

    def test_fixtures(self, capsys, tmp_path):
        self.run_every_verb(capsys, tmp_path, _fixture_payloads())

    def test_overflow_reproducers(self, capsys, tmp_path):
        payloads = [{"order": 2, "dim": 2, "dense": dense} for dense in _OVERFLOW_DENSE]
        payloads.append(make_cancelling_rows().to_json_dict())
        # the suite turns RuntimeWarnings into errors, so no verb may warn
        self.run_every_verb(capsys, tmp_path, payloads)


def _library_report(verb, payload):
    """The report of a CLI verb form, from the library calls alone."""
    if verb[0] == "laplacian":
        graph = bt.Hypergraph.from_json_dict(payload)
        return {"tensor": bt.laplacian_tensor(graph).to_json_dict(),
                "bounds": bt.laplacian_bounds(graph).to_json_dict()}
    tensor = bt.Tensor.from_json_dict(payload)
    if verb[0] == "oracle":
        if tensor.dim == 2:
            pairs = bt.eigenpairs_n2(tensor, tol=1e-8)
        else:
            pairs = bt.eigen_search(tensor, restarts=int(verb[2]), seed=0, tol=1e-8)
        return [p.to_json_dict() for p in pairs]
    calls = {
        "classify": bt.classify,
        "decompose b": bt.decompose_b,
        "decompose doubly-b": bt.decompose_doubly_b,
        "intervals z": bt.intervals_z,
        "intervals even-sym": bt.intervals_even_symmetric,
        "intervals odd-n2": bt.intervals_odd_or_n2,
        "intervals gerschgorin": bt.intervals_gerschgorin,
        "definiteness": bt.definiteness,
    }
    return calls[" ".join(v for v in verb if v != "--method")](tensor).to_json_dict()


_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                              -1.7976931348623157e308]))
_TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t",
                                     "\u00e9\u2028\u2603", "\U0001f600\ud800"])
_SCALARS = (_FLOATS | _FLOATS.map(np.float64) | st.integers()
            | st.integers(min_value=2**64, max_value=2**400)
            | st.integers(min_value=-2**400, max_value=-2**64)
            | st.booleans() | st.none() | _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=5)
                   | st.lists(_FLOATS | _FLOATS.map(np.float64), max_size=8)),
    max_leaves=30)


_DBL_MAX = 1.7976931348623157e308
#: A list of float runs, each a value and its length.
_RUNS = st.lists(st.tuples(_FLOATS, st.integers(1, 600)), min_size=1, max_size=24)


def _from_runs(runs, size):
    """``size`` items: the runs in turn, repeated as needed, the last cut short."""
    items = []
    while len(items) < size:
        for value, count in runs:
            items += [value] * count
    return items[:size]


def _both_encoders(value):
    return (json.dumps(value, indent=2, allow_nan=False),
            json.dumps(value, cls=_ReportEncoder, indent=2, allow_nan=False))


class TestReportBytes:
    """Reports are ``json.dumps(report, indent=2, allow_nan=False)`` byte for
    byte, and repeated in-process calls behave as fresh processes."""

    def test_stdout_is_json_dumps_of_the_library_report(self, capsys, tmp_path):
        written = 0
        for k, payload in enumerate(_fixture_payloads()):
            path = tmp_path / f"input{k}.json"
            path.write_text(json.dumps(payload))
            for verb in _VERBS:
                code, out, _ = run_main(capsys, verb + [str(path)])
                if code == 0:
                    expected = json.dumps(_library_report(verb, payload), indent=2,
                                          allow_nan=False) + "\n"
                    assert out == expected, (verb, payload)
                    written += 1
        assert written >= 30

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_encoder_matches_json_dumps(self, value):
        expected, got = _both_encoders(value)
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(_VALUES, st.lists(_FLOATS, max_size=8),
           st.sampled_from([math.inf, -math.inf, math.nan]), st.data())
    def test_non_finite_floats_raise_in_both_encoders(self, value, floats, bad, data):
        floats.insert(data.draw(st.integers(0, len(floats))), bad)
        for doc in ([value, floats], {"value": value, "bad": bad}, (bad,), bad,
                    {"floats": [np.float64(x) for x in floats]}):
            for cls in (None, _ReportEncoder):
                with pytest.raises(ValueError):
                    json.dumps(doc, cls=cls, indent=2, allow_nan=False)

    @settings(max_examples=60, deadline=None)
    @given(_RUNS, st.sampled_from([1023, 1024]) | st.integers(1024, 4096))
    @example([(5e-324, 1), (0.0, 511), (-0.0, 511), (-_DBL_MAX, 1)], 1024)
    @example([(5e-324, 1), (-0.0, 510), (0.0, 511), (_DBL_MAX, 1)], 1023)
    @example([(_DBL_MAX, 1), (-0.0, 1), (0.0, 1), (-_DBL_MAX, 1)], 2048)
    @example([(1.0, 1), (2.0, 1), (1.0, 2)], 4096)
    def test_long_float_runs_match_json_dumps(self, runs, size):
        items = _from_runs(runs, size)
        for value in (items, tuple(items), {"C": {"dense": items}}):
            expected, got = _both_encoders(value)
            assert got == expected

    @pytest.mark.parametrize("prefix, scanned", [
        ([float(k) for k in range(64)], False),           # 63 changes of 63
        ([float(k // 2) for k in range(1, 65)], False),   # 32 changes
        ([float(k // 2) for k in range(64)], True),       # 31 changes
        ([0.0, -0.0] * 32, True),                         # equal under ==
    ])
    def test_long_runs_after_a_changing_prefix_match_json_dumps(
            self, monkeypatch, prefix, scanned):
        # the first 64 items decide whether the runs are looked for at all;
        # the text is json's either way
        items = prefix + [0.25] * 2000 + [-0.0] * 2000
        scans = []
        fromiter = np.fromiter
        monkeypatch.setattr(cli.np, "fromiter", lambda *a: scans.append(1) or fromiter(*a))
        expected, got = _both_encoders({"dense": items})
        assert got == expected
        assert bool(scans) == scanned

    @pytest.mark.parametrize("intruder", [7, True, False, 2**80, np.float64(0.5),
                                          np.float64(-0.0)])
    @pytest.mark.parametrize("at", [0, 700, 2047])
    def test_long_runs_with_a_non_float_match_json_dumps(self, intruder, at):
        items = [0.5] * 1024 + [-0.0] * 1024
        items[at] = intruder
        expected, got = _both_encoders({"dense": items})
        assert got == expected

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("run", [1, 300])
    def test_non_finite_floats_in_long_runs_raise_in_both_encoders(self, bad, run):
        items = [1.0] * 1000 + [bad] * run + [2.0] * 1000
        for cls in (None, _ReportEncoder):
            with pytest.raises(ValueError):
                json.dumps({"dense": items}, cls=cls, indent=2, allow_nan=False)

    def test_split_parts_hold_long_float_runs(self):
        # the fixture reports cross the run path: C holds 1296 floats in runs
        tensor = bt.Tensor.from_json_dict(_fixture_payloads()[-1])
        for split in (bt.decompose_b, bt.decompose_doubly_b):
            bits = np.array(split(tensor).to_json_dict()["C"]["dense"]).view(np.uint64)
            runs = 1 + np.count_nonzero(bits[1:] != bits[:-1])
            assert len(bits) == 1296 and 2 * runs <= len(bits)

    def test_parser_reuse_matches_fresh_processes(self, capsys, tmp_path, t43_path):
        target = tmp_path / "split.json"
        calls = [["oracle", "--seed", "5", t43_path],
                 ["decompose", "--method", "c", t43_path],
                 ["decompose", "--method", "b", "--out", str(target), t43_path],
                 ["oracle", t43_path]]
        results = []
        for argv in calls:
            code, out, err = run_main(capsys, argv)
            results.append((code, out, err, target.read_text() if target.exists() else None))
            target.unlink(missing_ok=True)
        assert [r[0] for r in results] == [0, 2, 0, 0]
        assert results[0][1] != results[3][1]
        for argv, result in zip(calls, results):
            fresh = subprocess.run([sys.executable, "-m", "btensor.cli", *argv],
                                   capture_output=True, text=True)
            written = target.read_text() if target.exists() else None
            target.unlink(missing_ok=True)
            assert (fresh.returncode, fresh.stdout, fresh.stderr, written) == result, argv
