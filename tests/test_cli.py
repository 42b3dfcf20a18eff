"""Command-line interface: dispatch, JSON reports, exit codes."""

import json
import subprocess
import sys

import pytest

import btensor as bt
from btensor.cli import main
from cases import make_t42, make_t43


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


class TestNearOverflow:
    @pytest.mark.parametrize("method, dense", [
        ("odd-n2", [1e308, 1e308, -1e308, 1e308]),
        ("even-sym", [1e308, 1e308, 1e308, 1e308]),
    ])
    def test_intervals_keep_their_finite_lower_end(self, tmp_path, method, dense):
        # the row sums overflow, but L = diag - r_plus - deficit is 0 in both
        # rows; only the upper end U exceeds DBL_MAX
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "dense": dense}))
        result = subprocess.run(
            [sys.executable, "-m", "btensor.cli", "intervals", "--method", method,
             str(path)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"parts": [{"lo": 0.0, "hi": float("inf")}]}
