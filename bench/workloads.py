"""The three benchmark workloads.

A workload is a fixed list of at least 100 distinct jobs, which the
benchmark runs in repeated passes, or, for a workload with a
``round_size``, once each in order, in whole rounds, until time is up.
A job is one CLI verb or one library call (``call``, the part that is
timed) plus an independent check of its output (``check``, untimed),
which raises ``CheckError`` on a wrong answer and may return outcome
counts.  Library functions are looked up on their module at call time,
so a traced pass sees the wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import reference as ref
from reference import CheckError, require

#: Default tolerance of the oracle, as the CLI applies it.
ORACLE_TOL = 1e-8


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object], dict | None]


@dataclass
class Workload:
    name: str
    jobs: list
    digest: str
    #: None: the jobs are run in repeated whole passes.  Otherwise the jobs
    #: are a stream of rounds of this many jobs, each job run at most once.
    round_size: int | None = None


class Digest:
    """SHA-256 over every generated input, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label, payload):
        self._h.update(label.encode())
        if isinstance(payload, np.ndarray):
            self._h.update(repr(payload.shape).encode())
            self._h.update(np.ascontiguousarray(payload, dtype=np.float64).tobytes())
        else:
            self._h.update(json.dumps(payload, sort_keys=True).encode())

    def hexdigest(self):
        return self._h.hexdigest()


def _parts(union):
    return [(p.lo, p.hi) for p in union.parts]


def _pairs(pairs):
    return [(p.lam, np.asarray(p.x)) for p in pairs]


class TensorFacts:
    """Everything the checks need to know about one input tensor."""

    def __init__(self, arr):
        self.arr = arr
        self.flags = ref.flags(arr)
        self.symmetric = ref.is_symmetric(arr)
        self.row_facts = ref.RowFacts(arr)
        self.tol = ref.interval_tol(self.row_facts)
        self.methods = ref.applicable_methods(arr, self.flags, self.symmetric)
        self.unions = {k: ref.intervals(arr, k, self.row_facts) for k in self.methods}

    def check_flags(self, flags):
        for name in ref.FLAG_NAMES:
            require(flags.get(name) is self.flags[name],
                    f"flag {name} is {flags.get(name)}, definition gives {self.flags[name]}")

    def check_union(self, method, parts, eigenvalues=()):
        ref.check_union(parts, self.unions[method], self.tol)
        for lam in eigenvalues:
            require(ref.contains(parts, lam), f"eigenvalue {lam} outside the {method} intervals")

    def check_pairs(self, pairs, tol=ORACLE_TOL):
        return ref.check_pairs(self.arr, pairs, tol, self.unions)


# ---------------------------------------------------------------------------
# desk-cli

DESK_FAMILY_SHAPES = [(m, n) for m in (2, 3, 4) for n in (2, 3)]
MID_SIZE = [("random_b", 4, 10), ("random_z", 3, 30), ("random_doubly_b", 5, 7),
            ("random_symmetric_b", 6, 5)]
HYPERGRAPHS = [(4, 2), (5, 3), (6, 3), (5, 4)]


class CliRunner:
    """Runs ``btensor.cli.main`` in-process with the report sent to a file."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.out = os.path.join(workdir, "report.json")

    def call(self, argv):
        argv = [argv[0], "--out", self.out] + argv[1:]

        def run():
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, err.getvalue()
        return run

    def report(self, result):
        """Strict-JSON report of a successful call, and its size in bytes."""
        code, err = result
        require(code == 0, f"exit {code}: {err.strip()[:300]}")
        with open(self.out, "rb") as handle:
            data = handle.read()
        return ref.strict_json(data.decode("utf-8")), len(data)

    def expect_error(self, code_wanted, kinds=None):
        """Check for a failed call: exit code, no report, error JSON of one of
        ``kinds`` (any kind when None) on standard error."""
        def check(result):
            code, err = result
            require(code == code_wanted, f"exit {code}, expected {code_wanted}")
            require(not os.path.exists(self.out), "a failed call wrote a report")
            lines = err.strip().splitlines()
            require(lines, "no error JSON on standard error")
            payload = ref.strict_json(lines[-1])
            require(isinstance(payload, dict) and isinstance(payload.get("detail"), str)
                    and (payload.get("error") in kinds if kinds
                         else isinstance(payload.get("error"), str)),
                    f"error JSON {lines[-1][:200]} is not a typed {kinds or ''} error")
            return {"bytes_out": 0}
        return check


def _write(workdir, label, payload, digest):
    path = os.path.join(workdir, f"{label}.json")
    text = payload if isinstance(payload, str) else json.dumps(payload)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    digest.add(label, text)
    return path


def _tensor_jobs(label, facts, path, runner):
    """Every verb whose precondition holds for this tensor, with its check."""
    arr = facts.arr
    n, m = arr.shape[0], arr.ndim
    eigenvalues = ref.dim2_eigenvalues(arr) if n == 2 else None
    jobs = []

    def check_classify(result):
        report, size = runner.report(result)
        facts.check_flags(report["flags"])
        require(set(report["witnesses"]) == {k for k, v in facts.flags.items() if not v},
                "witnesses do not match the false flags")
        return {"bytes_out": size}
    jobs.append(Job(f"classify {label}", runner.call(["classify", path]), check_classify))

    for method in facts.methods:
        def check_intervals(result, method=method):
            report, size = runner.report(result)
            parts = [(p["lo"], p["hi"]) for p in report["parts"]]
            facts.check_union(method, parts, eigenvalues or ())
            return {"bytes_out": size}
        jobs.append(Job(f"intervals {method} {label}",
                        runner.call(["intervals", "--method", method, path]), check_intervals))

    for method, flag in (("b", "B"), ("doubly-b", "doublyB")):
        if not facts.flags[flag]:
            continue

        def check_decompose(result, flag=flag):
            report, size = runner.report(result)
            constants = report["row_constants"]
            ref.check_decomposition(
                arr, np.asarray(report["B"]["dense"]).reshape(arr.shape),
                np.asarray(report["C"]["dense"]).reshape(arr.shape), report["epsilon"], flag,
                None if constants is None else np.asarray(constants))
            return {"bytes_out": size}
        jobs.append(Job(f"decompose {method} {label}",
                        runner.call(["decompose", "--method", method, path]), check_decompose))

    if m % 2 == 0 and facts.symmetric:
        verdict = ref.definiteness(arr, facts.flags)

        def check_definiteness(result):
            report, size = runner.report(result)
            require(report["verdict"] == verdict,
                    f"verdict {report['verdict']}, expected {verdict}")
            return {"bytes_out": size}
        jobs.append(Job(f"definiteness {label}", runner.call(["definiteness", path]),
                        check_definiteness))

    if n == 2:
        def check_oracle(result):
            report, size = runner.report(result)
            pairs = [(p["lambda"], np.asarray(p["x"])) for p in report]
            outcome = facts.check_pairs(pairs)
            if eigenvalues is not None:
                ref.check_complete([lam for lam, _ in pairs], eigenvalues)
            outcome["bytes_out"] = size
            outcome["oracle"] = 1
            return outcome
        jobs.append(Job(f"oracle {label}", runner.call(["oracle", path]), check_oracle))
    return jobs


def _laplacian_job(label, graph, path, runner):
    expected, bounds = ref.laplacian(graph)

    def check(result):
        report, size = runner.report(result)
        tensor = report["tensor"]
        require(tensor["order"] == graph["m"] and tensor["dim"] == graph["n"],
                "Laplacian has the wrong shape")
        require(np.array_equal(np.asarray(tensor["dense"]).reshape(expected.shape), expected),
                "Laplacian entries differ from the definition")
        require((report["bounds"]["lo"], report["bounds"]["hi"]) == bounds,
                f"Laplacian bounds {report['bounds']}, expected {bounds}")
        return {"bytes_out": size}
    return Job(f"laplacian {label}", runner.call(["laplacian", path]), check)


def desk_cli(seed, workdir, bt):
    rng = np.random.default_rng(seed)
    digest = Digest()
    runner = CliRunner(bt.cli, workdir)
    inputs = dict(gen.desk_examples())
    for family, builder in gen.FAMILIES.items():
        for m, n in DESK_FAMILY_SHAPES:
            inputs[f"{family}-{m}-{n}"] = builder(rng, m, n)
    for family, m, n in MID_SIZE:
        inputs[f"mid-{family}-{m}-{n}"] = gen.FAMILIES[family](rng, m, n)

    tensor_jobs, paths = [], {}
    for label, arr in inputs.items():
        paths[label] = _write(workdir, label, gen.dense_json(arr), digest)
        tensor_jobs.append(_tensor_jobs(label, TensorFacts(arr), paths[label], runner))

    sparse_arr = gen.random_sdd_z(rng, 3, 20)
    sparse_arr[np.abs(sparse_arr) < 0.95] = 0.0   # keeps the diagonal, about 5% of the rest
    sparse_path = _write(workdir, "sparse-3-20", gen.sparse_json(sparse_arr), digest)
    tensor_jobs.append(_tensor_jobs("sparse-3-20", TensorFacts(sparse_arr), sparse_path, runner))

    other = []
    for n, m in HYPERGRAPHS:
        graph = gen.random_hypergraph(rng, n, m)
        label = f"hypergraph-{n}-{m}"
        other.append(_laplacian_job(label, graph, _write(workdir, label, graph, digest), runner))

    bad = {
        "malformed": '{"order": 2, "dim": 2, "dense": [1, 2, 3',
        "dense-and-sparse": {"order": 2, "dim": 2, "dense": [1, 0, 0, 1], "sparse": []},
        "short-dense": {"order": 3, "dim": 2, "dense": [1.0, 2.0, 3.0]},
        "non-finite": '{"order": 2, "dim": 2, "dense": [1.0, NaN, 0.0, 1.0]}',
        "duplicate-edge": {"n": 3, "m": 2, "edges": [[1, 2], [2, 1]]},
    }
    for label, payload in bad.items():
        paths[label] = _write(workdir, label, payload, digest)
    input_error = runner.expect_error(2, ("input",))
    typed_error = runner.expect_error(3, ("class-violation", "precondition"))
    errors = [
        ("classify malformed", ["classify", paths["malformed"]], input_error),
        ("classify dense-and-sparse", ["classify", paths["dense-and-sparse"]], input_error),
        ("classify short-dense", ["classify", paths["short-dense"]], input_error),
        ("classify non-finite", ["classify", paths["non-finite"]], input_error),
        ("laplacian duplicate-edge", ["laplacian", paths["duplicate-edge"]], input_error),
        ("decompose missing --method", ["decompose", paths["T43"]], input_error),
        ("decompose b T42", ["decompose", "--method", "b", paths["T42"]], typed_error),
        ("intervals even-sym Z32", ["intervals", "--method", "even-sym", paths["Z32"]],
         typed_error),
        ("intervals z T43", ["intervals", "--method", "z", paths["T43"]], typed_error),
        ("definiteness Z32", ["definiteness", paths["Z32"]], typed_error),
    ]
    for label, argv, check in errors:
        digest.add(label, argv[:-1])
        other.append(Job(label, runner.call(argv), check))

    jobs = [job for jobs in tensor_jobs for job in jobs] + other
    return Workload("desk-cli", jobs, digest.hexdigest())


def overflow_probe(workdir, bt):
    """ROADMAP item 4's reproducer through ``classify`` and ``intervals``.

    Kept out of the job count: a correct answer is a finite strict-JSON
    report with the flags the definitions give, or a typed error (exit 3).
    Returns {probe label: failure reason or None}.
    """
    runner = CliRunner(bt.cli, workdir)
    path = _write(workdir, "overflow", gen.OVERFLOW_REPRODUCER, Digest())
    arr = np.asarray(gen.OVERFLOW_REPRODUCER["dense"]).reshape(2, 2)
    expected = ref.flags(arr)
    typed_error = runner.expect_error(3)

    def check_classify(result):
        if result[0] != 0:
            return typed_error(result)
        report, _ = runner.report(result)
        for name in ref.FLAG_NAMES:
            require(report["flags"][name] is expected[name], f"flag {name} is wrong")

    def check_intervals(result):
        if result[0] != 0:
            return typed_error(result)
        runner.report(result)

    outcome = {}
    for label, argv, check in [
            ("classify", ["classify", path], check_classify),
            ("intervals gerschgorin", ["intervals", "--method", "gerschgorin", path],
             check_intervals)]:
        try:
            check(runner.call(argv)())
            outcome[label] = None
        except CheckError as exc:
            outcome[label] = str(exc)
        except Exception as exc:  # an uncaught library error is a failed probe too
            outcome[label] = f"raised {type(exc).__name__}: {exc}"
    return outcome


# ---------------------------------------------------------------------------
# dense-large

DENSE_SHAPES = [(3, 100), (4, 30), (6, 8)]
#: Independent draws of every tensor, so that one pass holds over 100 distinct jobs.
DENSE_VARIANTS = 4


def dense_large(seed, workdir, bt):
    rng = np.random.default_rng(seed)
    digest = Digest()
    jobs = []

    def tensor(label, arr):
        digest.add(label, arr)
        facts = TensorFacts(arr)
        A = bt.Tensor.from_array(arr)
        facts.arr = A.array       # drop the generator's copy
        return A, facts

    def classify_job(label, A, facts):
        return Job(f"classify {label}", lambda: bt.classify(A),
                   lambda report: facts.check_flags(report.flags))

    def interval_job(fn, method, label, A, facts):
        return Job(f"{fn} {label}", lambda: getattr(bt, fn)(A),
                   lambda union: facts.check_union(method, _parts(union)))

    def check_a_plus(out, A, facts):
        shifted = out.array.reshape(A.dim, -1)
        rows = A.array.reshape(A.dim, -1)
        for i in range(A.dim):
            require(np.array_equal(shifted[i], rows[i] - facts.row_facts.r_plus[i]),
                    f"row {i + 1} of a_plus differs from A - r_plus")

    def check_dec(dec, A, kind):
        ref.check_decomposition(A.array, dec.part_b.array, dec.part_c.array,
                                dec.epsilon, kind, dec.row_constants)

    for v in range(DENSE_VARIANTS):
        for m, n in DENSE_SHAPES:
            z_label, b_label, d_label = (f"{k}-{m}-{n}-v{v}" for k in ("Z", "B", "doublyB"))
            Z, zf = tensor(z_label, gen.random_z(rng, m, n))
            B, bf = tensor(b_label, gen.random_b(rng, m, n))
            D, df = tensor(d_label, gen.random_doubly_b(rng, m, n))
            jobs += [classify_job(z_label, Z, zf), classify_job(b_label, B, bf),
                     classify_job(d_label, D, df),
                     Job(f"a_plus {z_label}", lambda A=Z: bt.a_plus(A),
                         lambda out, A=Z, facts=zf: check_a_plus(out, A, facts)),
                     interval_job("intervals_gerschgorin", "gerschgorin", z_label, Z, zf),
                     interval_job("intervals_z", "z", z_label, Z, zf)]
            if m % 2 == 1:
                jobs.append(interval_job("intervals_odd_or_n2", "odd-n2", z_label, Z, zf))
            jobs += [Job(f"decompose_b {b_label}", lambda A=B: bt.decompose_b(A),
                         lambda dec, A=B: check_dec(dec, A, "B")),
                     Job(f"decompose_doubly_b {d_label}", lambda A=D: bt.decompose_doubly_b(A),
                         lambda dec, A=D: check_dec(dec, A, "doublyB"))]

        s_label = f"symmetricB-6-8-v{v}"
        S, sf = tensor(s_label, gen.random_symmetric_b(rng, 6, 8))
        verdict = ref.definiteness(sf.arr, sf.flags)

        def check_verdict(out, verdict=verdict):
            require(out.verdict == verdict, f"verdict {out.verdict}, expected {verdict}")
        jobs += [classify_job(s_label, S, sf),
                 Job(f"definiteness {s_label}", lambda S=S: bt.definiteness(S), check_verdict),
                 interval_job("intervals_even_symmetric", "even-sym", s_label, S, sf)]
    return Workload("dense-large", jobs, digest.hexdigest())


# ---------------------------------------------------------------------------
# oracle-search

ORACLE_FAMILIES = ("random_z", "random_symmetric", "random_b", "random_mixed_diag")
ORACLE_SHAPES = [(3, 3), (3, 6), (4, 3), (4, 6)]
#: Rounds of the 16 cells generated per seed: 1024 searches, more than a
#: 60-second run reaches.  A run takes whole rounds in order, each search once,
#: so its latency percentiles rest on a few hundred distinct tensors.
ORACLE_ROUNDS = 64
ORACLE_RESTARTS = 64


def oracle_search(seed, workdir, bt):
    rng = np.random.default_rng(seed)
    digest = Digest()
    jobs = []
    for r in range(ORACLE_ROUNDS):
        for m, n in ORACLE_SHAPES:
            for family in ORACLE_FAMILIES:
                arr = gen.FAMILIES[family](rng, m, n)
                search_seed = int(rng.integers(2**31))
                label = f"{family}-{m}-{n}-r{r}"
                digest.add(label, arr)
                digest.add(label + "-seed", search_seed)
                A = bt.Tensor.from_array(arr)

                def check(pairs, A=A):
                    outcome = TensorFacts(A.array).check_pairs(_pairs(pairs))
                    outcome["oracle"] = 1
                    return outcome
                jobs.append(Job(
                    f"eigen_search {label}",
                    lambda A=A, s=search_seed: bt.eigen_search(
                        A, restarts=ORACLE_RESTARTS, seed=s, tol=ORACLE_TOL),
                    check))
    return Workload("oracle-search", jobs, digest.hexdigest(),
                    round_size=len(ORACLE_SHAPES) * len(ORACLE_FAMILIES))


BUILDERS = {"desk-cli": desk_cli, "dense-large": dense_large, "oracle-search": oracle_search}
