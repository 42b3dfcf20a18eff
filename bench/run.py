"""Benchmark of btensor: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload desk-cli --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --seconds 32       # every workload, each in a fresh process

Workloads (see BENCHMARK.json for why each exists):

* ``desk-cli``: every CLI verb in-process on desk-size JSON files;
* ``dense-large``: library calls on prebuilt tensors of 0.26 to 1 million entries;
* ``oracle-search``: ``eigen_search`` on a seeded stream of small tensors.

Each workload is a closed loop with one client: one process, one thread,
BLAS pinned to one thread.  A job is one verb or library call; the next
starts when the previous one and its independent check have finished.
``desk-cli`` and ``dense-large`` are fixed lists of at least 100 distinct
jobs, run in whole passes until ``--seconds`` have passed and at least
three passes are done.  ``oracle-search`` is a stream of rounds, one
search per family and shape in each; it runs whole rounds, each search
once, until ``--seconds`` have passed and at least 100 searches are done.
One search takes 15 to 1000 ms, so percentiles over a few hundred
distinct tensors depend far less on the seed than best-of-three over a
hundred.  Inputs depend only on ``--seed``.

A job's latency is the best of its executions.  The host this was built on
(2 shared CPUs) runs the same code up to 1.7 times slower for minutes at
a time; its fastest repeats are far steadier than its medians, and any
slowdown of the code itself shows in every repeat.  ``job_ms_p50`` and
``job_ms_p90`` are percentiles of the best latencies over the distinct
jobs, and ``jobs_per_s`` is the number of distinct jobs that passed
every check divided by the sum of the best latencies.  The record file
keeps the plain statistics over every execution too.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same passes untraced and then traced, with wrappers around the calls
into each layer, and reports per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
(environment, input digest, failures) goes to ``bench/out/``.
"""

import os

# One client on one thread: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_JOBS = 100          # distinct jobs, so that p90 has at least 10 beyond it
MIN_PASSES = 3
SETUP_REPEATS = 11
MAX_FAILURES_KEPT = 20

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms",
                    "job_ms_p90": "ms", "peak_rss_mb": "MB"}


def load_package():
    """Import btensor from this checkout's ``src`` and nowhere else."""
    init = SRC / "btensor" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench/run.py: no package source at {init.relative_to(ROOT)}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import btensor
    import btensor.cli  # noqa: F401  (binds btensor.cli)

    if Path(btensor.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench/run.py: imported btensor from {btensor.__file__}, not {init}")
    return btensor


# ---------------------------------------------------------------------------
# environment

def _blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_thread_pin": {var: os.environ.get(var) for var in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_use": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_caches": _cache_sizes(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measuring

class Setup:
    """Wall time of a fresh interpreter answering one desk classify.

    The first call, which fills the bytecode cache, is not kept.  The kept
    calls are spread over the measured run, between jobs, so that their
    median reflects the whole run and not the host's state in one moment.
    """

    def __init__(self, workdir):
        arr = gen.t43()
        path = workdir / "setup-T43.json"
        self.out = workdir / "setup-report.json"
        path.write_text(json.dumps(gen.dense_json(arr)))
        self.expected = ref.flags(arr)
        self.cmd = [sys.executable, "-m", "btensor.cli", "classify", "--out", str(self.out),
                    str(path)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times = []
        self._call()

    def _call(self):
        start = perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"bench/run.py: setup classify exited {proc.returncode}: "
                             f"{proc.stderr.strip()[:500]}")
        flags = ref.strict_json(self.out.read_text())["flags"]
        if flags != self.expected:
            raise SystemExit(f"bench/run.py: setup classify gave {flags}, "
                             f"expected {self.expected}")
        return elapsed

    def sample(self):
        self.times.append(self._call())

    @property
    def median(self):
        return statistics.median(self.times)


@dataclass
class Pass:
    best: np.ndarray                # per distinct job: best latency in seconds (inf: not run)
    ok: np.ndarray                  # per distinct job: passed every check
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)   # every execution, seconds
    wall: float = 0.0
    units: int = 0                  # passes, or rounds of a stream workload
    outcome: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.attempted - self.failed

    @property
    def ran(self):
        """Mask of the distinct jobs that ran at least once."""
        return np.isfinite(self.best)

    @property
    def jobs_per_s(self):
        ran = self.ran
        return float(self.ok[ran].sum() / self.best[ran].sum())

    def fail(self, i, job, reason):
        self.failed += 1
        self.ok[i] = False
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append({"job": job.label, "reason": reason})


def measure(workload, seconds, tracer=None, units=None, setup=None):
    """Run whole units for ``seconds``, or exactly ``units`` of them.

    A unit is a pass over every job (at least MIN_PASSES of them), or, for
    a stream workload, one round of its jobs (at least MIN_JOBS jobs in
    all, and never past the end of the stream).  With ``setup``, takes
    SETUP_REPEATS setup samples at even times between jobs.
    """
    jobs = workload.jobs
    size = workload.round_size or len(jobs)
    minimum = -(-MIN_JOBS // size) if workload.round_size else MIN_PASSES
    run = Pass(best=np.full(len(jobs), np.inf), ok=np.ones(len(jobs), dtype=bool))
    start = perf_counter()
    while True:
        first = run.units * size % len(jobs)
        for i, job in enumerate(jobs[first:first + size], start=first):
            if tracer is not None:
                tracer.job = run.attempted
            if (setup is not None and len(setup.times) < SETUP_REPEATS
                    and perf_counter() - start >= len(setup.times) * seconds / SETUP_REPEATS):
                setup.sample()
            run.attempted += 1
            t0 = perf_counter()
            try:
                result = job.call()
                error = None
            except Exception as exc:  # a crashing job is a failed job; the run goes on
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            run.latencies.append(elapsed)
            run.best[i] = min(run.best[i], elapsed)
            if error is not None:
                run.fail(i, job, error)
                continue
            try:
                info = job.check(result) or {}
            except ref.CheckError as exc:
                run.fail(i, job, str(exc))
                continue
            except Exception as exc:  # a check that cannot read the output fails the job
                run.fail(i, job, f"check raised {type(exc).__name__}: {exc}")
                continue
            run.outcome.update({
                "oracle_jobs": info.get("oracle", 0), "returned": info.get("returned", 0),
                "distinct": info.get("distinct", 0), "violations": info.get("violation", 0),
                "bytes_out": info.get("bytes_out", 0)})
        run.units += 1
        if units is not None:
            if run.units >= units:
                break
        elif perf_counter() - start >= seconds and run.units >= minimum:
            break
        if workload.round_size and (run.units + 1) * size > len(jobs):
            break
    run.wall = perf_counter() - start - (sum(setup.times) if setup is not None else 0.0)
    while setup is not None and len(setup.times) < SETUP_REPEATS:
        setup.sample()
    return run


def end_to_end(run, setup_s):
    best_ms = 1000.0 * run.best[run.ran]
    values = {
        "setup_s": setup_s,
        "jobs_per_s": run.jobs_per_s,
        "job_ms_p50": float(np.percentile(best_ms, 50)),
        "job_ms_p90": float(np.percentile(best_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def plain_statistics(run):
    """Statistics over every execution, for comparison with the best-of figures."""
    lat_ms = 1000.0 * np.asarray(run.latencies)
    return {"executions": len(run.latencies), "units": run.units, "wall_s": run.wall,
            "passed_per_wall_s": run.passed / run.wall,
            "ms_p50": float(np.percentile(lat_ms, 50)),
            "ms_p90": float(np.percentile(lat_ms, 90))}


def oracle_summary(run):
    o = run.outcome
    searches = o["oracle_jobs"]
    return {"searches": searches, "pairs_returned": o["returned"], "distinct_pairs": o["distinct"],
            "distinct_pairs_per_search": o["distinct"] / searches if searches else 0.0,
            "bound_violations": o["violations"]}


# ---------------------------------------------------------------------------
# one workload

def run_workload(name, seed, seconds, traced):
    bt = load_package()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
              "environment": environment()}
    try:
        workload = workloads.BUILDERS[name](seed, str(workdir), bt)
        if len(workload.jobs) < MIN_JOBS:
            raise SystemExit(f"bench/run.py: {name} has {len(workload.jobs)} distinct jobs, "
                             f"fewer than {MIN_JOBS}")
        record["inputs_sha256"] = workload.digest
        record["distinct_jobs"] = len(workload.jobs)
        probe = workloads.overflow_probe(str(workdir), bt)
        record["overflow_probe"] = probe
        if traced:
            base = measure(workload, seconds)
            tracer = tracing.Tracer()
            record["trace_wrapped"] = tracing.install(tracer)
            record["trace_missing"] = sorted(set(tracing.EXPECTED) - set(tracer.wrapped))
            run = measure(workload, seconds, tracer=tracer, units=base.units)
            metrics, missing = tracing.layer_metrics(tracer, run.attempted, run.outcome)
            record["metrics_missing"] = missing
            metrics["cli.overflow_probe_failed"] = {
                "value": float(sum(v is not None for v in probe.values())), "unit": "count"}
            metrics["trace.overhead_ratio"] = {
                "value": run.jobs_per_s / base.jobs_per_s, "unit": "ratio"}
            tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
            passes = [base, run]
        else:
            setup = Setup(workdir)
            run = measure(workload, seconds, setup=setup)
            record["setup_times_s"] = setup.times
            metrics = end_to_end(run, setup.median)
            passes = [run]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update({
        "distinct_jobs_run": int(run.ran.sum()),
        "plain": plain_statistics(run), "fail_ratio": failed / attempted,
        "oracle": oracle_summary(run), "failures": [f for p in passes for f in p.failures],
        "metrics": metrics})
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=2))

    unit = "rounds" if workload.round_size else "passes"
    print(f"{name} seed {seed}: {int(run.ran.sum())} distinct jobs, {run.units} {unit}, "
          f"{run.wall:.2f} s, {failed} of {attempted} failed (fail_ratio {failed / attempted:.4g})")
    for metric, item in metrics.items():
        print(f"  {metric:32s} {item['value']:.6g} {item['unit']}")
    if not traced:
        distinct = int(run.ran.sum())
        print(f"  latency samples {distinct} (best of {len(run.latencies) // distinct}); "
              f"setup runs {len(setup.times)}")
    print(f"  every execution: {json.dumps(plain_statistics(run))}")
    if run.outcome["oracle_jobs"]:
        print(f"  oracle: {json.dumps(oracle_summary(run))}")
    for label, reason in probe.items():
        print(f"  overflow probe {label}: {'ok' if reason is None else 'FAILED: ' + reason}")
    for failure in record["failures"]:
        print(f"  FAILED {failure['job']}: {failure['reason']}")
    if traced and (record["trace_missing"] or missing):
        print(f"  missing trace names {record['trace_missing']}, metrics {missing}")
    print(f"  inputs sha256 {workload.digest}")
    print("env " + json.dumps(record["environment"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload, each in its own fresh interpreter; prints a summary table."""
    results = {}
    status = 0
    for name in workloads.BUILDERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'workload':14s} {'metric':32s} {'value':>12s} unit")
    for name, result in results.items():
        for metric, item in result["metrics"].items():
            print(f"{name:14s} {metric:32s} {item['value']:12.6g} {item['unit']}")
        print(f"{name:14s} {'correct':32s} {str(result['correct']):>12s} "
              f"({result['failed']} of {result['attempted']} failed)")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.BUILDERS),
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
