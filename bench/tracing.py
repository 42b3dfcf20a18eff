"""Span tracing of the package's layers from outside the package.

:func:`install` replaces every public module-level function binding of
the six layer modules (and of the package namespace) with a recording
wrapper, including the copies one module imports from another, plus a
few private stage functions, ``Tensor.__init__`` and the JSON codec
methods.  Each call records a span (id, name, start, end, parent, job);
a span's self time is its duration minus that of its child spans.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "classes", "decompose", "eigenloc", "oracle", "cli")

#: Private functions that mark a pipeline stage of their layer.
STAGES = ("decompose._verify", "oracle._batched_fixed_point", "oracle._dedupe_sort",
          "cli._load_json", "cli._run")

#: Calls that make a full pass over the n**m entries of their tensor.
FULL_PASS = ("core.row_stats", "core.upper_deficits", "core.lower_excesses",
             "core.abs_gap_sums", "core.is_symmetric", "core.Tensor.__init__")

PREDICATES = ("classes.is_z", "classes.is_b", "classes.is_b0", "classes.is_doubly_b",
              "classes.is_sdd", "classes.is_sddd", "classes.check_f_b",
              "classes.check_f_doubly_b")
INTERVALS = ("eigenloc.intervals_z", "eigenloc.intervals_even_symmetric",
             "eigenloc.intervals_odd_or_n2", "eigenloc.intervals_gerschgorin")
DECOMPOSE = ("decompose.decompose_b", "decompose.decompose_doubly_b")
PARSE = ("cli._load_json", "core.Tensor.from_json_dict", "eigenloc.Hypergraph.from_json_dict")
JSON_CODEC = ("core.Tensor.from_json_dict", "core.Tensor.to_json_dict")
DUMPS = "cli.json.dumps"


def _entries(name, args):
    """n**m of the tensor a full-pass call works on, or 0 if unknown."""
    try:
        if name == "core.Tensor.__init__":
            return int(args[2]) ** int(args[1])
        return args[0].dim ** args[0].order
    except (AttributeError, IndexError, TypeError, ValueError):
        return 0


class Tracer:
    def __init__(self):
        self.spans = []      # (id, name, start, end, parent, job, self_seconds, entries)
        self.wrapped = []    # span names with at least one installed wrapper
        self.job = -1
        self._stack = []     # [span id, seconds spent in children]
        self._next_id = 0
        self._wrappers = {}

    def wrap(self, name, fn):
        key = (name, fn)
        if key in self._wrappers:
            return self._wrappers[key]
        tracer = self
        counts_entries = name in FULL_PASS

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((span_id, name, start, end, parent, tracer.job,
                                     end - start - frame[1],
                                     _entries(name, args) if counts_entries else 0))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        self._wrappers[key] = wrapper
        if name not in self.wrapped:
            self.wrapped.append(name)
        return wrapper

    def dump(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "job"],
                       "names": names,
                       "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]]
                                 for s in self.spans]}, handle)

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, entries.

        Inclusive time counts only spans with no ancestor of the same
        name; all ``to_json_dict`` methods count as one name, so a report
        serializing its tensors is not counted twice.
        """
        out = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "entries": 0})
        by_id = {s[0]: s for s in self.spans}
        for span_id, name, start, end, parent, _, self_s, entries in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self"] += self_s
            row["entries"] += entries
            if not _has_ancestor(by_id, parent, name):
                row["incl"] += end - start
        return out


def _has_ancestor(by_id, parent, name):
    while parent != -1:
        span = by_id[parent]
        if span[1] == name or (name.endswith(".to_json_dict") and span[1].endswith(".to_json_dict")):
            return True
        parent = span[4]
    return False


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _ours(fn):
    return (isinstance(fn, types.FunctionType) and fn.__module__.startswith("btensor.")
            and not inspect.isgeneratorfunction(fn))


def _wanted(fn, binding):
    name = _span_name(fn)
    return not binding.startswith("_") or name in STAGES


def install(tracer, package="btensor"):
    """Wrap the layer functions in place.  Returns the span names wrapped."""
    import json as json_module

    modules = [importlib.import_module(package)]
    for layer in LAYERS:
        try:
            modules.append(importlib.import_module(f"{package}.{layer}"))
        except ImportError:
            continue
    for module in modules:
        for binding, value in list(vars(module).items()):
            if _ours(value) and _wanted(value, binding):
                setattr(module, binding, tracer.wrap(_span_name(value), value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if _ours(item) and _wanted(item, item.__name__):
                        value[key] = tracer.wrap(_span_name(item), item)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                _wrap_methods(tracer, value)
    cli = next((m for m in modules if m.__name__ == f"{package}.cli"), None)
    if cli is not None and getattr(cli, "json", None) is json_module:
        proxy = types.SimpleNamespace(**{k: getattr(json_module, k)
                                         for k in dir(json_module) if not k.startswith("__")})
        proxy.dumps = tracer.wrap(DUMPS, json_module.dumps)
        cli.json = proxy
    return list(tracer.wrapped)


def _wrap_methods(tracer, cls):
    for attr in ("__init__", "from_json_dict", "to_json_dict"):
        raw = cls.__dict__.get(attr)
        if attr == "__init__" and cls.__name__ != "Tensor":
            continue
        if isinstance(raw, classmethod):
            fn = raw.__func__
            setattr(cls, attr, classmethod(tracer.wrap(_span_name(fn), fn)))
        elif isinstance(raw, types.FunctionType):
            setattr(cls, attr, tracer.wrap(_span_name(raw), raw))


# ---------------------------------------------------------------------------
# per-layer metrics

def _sum(totals, names, field):
    return sum(totals[n][field] for n in names if n in totals)


def layer_metrics(tracer, jobs, outcome):
    """Per-layer metrics of one traced pass, normalized per job.

    ``outcome`` carries counts the benchmark measured from outside:
    oracle jobs, pairs returned, distinct pairs, bound violations, CLI
    jobs and output bytes.  Returns (metrics, missing metric names).
    """
    t = tracer.totals()
    wrapped = set(tracer.wrapped)
    per_job = 1.0 / max(jobs, 1)
    ms = 1000.0 * per_job
    searches = outcome["oracle_jobs"]
    cli_main = _sum(t, ["cli.main"], "incl")
    to_json = sum(row["incl"] for name, row in t.items() if name.endswith(".to_json_dict"))
    parse = _sum(t, PARSE, "incl")
    serialize = to_json + _sum(t, [DUMPS], "incl")
    compute = _sum(t, ["cli._run"], "incl") - parse - to_json
    decompose_incl = _sum(t, DECOMPOSE, "incl")

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    table = [
        ("core.tensor_init.calls", "count/job", ["core.Tensor.__init__"],
         _sum(t, ["core.Tensor.__init__"], "calls") * per_job),
        ("core.tensor_init.self_ms", "ms/job", ["core.Tensor.__init__"],
         _sum(t, ["core.Tensor.__init__"], "self") * ms),
        ("core.row_stats.calls", "count/job", ["core.row_stats"],
         _sum(t, ["core.row_stats"], "calls") * per_job),
        ("core.row_stats.self_ms", "ms/job", ["core.row_stats"],
         _sum(t, ["core.row_stats"], "self") * ms),
        ("core.full_pass.entries", "entries/job", FULL_PASS,
         _sum(t, FULL_PASS, "entries") * per_job),
        ("core.is_symmetric.self_ms", "ms/job", ["core.is_symmetric"],
         _sum(t, ["core.is_symmetric"], "self") * ms),
        ("core.contract.calls", "count/job", ["core.contract"],
         _sum(t, ["core.contract"], "calls") * per_job),
        ("core.json_codec.self_ms", "ms/job", JSON_CODEC, _sum(t, JSON_CODEC, "self") * ms),
        ("classes.classify.self_ms", "ms/job", ["classes.classify"],
         _sum(t, ["classes.classify"], "self") * ms),
        ("classes.predicates.self_ms", "ms/job", PREDICATES, _sum(t, PREDICATES, "self") * ms),
        ("classes.a_plus.self_ms", "ms/job", ["classes.a_plus"],
         _sum(t, ["classes.a_plus"], "self") * ms),
        ("decompose.construct.self_ms", "ms/job", DECOMPOSE, _sum(t, DECOMPOSE, "self") * ms),
        ("decompose.verify.ms", "ms/job", ["decompose._verify"],
         _sum(t, ["decompose._verify"], "incl") * ms),
        ("decompose.verify_share", "ratio", ["decompose._verify"],
         ratio(_sum(t, ["decompose._verify"], "incl"), decompose_incl)),
        ("eigenloc.intervals.self_ms", "ms/job", INTERVALS, _sum(t, INTERVALS, "self") * ms),
        ("eigenloc.definiteness.self_ms", "ms/job", ["eigenloc.definiteness"],
         _sum(t, ["eigenloc.definiteness"], "self") * ms),
        ("eigenloc.laplacian.self_ms", "ms/job",
         ["eigenloc.laplacian_tensor", "eigenloc.laplacian_bounds"],
         _sum(t, ["eigenloc.laplacian_tensor", "eigenloc.laplacian_bounds"], "self") * ms),
        ("oracle.fixed_point.ms", "ms/job", ["oracle._batched_fixed_point"],
         _sum(t, ["oracle._batched_fixed_point"], "incl") * ms),
        ("oracle.dedupe.ms", "ms/job", ["oracle._dedupe_sort"],
         _sum(t, ["oracle._dedupe_sort"], "incl") * ms),
        ("oracle.residual.calls", "count/job", ["oracle.residual"],
         _sum(t, ["oracle.residual"], "calls") * per_job),
        ("oracle.residual.self_ms", "ms/job", ["oracle.residual"],
         _sum(t, ["oracle.residual"], "self") * ms),
        ("oracle.n2.self_ms", "ms/job", ["oracle.eigenpairs_n2"],
         _sum(t, ["oracle.eigenpairs_n2"], "self") * ms),
        ("oracle.pairs_returned", "pairs/search", [],
         ratio(outcome["returned"], searches)),
        ("oracle.distinct_pairs", "pairs/search", [], ratio(outcome["distinct"], searches)),
        ("oracle.distinct_ratio", "ratio", [], ratio(outcome["distinct"], outcome["returned"])),
        ("oracle.bound_violations", "share", [], ratio(outcome["violations"], searches)),
        ("cli.parse.ms", "ms/job", ["cli._load_json"], parse * ms),
        ("cli.serialize.ms", "ms/job", [DUMPS], serialize * ms),
        ("cli.bytes_out", "bytes/job", [], outcome["bytes_out"] * per_job),
        ("cli.compute_share", "ratio", ["cli._run", "cli.main"], ratio(compute, cli_main)),
    ]
    metrics = {}
    missing = []
    for name, unit, needs, value in table:
        if needs and not any(n in wrapped for n in needs):
            missing.append(name)
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics, missing


#: Every span name the per-layer metrics read.
EXPECTED = sorted(set(FULL_PASS + PREDICATES + INTERVALS + DECOMPOSE + PARSE + JSON_CODEC + STAGES
                      + ("classes.classify", "classes.a_plus", "core.contract",
                         "eigenloc.definiteness", "eigenloc.laplacian_tensor",
                         "eigenloc.laplacian_bounds", "oracle.residual",
                         "oracle.eigenpairs_n2", "oracle.eigen_search", "cli.main", DUMPS)))
