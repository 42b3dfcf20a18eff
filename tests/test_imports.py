"""The package namespace resolves on first access, and a cold CLI call
imports only the layer modules its verb runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import btensor as bt

_ROOT = Path(__file__).resolve().parents[1]

#: The btensor modules each verb of ``python -m btensor.cli`` imports; the
#: cli itself runs as ``__main__``.
_VERB_MODULES = {
    "classify": {"classes"},
    "decompose": {"classes", "decompose"},
    "intervals": {"classes", "eigenloc"},
    "laplacian": {"classes", "eigenloc"},
    "definiteness": {"classes", "eigenloc"},
    "oracle": {"oracle"},
}
_VERB_ARGS = {"decompose": ["--method", "b"], "intervals": ["--method", "gerschgorin"]}


def _probe(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    return json.loads(result.stdout)


#: Put on PYTHONPATH, reports the btensor modules a process has loaded
#: when it exits.
_SITECUSTOMIZE = """\
import atexit, sys
atexit.register(lambda: sys.stderr.write(" ".join(
    sorted(m for m in sys.modules if m.partition(".")[0] == "btensor"))))
"""


def test_import_loads_no_layer_module():
    # nor numpy and dataclasses, which core is the first to import
    loaded = _probe("import sys, json, btensor; "
                    "print(json.dumps(sorted(m for m in sys.modules if 'btensor' in m "
                    "or m.partition('.')[0] in ('numpy', 'dataclasses'))))")
    assert loaded == ["btensor"]


@pytest.mark.parametrize("verb", list(_VERB_MODULES))
def test_cold_verb_imports_only_its_modules(tmp_path, verb):
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(bt.Tensor.identity(4, 2).to_json_dict()))
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps({"n": 3, "m": 3, "edges": [[1, 2, 3]]}))
    (tmp_path / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    path = os.pathsep.join(filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "btensor.cli", verb, *_VERB_ARGS.get(verb, []),
         "--out", str(tmp_path / "report.json"), str(graph if verb == "laplacian" else tensor)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    want = {"btensor", "btensor.core", "btensor.errors"}
    assert set(result.stderr.split()) == want | {f"btensor.{m}" for m in _VERB_MODULES[verb]}


def test_every_name_is_the_defining_modules_object():
    for name in bt.__all__:
        module = importlib.import_module(f"btensor.{bt._MODULE_OF[name]}")
        value = getattr(bt, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__
    assert bt.DEFAULT_ENTRY_CAP is importlib.import_module("btensor.core").DEFAULT_ENTRY_CAP


def test_star_import_and_dir_list_every_name():
    unbound, undirected, all_names = _probe(
        "import json, btensor\n"
        "from btensor import *\n"
        "print(json.dumps([[n for n in btensor.__all__ if n not in globals()],\n"
        "                  sorted(set(btensor.__all__) - set(dir(btensor))),\n"
        "                  btensor.__all__]))")
    assert unbound == [] and undirected == []
    assert all_names == sorted(bt.__all__) == bt.__all__


def test_layer_modules_resolve_as_attributes():
    assert _probe("import json, btensor\n"
                  "print(json.dumps([btensor.core.__name__, btensor.oracle.__name__]))"
                  ) == ["btensor.core", "btensor.oracle"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'btensor' has no attribute 'nope'$"):
        bt.nope
    assert not hasattr(bt, "nope") and "nope" not in dir(bt)
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from btensor import nope  # noqa: F401


def test_tracer_still_covers_its_expected_spans():
    # the benchmark imports btensor and btensor.cli, then wraps bindings in
    # place; a name first resolved after that must reach the wrapper
    probe = f"""
import json, sys
sys.path[:0] = [{str(_ROOT / "src")!r}, {str(_ROOT / "bench")!r}]
import btensor
import btensor.cli
import tracing

tracer = tracing.Tracer()
wrapped = tracing.install(tracer)
A = btensor.Tensor.identity(4, 2)
btensor.classify(A)
btensor.cli._INTERVAL_METHODS["gerschgorin"](A)
print(json.dumps([sorted(set(tracing.EXPECTED) - set(wrapped)),
                  sorted({{span[1] for span in tracer.spans}})]))
"""
    missing, spans = _probe(probe)
    # the three row sweeps that row_stats replaced; tracing.FULL_PASS still lists them
    assert missing == ["core.abs_gap_sums", "core.lower_excesses", "core.upper_deficits"]
    assert {"classes.classify", "eigenloc.intervals_gerschgorin"} <= set(spans)
