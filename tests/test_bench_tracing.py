"""The benchmark's tracer finds the package's stage functions by name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", tracing.STAGES)
def test_stage_is_a_module_level_function(name):
    # a stage renamed or folded into another function is no longer wrapped,
    # and the per-layer metrics that read it drop to 0 without an error
    module, _, attr = name.partition(".")
    fn = getattr(importlib.import_module(f"btensor.{module}"), attr, None)
    assert tracing._ours(fn) and tracing._span_name(fn) == name
