"""The package namespace."""

import importlib
import importlib.util
from pathlib import Path

import cpsmap

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_exported_name_resolves():
    missing = [name for name in cpsmap.__all__ if not hasattr(cpsmap, name)]
    assert missing == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench times a layer by replacing a module-level name; a rename
    # here would otherwise break its --trace 1 runs without a test failing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert spans.WRAPPED and missing == []
