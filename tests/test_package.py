"""The package namespace."""

import importlib
import importlib.util
import re
from pathlib import Path

import cpsmap

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_exported_name_resolves():
    missing = [name for name in cpsmap.__all__ if not hasattr(cpsmap, name)]
    assert missing == []


def test_perfbench_traced_names_exist():
    # perfbench times a layer by replacing a module-level function; a rename
    # or deletion here would otherwise break its --trace 1 runs without a
    # test failing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.WRAPPED and missing == []


def test_readme_library_example_runs_as_written():
    # the README's python block is executed verbatim, so a renamed or
    # removed name breaks this test before it breaks a reader
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["res"].estimates.shape == (21,)
    assert [r.estimates.shape for r in (namespace["p11"], namespace["p12"], namespace["coh"])] == [(21,)] * 3
