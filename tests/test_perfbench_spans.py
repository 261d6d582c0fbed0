"""The benchmark's traced mode (perfbench/run.py --trace 1) wraps the
package's functions by name; a binding that the package drops or renames
makes it fail.  This checks every binding it lists against the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves():
    boundaries = load_spans().BOUNDARIES
    assert boundaries
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in boundaries
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
