"""The benchmark tracer's layer table still names real functions.

``perfbench/tracer.py`` wraps each function in ``LAYERS`` by name in the
listed namespaces and reports a layer whose name no namespace holds as
absent, so a rename in ``src/`` would silently blank that layer's metrics.
The tracer is loaded from its file, unchanged and without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("name, namespaces", [(n, ns) for n, ns, _ in LAYERS],
                         ids=[n for n, _, _ in LAYERS])
def test_layer_resolves_to_a_callable(name, namespaces):
    attr = name.rsplit(".", 1)[1]
    found = [
        ns for ns in namespaces
        if callable(getattr(importlib.import_module(ns), attr, None))
    ]
    assert found, f"{name}: no callable {attr!r} in any of {namespaces}"
