"""The benchmark tracer's layer table still names real functions.

``perfbench/tracer.py`` wraps each function in ``LAYERS`` by name in every
listed namespace.  A name that one namespace stops holding is a missing
target, and the calls made through it drop out of that layer's metrics; a
name no namespace holds blanks the layer.
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
    # Every listed namespace, not just one: a namespace that stops holding
    # the name takes its callers' time out of the layer.
    attr = name.rsplit(".", 1)[1]
    missing = [
        ns for ns in namespaces
        if not callable(getattr(importlib.import_module(ns), attr, None))
    ]
    assert not missing, f"{name}: no callable {attr!r} in {missing}"
