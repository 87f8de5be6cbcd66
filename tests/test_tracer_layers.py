"""The benchmark tracer's layer table still names real functions.

``perfbench/tracer.py`` wraps each function in ``LAYERS`` by name in every
listed namespace.  A name that one namespace stops holding is a missing
target, and the calls made through it drop out of that layer's metrics; a
name no namespace holds blanks the layer.  A counting hook that raises is
swallowed, and its layer's count then reads 0.
The tracer is loaded from its file, unchanged; only the traced-run test
installs it.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import colreg_risk
from colreg_risk import cli, make_uncertainty

from scenarios import DIAG, OWN_2, TARGET_2, ZONE

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer_module()
LAYERS = TRACER_MODULE.LAYERS


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


def test_traced_run_records_no_hook_errors(tmp_path):
    # An assessment with an exactly known own ship, and analyze with grid
    # bandwidths, between them reach every counting hook.
    tracer = TRACER_MODULE.Tracer()
    tracer.install()
    try:
        colreg_risk.assess_kde(OWN_2, make_uncertainty(DIAG, 0.0), TARGET_2,
                               make_uncertainty(DIAG, 1.0), ZONE, 1000, 7)
        assert cli.main(["analyze", "--bandwidth", "grid", "--samples", "200",
                         "--bearings", "0", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert not tracer.hook_errors and not tracer.absent and not tracer.missing
    counts = sum(tracer.counts.values(), Counter())
    for key in ("draw_pair.samples", "cpa_arrays.pairs", "bandwidth_isj.attempts",
                "integrate.kernel_evals", "evaluate.kernel_evals",
                "bandwidth_grid_cv.kernel_evals"):
        assert counts[key] > 0, key
