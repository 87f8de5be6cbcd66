import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colreg_risk
from colreg_risk import (
    ComfortZone,
    Method,
    StateUncertainty,
    VesselState,
    assess,
)
from colreg_risk.density import (
    Topology,
    bandwidth_grid_cv,
    bandwidth_isj,
    bandwidth_silverman,
    evaluate,
    fit,
    select_bandwidth,
)

from scenarios import load_tracer

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in colreg_risk.__all__ if not hasattr(colreg_risk, name)]
    assert not missing


def test_no_export_repeats():
    names = colreg_risk.__all__
    assert len(set(names)) == len(names)


def test_import_loads_no_scipy_optimize():
    # scipy.optimize pulls in scipy.linalg, scipy.sparse and more: about
    # 22 MB of resident memory and 0.2 s per process.  The package uses
    # only scipy.fft and scipy.special.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = ("import colreg_risk, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"



# Bearings clustered across the 0/360 cut, so the circle view recentres them.
_ANGLES = np.random.default_rng(0).normal(0.0, 20.0, 400) % 360.0


def _fitted(topology):
    est = fit(_ANGLES, 5.0, topology)
    return est.samples.tobytes(), est.bandwidth, est.topology, evaluate(est, 350.0)


def _assessed(method):
    own = VesselState(0.0, 0.0, 0.0, 10.0)
    target = VesselState(995.40, -95.85, 174.5, 10.0)
    unc = StateUncertainty(10.0, 10.0, 2.0, 2.0)
    return assess(own, unc, target, unc, ComfortZone(150.0, 600.0), 1000, 3, (method,))


# Each reader of an enum argument, and the enum it reads.
_ENUM_READERS = {
    "fit": (_fitted, Topology),
    "bandwidth_silverman": (lambda t: bandwidth_silverman(_ANGLES, t), Topology),
    "bandwidth_isj": (lambda t: bandwidth_isj(_ANGLES, t), Topology),
    "bandwidth_grid_cv": (lambda t: bandwidth_grid_cv(_ANGLES, 1.0, 20.0, 1.0, 4, t), Topology),
    "select_bandwidth": (lambda t: select_bandwidth(_ANGLES, t), Topology),
    "assess": (_assessed, Method),
}


@pytest.mark.parametrize(
    "reader, member",
    [(name, member) for name, (_, enum) in _ENUM_READERS.items() for member in enum],
)
def test_enum_value_name_reads_as_member(reader, member):
    # A value name such as "line" or "kde" is the member it names; one
    # that names no member is an error, not whichever branch it falls into.
    read = _ENUM_READERS[reader][0]
    assert read(member.value) == read(member)
    with pytest.raises(ValueError):
        read("no-such-member")


def _remainder_by_360(node):
    # `x % 360` or `x %= 360`, with 360 an int or float constant.
    if isinstance(node, ast.BinOp):
        op, right = node.op, node.right
    elif isinstance(node, ast.AugAssign):
        op, right = node.op, node.value
    else:
        return False
    return isinstance(op, ast.Mod) and isinstance(right, ast.Constant) and right.value == 360


def _bound_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.alias):
        return [node.asname or node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    return []


def test_one_angle_remainder():
    # kinematics.wrap_degrees is the one angle remainder, so the package
    # reads -1e-17 as 0.0 everywhere; a second `% 360` could read it as 360.
    remainders, mod360_bindings = [], []
    for path in sorted((ROOT / "src" / "colreg_risk").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        innermost = {}
        for func in ast.walk(tree):  # breadth first: an inner function overwrites
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                innermost.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if _remainder_by_360(node):
                remainders.append((path.stem, innermost.get(node)))
            if "mod360" in _bound_names(node):
                mod360_bindings.append(path.stem)
    assert remainders == [("kinematics", "wrap_degrees")]
    assert mod360_bindings == []


def test_every_import_is_read():
    # A name a module imports and never reads is dead code.  The exceptions
    # are the names the benchmark tracer wraps in that module's namespace,
    # and the package's re-exports, which __all__ names.
    wrapped = {}
    for layer, namespaces, _ in load_tracer().LAYERS:
        for namespace in namespaces:
            wrapped.setdefault(namespace, set()).add(layer.rsplit(".", 1)[1])
    unread = []
    for path in sorted((ROOT / "src" / "colreg_risk").glob("*.py")):
        namespace = "colreg_risk" if path.stem == "__init__" else f"colreg_risk.{path.stem}"
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        read = set(wrapped.get(namespace, ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        unread.extend(f"{namespace}.{name}" for name in sorted(imported - read))
    assert unread == []
