import os
import subprocess
import sys
from pathlib import Path

import colreg_risk

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
