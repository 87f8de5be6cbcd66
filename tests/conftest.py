"""Suite-wide test setup.

Hypothesis keeps a cache of source constants under its home directory even
with ``database=None``; point that home at a temporary directory removed at
exit, so a test run leaves no ``.hypothesis/`` directory in the checkout.
The ``colreg-risk`` settings profile holds the policy every property test
shares; each ``@settings`` names only its ``max_examples``.  Without
hypothesis only the property-test modules fail to collect.

The ``draws`` fixture records the arguments of every ``draw_pair`` call the
estimator makes during a test.
"""

import tempfile

import pytest

from colreg_risk import estimator

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    pass
else:
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="colreg-risk-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
    # One policy for every property test, which sets only its max_examples:
    # no example database, the same examples on every run, no deadline.
    settings.register_profile("colreg-risk", database=None, derandomize=True, deadline=None)
    settings.load_profile("colreg-risk")


@pytest.fixture
def draws(monkeypatch) -> list:
    calls = []
    real = estimator.draw_pair

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimator, "draw_pair", counted)
    return calls
