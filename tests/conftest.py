"""Suite-wide test setup.

Hypothesis keeps a cache of source constants under its home directory even
with ``database=None``; point that home at a temporary directory removed at
exit, so a test run leaves no ``.hypothesis/`` directory in the checkout.
Without hypothesis only the property-test modules fail to collect.
"""

import tempfile

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    pass
else:
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="colreg-risk-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
