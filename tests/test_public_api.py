import colreg_risk


def test_every_export_resolves():
    missing = [name for name in colreg_risk.__all__ if not hasattr(colreg_risk, name)]
    assert not missing


def test_no_export_repeats():
    names = colreg_risk.__all__
    assert len(set(names)) == len(names)
