import incidencelab


def test_every_export_resolves():
    # a name left in the export table after its helper is deleted fails
    # here, not at a user's first import
    missing = [name for name in incidencelab.__all__ if not hasattr(incidencelab, name)]
    assert not missing, missing
