import voigtw


def test_every_exported_name_resolves():
    missing = [name for name in voigtw.__all__ if not hasattr(voigtw, name)]
    assert missing == []
