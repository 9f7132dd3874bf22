import polyseg as ps


def test_every_exported_name_resolves():
    missing = [name for name in ps.__all__ if not hasattr(ps, name)]
    assert missing == []
    assert len(set(ps.__all__)) == len(ps.__all__)
