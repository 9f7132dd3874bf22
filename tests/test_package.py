import types

import polyseg as ps


def test_every_exported_name_resolves():
    missing = [name for name in ps.__all__ if not hasattr(ps, name)]
    assert missing == []
    assert len(set(ps.__all__)) == len(ps.__all__)


def test_energy_names_the_module():
    # no function of the package shadows its submodule
    import polyseg.energy as m

    assert isinstance(m, types.ModuleType)
