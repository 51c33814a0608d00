"""The package's hand-kept export list."""

import types

import trustless_mech


def test_all_is_sorted_unique_and_names_every_public_binding():
    exported = trustless_mech.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name
        for name, value in vars(trustless_mech).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
