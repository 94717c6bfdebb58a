"""The package's export list."""

import types

import heatlab


def test_all_lists_every_public_name():
    # a deleted or renamed function cannot stay exported, nor a new one go unlisted
    bound = {
        name
        for name, value in vars(heatlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(heatlab.__all__) == sorted(bound)
