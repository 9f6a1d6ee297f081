"""The package namespace resolves each public name from its submodule."""

import importlib

import pytest

import finiteweyl


@pytest.mark.parametrize("name", finiteweyl.__all__)
def test_export_is_its_module_attribute(name):
    module = importlib.import_module(f"finiteweyl.{finiteweyl._EXPORTS[name]}")
    assert finiteweyl.__getattr__(name) is getattr(module, name)
    assert getattr(finiteweyl, name) is getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        finiteweyl.no_such_name
    assert not hasattr(finiteweyl, "no_such_name")
