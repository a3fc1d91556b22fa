import importlib

import pytest

import pcoh


@pytest.mark.parametrize("name", pcoh.__all__)
def test_public_name_is_its_submodules_object(name):
    obj = getattr(pcoh, name)
    assert obj.__module__.startswith("pcoh.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pcoh import *", namespace)
    bound = {k for k in namespace if not k.startswith("__")}
    assert bound == set(pcoh.__all__)
    assert all(namespace[name] is getattr(pcoh, name) for name in pcoh.__all__)


def test_dir_lists_every_public_name():
    assert set(pcoh.__all__) <= set(dir(pcoh))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pcoh.no_such_name
    assert not hasattr(pcoh, "no_such_name")
