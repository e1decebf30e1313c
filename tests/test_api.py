import importlib
import pkgutil

import pytest

import preplay

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(preplay.__path__))


def test_every_public_name_resolves():
    assert len(set(preplay.__all__)) == len(preplay.__all__)
    missing = [name for name in preplay.__all__ if not hasattr(preplay, name)]
    assert missing == []


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from preplay import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(preplay.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_public_names_are_reexported(name):
    module = importlib.import_module(f"preplay.{name}")
    for public in getattr(module, "__all__", ()):
        assert public in preplay.__all__, f"preplay.{name}.{public} is not re-exported"
        assert getattr(preplay, public) is getattr(module, public)
