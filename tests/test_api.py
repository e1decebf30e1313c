import importlib
import pkgutil
import types

import pytest

import preplay

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(preplay.__path__))


def test_every_public_name_resolves():
    assert len(set(preplay.__all__)) == len(preplay.__all__)
    missing = [name for name in preplay.__all__ if not hasattr(preplay, name)]
    assert missing == []
    assert set(preplay.__all__) <= set(dir(preplay))


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


def test_each_public_name_has_one_home():
    # the package star-imports every submodule, so a name listed twice
    # would silently resolve to whichever module is imported last
    homes = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"preplay.{name}")
        for public in getattr(module, "__all__", ()):
            homes.setdefault(public, []).append(name)
    assert {public: where for public, where in homes.items() if len(where) > 1} == {}
    assert sorted(homes) == sorted(preplay.__all__)


def test_package_namespace_holds_only_public_names():
    # catches a star import that leaks, e.g. ``annotations`` from a
    # submodule without ``__all__``
    stray = [
        name
        for name, value in vars(preplay).items()
        if name not in preplay.__all__
        and name != "__version__"
        and not (name.startswith("__") and name.endswith("__"))
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"preplay.{name}")
    ]
    assert stray == []
