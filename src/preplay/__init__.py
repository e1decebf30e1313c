"""Transformations of normal form games by binding preplay offers.

A preplay offer is a binding promise by one player to pay another a fixed
amount if the recipient plays a named strategy.  This package applies such
offers to payoff tensors, decides exactly (in rational arithmetic) whether
one game can be transformed into another, synthesizes offer sets realizing
reachable targets, completes partially specified targets from a coordinate
star of payoffs, and analyzes the results (pure Nash equilibria, dominance,
constant-sum and Pareto structure).

Submodules load lazily, on the first read of one of their attributes: a CLI
run starts a fresh interpreter, often with no bytecode cache, so it compiles
and runs only the modules its subcommand calls.
"""

import importlib.util
import sys
from _thread import RLock
from types import ModuleType

__version__ = "0.1.0"


class _Lazy(ModuleType):
    # a submodule whose body has not finished running.  The first read runs
    # it under one reentrant lock: the running thread reads through, and the
    # other threads wait until it has run, so none sees it half run
    def __getattribute__(self, attr, lock=RLock(), started=set(), plain=ModuleType):
        with lock:
            if self not in started:
                started.add(self)
                plain.__getattribute__(self, "__spec__").loader.exec_module(self)
                self.__class__ = plain
        return plain.__getattribute__(self, attr)


for _name in ("analyze", "characterize", "complete", "core", "errors", "offers", "synth"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    globals()[_name].__class__ = _Lazy
del _name, _spec, _Lazy, importlib, sys, RLock, ModuleType


def __getattr__(name):
    # each public name is listed once, in its submodule's __all__; the first
    # read of one, or of __all__, binds them all here as star imports would.
    # Threads that race here bind the same objects, and __all__ last.
    if "__all__" not in globals():
        modules = (analyze, characterize, complete, core, errors, offers, synth)
        globals().update((public, getattr(m, public)) for m in modules for public in m.__all__)
        globals()["__all__"] = [public for m in modules for public in m.__all__]
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})
