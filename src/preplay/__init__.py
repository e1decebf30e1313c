"""Transformations of normal form games by binding preplay offers.

A preplay offer is a binding promise by one player to pay another a fixed
amount if the recipient plays a named strategy.  This package applies such
offers to payoff tensors, decides exactly (in rational arithmetic) whether
one game can be transformed into another, synthesizes offer sets realizing
reachable targets, completes partially specified targets from a coordinate
star of payoffs, and analyzes the results (pure Nash equilibria, dominance,
constant-sum and Pareto structure).
"""

from . import analyze, characterize, complete, core, errors, offers, synth
from .analyze import *
from .characterize import *
from .complete import *
from .core import *
from .errors import *
from .offers import *
from .synth import *

__version__ = "0.1.0"

# each public name is listed once, in its submodule's __all__
__all__ = []
__all__ += analyze.__all__
__all__ += characterize.__all__
__all__ += complete.__all__
__all__ += core.__all__
__all__ += errors.__all__
__all__ += offers.__all__
__all__ += synth.__all__
