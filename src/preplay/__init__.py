"""Transformations of normal form games by binding preplay offers.

A preplay offer is a binding promise by one player to pay another a fixed
amount if the recipient plays a named strategy.  This package applies such
offers to payoff tensors, decides exactly (in rational arithmetic) whether
one game can be transformed into another, synthesizes offer sets realizing
reachable targets, completes partially specified targets from a coordinate
star of payoffs, and analyzes the results (pure Nash equilibria, dominance,
constant-sum and Pareto structure).
"""

from .analyze import (
    AnalysisReport,
    DominancePair,
    constant_sum,
    dominance,
    pareto_optimal,
    pure_nash,
    report,
    strictly_dominant_profile,
)
from .characterize import (
    DiffTensor,
    EquivalenceVerdict,
    Violation,
    check_equivalence,
    diff_tensor,
)
from .complete import Seed, complete_from_seed, two_person_seed
from .core import (
    Game,
    GameShape,
    Profile,
    Rational,
    StrategySpace,
    as_rational,
    make_game,
    payoff_sum,
)
from .errors import (
    ArityMismatch,
    DuplicateName,
    DuplicateOutcome,
    IncompleteSeed,
    IndexOutOfRange,
    InvalidProfile,
    MissingOutcome,
    NameMismatch,
    NonpositiveMargin,
    NotEquivalent,
    ParseError,
    PreplayError,
    SeedSumViolation,
    SelfOffer,
    ShapeMismatch,
    UnknownPlayer,
    UnknownStrategy,
)
from .offers import (
    Offer,
    OfferSet,
    apply_offer,
    apply_offer_set,
    canonicalize,
    invert_offer,
    invert_offer_set,
)
from .synth import (
    SynthesisResult,
    make_profile_dominant,
    nonnegative_decomposition,
    synthesize_offers,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ArityMismatch",
    "DiffTensor",
    "DominancePair",
    "DuplicateName",
    "DuplicateOutcome",
    "EquivalenceVerdict",
    "Game",
    "GameShape",
    "IncompleteSeed",
    "IndexOutOfRange",
    "InvalidProfile",
    "MissingOutcome",
    "NameMismatch",
    "NonpositiveMargin",
    "NotEquivalent",
    "Offer",
    "OfferSet",
    "ParseError",
    "PreplayError",
    "Profile",
    "Rational",
    "Seed",
    "SeedSumViolation",
    "SelfOffer",
    "ShapeMismatch",
    "StrategySpace",
    "SynthesisResult",
    "UnknownPlayer",
    "UnknownStrategy",
    "Violation",
    "apply_offer",
    "apply_offer_set",
    "as_rational",
    "canonicalize",
    "check_equivalence",
    "complete_from_seed",
    "constant_sum",
    "diff_tensor",
    "dominance",
    "invert_offer",
    "invert_offer_set",
    "make_game",
    "make_profile_dominant",
    "nonnegative_decomposition",
    "pareto_optimal",
    "payoff_sum",
    "pure_nash",
    "report",
    "strictly_dominant_profile",
    "synthesize_offers",
    "two_person_seed",
]
