"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations

__all__ = [
    "ArityMismatch",
    "DuplicateName",
    "DuplicateOutcome",
    "IncompleteSeed",
    "IndexOutOfRange",
    "InvalidProfile",
    "MissingOutcome",
    "NameMismatch",
    "NonpositiveMargin",
    "NotEquivalent",
    "ParseError",
    "PreplayError",
    "SeedSumViolation",
    "SelfOffer",
    "ShapeMismatch",
    "UnknownPlayer",
    "UnknownStrategy",
]


class PreplayError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateName(PreplayError):
    """A player name, or a strategy name within one player, occurs twice."""


class MissingOutcome(PreplayError):
    """A payoff table leaves some strategy profile without a payoff vector."""


class DuplicateOutcome(PreplayError):
    """A payoff table assigns the same strategy profile twice."""


class ArityMismatch(PreplayError):
    """A vector's length disagrees with the number of players."""


class IndexOutOfRange(PreplayError):
    """A strategy index falls outside a player's strategy range."""


class UnknownPlayer(PreplayError):
    """A player name does not occur in the game."""


class UnknownStrategy(PreplayError):
    """A strategy name does not occur in the named player's strategy list."""


class SelfOffer(PreplayError):
    """An offer names the same player as payer and payee."""


class ShapeMismatch(PreplayError):
    """Two games that must share a shape have different strategy counts."""


class NameMismatch(PreplayError):
    """Two games that must share players/strategies have different names."""


class InvalidProfile(PreplayError):
    """A strategy profile has the wrong length or an out-of-range entry."""


class NonpositiveMargin(PreplayError):
    """A dominance margin must be strictly positive."""


class IncompleteSeed(PreplayError):
    """A completion seed does not cover exactly the star of its base profile."""


class SeedSumViolation(PreplayError):
    """A seed cell's payoff total differs from the source game's total there."""


class NotEquivalent(PreplayError):
    """Synthesis was asked for a target that no offer set can reach.

    Carries the failed reachability verdict in ``verdict``.
    """

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"target is not reachable by offers: {verdict.violation.describe()}")


class ParseError(PreplayError):
    """An input document is structurally malformed.

    ``source`` names the document (usually a file path), ``location`` the
    offending element within it.
    """

    def __init__(self, source: str, location: str, detail: str):
        self.source = source
        self.location = location
        self.detail = detail
        super().__init__(f"{source}: {location}: {detail}")
