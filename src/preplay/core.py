"""Exact finite normal form games.

A game is a set of named players, a named strategy list per player, and one
payoff vector per strategy profile.  All payoffs (and, elsewhere in the
package, all payment amounts) are ``fractions.Fraction`` values, so every
transformation and every equality test is exact; nothing is ever rounded.

Profiles are tuples of 0-based strategy indices, one per player, in player
order.  User-facing messages render indices 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    ArityMismatch,
    DuplicateName,
    DuplicateOutcome,
    IndexOutOfRange,
    MissingOutcome,
    UnknownPlayer,
    UnknownStrategy,
)

Rational = Fraction
RationalLike = Union[Fraction, int, str]
Profile = tuple[int, ...]
PayoffVector = tuple[Fraction, ...]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string to an exact Fraction.

    Strings may be integers ("3"), ratios ("3/4"), or decimals ("0.25"),
    each with an optional sign and ASCII digits only; decimals are read
    exactly, not via binary floating point.  Floats are rejected outright —
    they would silently smuggle rounding error into a model whose whole
    point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction alone also takes exponents ("1e10000000" takes seconds),
        # "_", surrounding whitespace and non-ASCII digits
        if not re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?", value):
            raise ValueError(f"not a rational value: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
    raise TypeError(f"not a rational value: {value!r}")


def format_profile(profile: Profile) -> str:
    """Render a profile as 1-based indices, e.g. ``(2,1)``."""
    return "(" + ",".join(str(i + 1) for i in profile) + ")"


@dataclass(frozen=True)
class GameShape:
    """The strategy-count vector of a game: one count per player."""

    strategy_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.strategy_counts)
        object.__setattr__(self, "strategy_counts", counts)
        if len(counts) < 2:
            raise ArityMismatch(f"a game needs at least 2 players, got {len(counts)}")
        for k, count in enumerate(counts):
            if count < 1:
                raise ArityMismatch(f"player {k + 1} has {count} strategies; need at least 1")

    @property
    def player_count(self) -> int:
        return len(self.strategy_counts)

    @cached_property
    def size(self) -> int:
        """Number of strategy profiles."""
        n = 1
        for count in self.strategy_counts:
            n *= count
        return n

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Row-major strides: flat index = sum(profile[k] * strides[k])."""
        strides = []
        acc = 1
        for count in reversed(self.strategy_counts):
            strides.append(acc)
            acc *= count
        return tuple(reversed(strides))

    def profiles(self) -> Iterator[Profile]:
        """All profiles in row-major order (last coordinate fastest)."""
        return product(*(range(count) for count in self.strategy_counts))

    def validate_profile(self, profile: Sequence[int]) -> Profile:
        profile = tuple(profile)
        if len(profile) != self.player_count:
            raise ArityMismatch(
                f"profile {format_profile(profile)} has {len(profile)} entries "
                f"for {self.player_count} players"
            )
        for k, (index, count) in enumerate(zip(profile, self.strategy_counts)):
            if not 0 <= index < count:
                raise IndexOutOfRange(
                    f"profile {format_profile(profile)}: entry {index + 1} for player "
                    f"{k + 1} is outside 1..{count}"
                )
        return profile

    def flat_index(self, profile: Sequence[int]) -> int:
        profile = self.validate_profile(profile)
        return sum(i * s for i, s in zip(profile, self.strides))

    def star(self, base: Sequence[int]) -> Iterator[Profile]:
        """The base profile plus every profile differing from it in exactly
        one coordinate.  Yields the base first, then axis by axis."""
        base = self.validate_profile(base)
        yield base
        for k, count in enumerate(self.strategy_counts):
            for v in range(count):
                if v != base[k]:
                    yield base[:k] + (v,) + base[k + 1 :]


@dataclass(frozen=True)
class StrategySpace:
    """Named players with named strategies; the frame games live in."""

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        players = tuple(str(p) for p in self.players)
        strategies = tuple(tuple(str(s) for s in row) for row in self.strategies)
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "strategies", strategies)
        if len(strategies) != len(players):
            raise ArityMismatch(
                f"{len(players)} players but {len(strategies)} strategy lists"
            )
        if len(set(players)) != len(players):
            dup = next(p for p in players if players.count(p) > 1)
            raise DuplicateName(f"duplicate player name {dup!r}")
        for player, row in zip(players, strategies):
            if len(set(row)) != len(row):
                dup = next(s for s in row if row.count(s) > 1)
                raise DuplicateName(f"duplicate strategy name {dup!r} for player {player!r}")
        # shape construction enforces N >= 2 and every count >= 1
        self.shape

    @cached_property
    def shape(self) -> GameShape:
        return GameShape(tuple(len(row) for row in self.strategies))

    def player_index(self, name: str) -> int:
        try:
            return self.players.index(name)
        except ValueError:
            raise UnknownPlayer(f"no player named {name!r}") from None

    def strategy_index(self, player: str, strategy: str) -> int:
        row = self.strategies[self.player_index(player)]
        try:
            return row.index(strategy)
        except ValueError:
            raise UnknownStrategy(
                f"player {player!r} has no strategy named {strategy!r}"
            ) from None

    def profile_from_names(self, names: Sequence[str]) -> Profile:
        if len(names) != len(self.players):
            raise ArityMismatch(
                f"profile ({','.join(map(str, names))}) has {len(names)} entries "
                f"for {len(self.players)} players"
            )
        return tuple(
            self.strategy_index(player, name) for player, name in zip(self.players, names)
        )

    def profile_names(self, profile: Sequence[int]) -> tuple[str, ...]:
        profile = self.shape.validate_profile(profile)
        return tuple(self.strategies[k][i] for k, i in enumerate(profile))

    def name_profile(self, profile: Sequence[int]) -> str:
        """Render a profile by strategy names, e.g. ``(C,D)``."""
        return "(" + ",".join(self.profile_names(profile)) + ")"


@dataclass(frozen=True)
class Game:
    """A finite normal form game with exact payoffs.

    ``payoffs`` holds one payoff vector per profile in row-major order
    (see ``GameShape.profiles``).  Instances are immutable; transformations
    return new games over the same space.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    payoffs: tuple[PayoffVector, ...]

    def __post_init__(self):
        space = StrategySpace(tuple(self.players), tuple(tuple(r) for r in self.strategies))
        object.__setattr__(self, "players", space.players)
        object.__setattr__(self, "strategies", space.strategies)
        object.__setattr__(self, "space", space)
        size = space.shape.size
        cells = tuple(tuple(as_rational(v) for v in cell) for cell in self.payoffs)
        object.__setattr__(self, "payoffs", cells)
        if len(cells) < size:
            raise MissingOutcome(f"{size} profiles but only {len(cells)} payoff vectors")
        if len(cells) > size:
            raise DuplicateOutcome(f"{size} profiles but {len(cells)} payoff vectors")
        n = len(space.players)
        for cell in cells:
            if len(cell) != n:
                raise ArityMismatch(
                    f"payoff vector of length {len(cell)} in a {n}-player game"
                )

    @cached_property
    def space(self) -> StrategySpace:
        # __post_init__ fills this slot with the space it validated
        return StrategySpace(self.players, self.strategies)

    @cached_property
    def shape(self) -> GameShape:
        return self.space.shape

    def payoff(self, profile: Sequence[int]) -> PayoffVector:
        """The payoff vector at a profile of 0-based strategy indices."""
        return self.payoffs[self.shape.flat_index(profile)]


def _add_separable(
    game: Game, origin: Sequence[Fraction], steps: Sequence[Sequence[Sequence[Fraction]]]
) -> Game:
    """``game`` with ``origin + sum_k steps[k][p_k]`` added to the payoff vector
    at every profile p, expanded one axis at a time in row-major order."""
    deltas = [origin]
    for axis in steps:
        deltas = [tuple(x + y for x, y in zip(d, s)) for d in deltas for s in axis]
    payoffs = tuple(
        tuple(v + x for v, x in zip(cell, delta)) for cell, delta in zip(game.payoffs, deltas)
    )
    return Game(game.players, game.strategies, payoffs)


def make_game(
    players: Sequence[str],
    strategies: Union[Sequence[Sequence[str]], Mapping[str, Sequence[str]]],
    payoff_entries: Union[
        Mapping[tuple[str, ...], Sequence[RationalLike]],
        Iterable[tuple[Sequence[str], Sequence[RationalLike]]],
    ],
) -> Game:
    """Build a game from named payoff entries.

    ``payoff_entries`` maps strategy-name profiles to payoff vectors (any
    mapping, or an iterable of pairs).  Every profile must be assigned
    exactly once.
    """
    players = tuple(players)
    if isinstance(strategies, Mapping):
        missing = [p for p in players if p not in strategies]
        if missing:
            raise UnknownPlayer(f"no strategy list for player {missing[0]!r}")
        if len(strategies) != len(players):
            extra = next(p for p in strategies if p not in players)
            raise UnknownPlayer(f"strategy list for unknown player {extra!r}")
        strategy_rows = tuple(tuple(strategies[p]) for p in players)
    else:
        strategy_rows = tuple(tuple(row) for row in strategies)
    space = StrategySpace(players, strategy_rows)
    shape = space.shape

    if isinstance(payoff_entries, Mapping):
        items = payoff_entries.items()
    else:
        items = payoff_entries
    cells: dict[int, PayoffVector] = {}
    for names, values in items:
        profile = space.profile_from_names(tuple(names))
        flat = shape.flat_index(profile)
        if flat in cells:
            raise DuplicateOutcome(f"profile {space.name_profile(profile)} assigned twice")
        values = tuple(as_rational(v) for v in values)
        if len(values) != len(players):
            raise ArityMismatch(
                f"profile {space.name_profile(profile)}: payoff vector of length "
                f"{len(values)} in a {len(players)}-player game"
            )
        cells[flat] = values
    if len(cells) != shape.size:
        missing_profile = next(p for p in shape.profiles() if shape.flat_index(p) not in cells)
        raise MissingOutcome(f"no payoff vector for profile {space.name_profile(missing_profile)}")
    return Game(players, strategy_rows, tuple(cells[i] for i in range(shape.size)))


def payoff_sum(game: Game, profile: Sequence[int]) -> Fraction:
    """Total payoff across all players at a profile."""
    return sum(game.payoff(profile), Fraction(0))
