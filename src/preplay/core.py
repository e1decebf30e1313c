"""Exact finite normal form games.

A game is a set of named players, a named strategy list per player, and one
payoff vector per strategy profile.  All payoffs (and, elsewhere in the
package, all payment amounts) are ``fractions.Fraction`` values, so every
transformation and every equality test is exact; nothing is ever rounded.
Each game also caches its payoffs as Python ints over one common denominator
per player (``Game._scaled``); the analysis kernels, the reachability check
and synthesis read that integer view instead of the ``Fraction``s.  Apply
and completion write a game through one outer-sum kernel
(``_add_separable``), which adds on Python int pairs, one player at a time,
and never reads the view.

Profiles are tuples of 0-based strategy indices, one per player, in player
order.  User-facing messages render indices 1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import KW_ONLY, InitVar, dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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


# the rational grammar: an optional sign, ASCII digits, and an optional
# "/denominator" or ".fraction" part.  Fraction alone also takes exponents
# ("1e10000000" takes seconds), "_", surrounding whitespace and non-ASCII
# digits.
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string to an exact Fraction.

    Strings may be integers ("3"), ratios ("3/4"), or decimals ("0.25"),
    each with an optional sign and ASCII digits only; decimals are read
    exactly, not via binary floating point.  A string is matched once, and
    its digit groups are read with ``int()`` as ``Fraction(str)`` would read
    them.  Floats are rejected outright — they would silently smuggle
    rounding error into a model whose whole point is exactness.
    """
    # exact type first: for any other value, isinstance(value, Fraction) is a slow ABC check
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"not a rational value: {value!r}")
        sign, whole, denominator, decimals = match.groups()
        try:
            if denominator is None and decimals is None:
                return Fraction(int(value))
            # each digit group is read alone, as Fraction(str) reads it, so
            # the int-to-str digit limit applies per group
            numerator = int(whole)
            if decimals is None:
                denominator = int(denominator)
            else:
                denominator = 10 ** len(decimals)
                numerator = numerator * denominator + int(decimals)
            return Fraction(-numerator if sign == "-" else numerator, denominator)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
    if isinstance(value, bool):
        raise TypeError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
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
        for k, index in enumerate(profile):
            if not isinstance(index, int):
                raise IndexOutOfRange(
                    f"profile entry {index!r} for player {k + 1} is not a strategy index"
                )
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
    _: KW_ONLY
    # a StrategySpace a caller inside the package has already validated; it
    # is used only if it names exactly the players and strategies given
    _space: InitVar[Optional[StrategySpace]] = None

    def __post_init__(self, _space: Optional[StrategySpace]):
        space = _space
        if space is None or (space.players, space.strategies) != (self.players, self.strategies):
            space = StrategySpace(tuple(self.players), tuple(tuple(r) for r in self.strategies))
        object.__setattr__(self, "players", space.players)
        object.__setattr__(self, "strategies", space.strategies)
        object.__setattr__(self, "space", space)
        size = space.shape.size
        cells = self.payoffs
        # cells that are already tuples of exact Fractions are kept as given
        if not (
            type(cells) is tuple
            and set(map(type, cells)) == {tuple}
            and set(map(type, chain.from_iterable(cells))) == {Fraction}
        ):
            cells = tuple(tuple(as_rational(v) for v in cell) for cell in cells)
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

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The payoffs as Python ints over one common denominator per player:
        ``(scales, rows)`` with ``rows[f][k] == payoffs[f][k] * scales[k]`` and
        ``scales[k]`` the lcm of player k's payoff denominators.  Player k's
        ints compare and subtract exactly as their ``Fraction``s do, so
        read-only kernels can work on them directly.  One scale per player
        keeps each int as short as that player's own denominators allow."""
        scales, columns = [], []
        for column in zip(*self.payoffs):
            # pairwise rounds keep the two sides of each lcm about equally long
            parts = list({v.denominator for v in column})
            while len(parts) > 1:
                parts = [math.lcm(*parts[i : i + 2]) for i in range(0, len(parts), 2)]
            scale = parts[0]
            scales.append(scale)
            columns.append([v.numerator * (scale // v.denominator) for v in column])
        return tuple(scales), tuple(zip(*columns))

    def payoff(self, profile: Sequence[int]) -> PayoffVector:
        """The payoff vector at a profile of 0-based strategy indices."""
        return self.payoffs[self.shape.flat_index(profile)]


def _add_separable(
    game: Game, origin: Sequence[Fraction], steps: Sequence[Sequence[Sequence[Fraction]]]
) -> Game:
    """``game`` with ``origin + sum_k steps[k][p_k]`` added to the payoff vector
    at every profile p.

    Each player's column is expanded one axis at a time in row-major order
    as unreduced int pairs ``(a, b)``, so a cell's ``b`` is the product of
    only its own n + 1 step denominators, and each output payoff is one
    ``Fraction`` built from its pair and the old payoff.  The game's
    integer view ``_scaled`` is never read.
    """
    columns = []
    for k, column in enumerate(zip(*game.payoffs)):
        pairs = [(origin[k].numerator, origin[k].denominator)]
        for axis in steps:
            reads = [(s[k].numerator, s[k].denominator) for s in axis]
            pairs = [(a * sd + sn * b, b * sd) for a, b in pairs for sn, sd in reads]
        columns.append(
            [
                Fraction(v.numerator * b + a * v.denominator, v.denominator * b)
                for v, (a, b) in zip(column, pairs)
            ]
        )
    return Game(game.players, game.strategies, tuple(zip(*columns)), _space=game.space)


def _opposing_flats(shape: GameShape, k: int) -> list[int]:
    """Flat indices of the profiles where player k plays their first strategy;
    adding ``t * shape.strides[k]`` moves each to k's strategy t."""
    stride = shape.strides[k]
    block = stride * shape.strategy_counts[k]
    return [start + low for start in range(0, shape.size, block) for low in range(stride)]


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
    payoffs = tuple(cells[i] for i in range(shape.size))
    return Game(space.players, space.strategies, payoffs, _space=space)


def payoff_sum(game: Game, profile: Sequence[int]) -> Fraction:
    """Total payoff across all players at a profile."""
    return sum(game.payoff(profile), Fraction(0))
