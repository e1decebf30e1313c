"""Exact finite normal form games.

A game is a set of named players, a named strategy list per player, and one
payoff vector per strategy profile.  All payoffs (and, elsewhere in the
package, all payment amounts) are ``fractions.Fraction`` values, so every
transformation and every equality test is exact; nothing is ever rounded.
Each game also caches its payoffs as Python ints over one common denominator
per player (``Game._scaled``), stored by player: one tuple of ints per
player.  ``_scales`` is the one routine that computes those denominators,
the players' scales, each as a balanced tree of lcms built one level at a
time: ``Game._scaled`` calls it, and so does the game document parser,
which bounds the scales and hands them to the ``Game`` it builds, so a
parsed game's scales are computed once.  Every per-player comparison reads
the integer view instead of the ``Fraction``s: the reachability check,
synthesis, Pareto, and the Nash and dominance kernels, which read it cut
into one tuple per player and strategy (``Game._slices``).  ``_total`` is the one exact profile total, a sum over
the profile's own denominators: C1 reads it where the players' scales
differ, and so do ``constant_sum``, completion's seed check and
``payoff_sum``.  ``_sum`` is the one exact sum of values gathered from
several profiles or offers: Knuth's method on int pairs, which keeps the
running sum over the lcm of its denominators and takes no gcd of the sum
itself.  It nets repeated offers and totals the inverse's (payer, payee)
blocks and synthesis's balances.  Apply and completion write a game
through one outer-sum kernel (``_add_separable``), which adds on Python int
pairs, one player at a time, and never reads the view.  Every payoff a
game holds is a plain ``Fraction`` (``as_rational`` reads subclasses as
the number they hold), so the kernel hands back each payoff it does not
move as it is, and builds each one it moves in its own loop, as
``_fraction`` would: a call per payoff cost an apply more than the
arithmetic it wrapped.

The hot loops of this module are the package's one reliance on
``Fraction``'s private layout: ``_fraction`` and ``_add_separable`` build a
``Fraction`` by filling its two slots, ``_numerator`` and ``_denominator``,
and ``_scales``, ``_add_separable``, ``_total``, ``_sum``, ``_text`` and
``Game._scaled`` read those slots directly instead of the ``numerator``
and ``denominator`` properties.  No other module touches them
(``tests/test_slot_reads.py`` checks it): the others add through ``_sum``
and ``_fraction`` and read the public properties, so no sum on a request
path runs ``Fraction``'s pure-Python operators, and the CLI writes payoff
text through ``_text``.

A game's payoffs are checked once, where the game enters: the public
constructor coerces and checks every value (through ``_vector``, which
``make_game`` and ``Seed`` share, so all three reject a string, a
bytes-like buffer, a set, a dict or a single number given as a payoff
vector alike), while the document parser, ``make_game`` and
``_add_separable``, which have already checked or exactly built their
cells, hand ``Game`` its space and it takes their cells as given.  The
public constructor, ``make_game`` and ``Seed`` each hand ``_vector`` one
memo per construction, so each distinct exact int or str
is coerced once and equal ones share its ``Fraction``.  The memo is keyed
as ``cli._read_payoffs`` keys its own: only values of exact type int or
str are keys, never a bool, float, subclass or ``Fraction``, which may
equal one and hash alike, and a value that fails to coerce is never
stored.  Profiles the package generates itself (from
``GameShape.profiles``, a star, or an analysis kernel) are read without
validating them again.  A frame's facts are set once, when it is built:
a ``GameShape`` sets its player count, size and strides as it checks its
counts, ``StrategySpace`` builds its ``GameShape`` as it validates its
names, and a ``Game`` keeps its space and that space's shape, so
``.space`` and ``.shape`` are plain attributes.

The package's public types are frozen records (``_Record``): they behave
as frozen dataclasses do, in construction, equality, hashing, ``repr``,
pickling and immutability, but are plain classes, so the package never
imports ``dataclasses`` (which brings ``inspect``, ``ast``, ``dis`` and
``tokenize``) nor runs its generated code at a CLI start.  Nor does it
import ``typing`` or ``pathlib``: annotations name ``collections.abc``
types and ``X | None``.

Profiles are tuples of 0-based strategy indices, one per player, in player
order.  User-facing messages render indices 1-based.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from fractions import Fraction
from itertools import product, repeat
from operator import attrgetter, mul

from .errors import (
    ArityMismatch,
    DuplicateName,
    DuplicateOutcome,
    IndexOutOfRange,
    MissingOutcome,
    NameMismatch,
    ShapeMismatch,
    UnknownPlayer,
    UnknownStrategy,
)

__all__ = [
    "Game",
    "GameShape",
    "Profile",
    "Rational",
    "StrategySpace",
    "as_rational",
    "make_game",
    "payoff_sum",
]

Rational = Fraction
RationalLike = Fraction | int | str
Profile = tuple[int, ...]
PayoffVector = tuple[Fraction, ...]


# the rational grammar: an optional sign, ASCII digits, and an optional
# "/denominator" or ".fraction" part.  Fraction alone also takes exponents
# ("1e10000000" takes seconds), "_", surrounding whitespace and non-ASCII
# digits.
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _fraction(n: int, d: int, g: int = 0) -> Fraction:
    """``Fraction(n, d)`` for an int ``n`` and an int ``d > 0``, without
    ``Fraction.__new__``'s type dispatch and sign handling: one gcd, then the
    two slots of a bare instance are filled in lowest terms.  A caller that
    knows ``gcd(n, d)`` passes it as ``g``, and none is taken."""
    g = g or math.gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    value = object.__new__(Fraction)
    value._numerator = n
    value._denominator = d
    return value


def _scales(cells: Sequence[PayoffVector], bits: int | None = None) -> tuple[int, ...] | None:
    """Each player's scale: the lcm of that player's payoff denominators in
    ``cells``, one payoff vector per profile.  Each player's distinct
    denominators are reduced as a balanced tree, one level at a time: each
    level takes the lcm of each pair of the one below, and an odd one out
    moves up as it is.  Both sides of each lcm stay about equally long.

    Given ``bits``, returns None once a level holds a partial lcm that
    takes more than ``bits`` bits, less the bits of the earlier players'
    scales.  A partial lcm divides its player's scale, so that is exactly
    when the scales take more than ``bits`` bits together.  The check reads
    a whole level, built before it looks: the lcms already built past the
    room are those of that one level, not of one subtree.
    """
    scales = []
    room = math.inf if bits is None else bits
    # player by player through the cells: a transpose here would repeat the
    # one that Game._scaled makes for its columns
    for k in range(len(cells[0])):
        level = list({cell[k]._denominator for cell in cells})
        while len(level) > 1 and max(level).bit_length() <= room:
            level = [*map(math.lcm, level[::2], level[1::2]), *level[len(level) // 2 * 2 :]]
        # one lcm is left, or the level is past the room
        room -= max(level).bit_length()
        if room < 0:
            return None
        scales.append(level[0])
    return tuple(scales)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string to an exact, plain Fraction.

    A subclass of int or Fraction (an ``IntEnum``, say) is read as the plain
    number it holds, so every value this returns is ``type(v) is Fraction``.
    Strings may be integers ("3"), ratios ("3/4"), or decimals ("0.25"),
    each with an optional sign and ASCII digits only; decimals are read
    exactly, not via binary floating point.  A string is matched once, and
    its digit groups are read with ``int()`` as ``Fraction(str)`` would read
    them.  Floats are rejected outright — they would silently smuggle
    rounding error into a model whose whole point is exactness.
    """
    # exact types first: for any other value, isinstance(value, Fraction) is a slow ABC check
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return _fraction(value, 1)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"not a rational value: {value!r}")
        sign, whole, denominator, decimals = match.groups()
        try:
            if denominator is None and decimals is None:
                return _fraction(int(value), 1)
            # each digit group is read alone, as Fraction(str) reads it, so
            # the int-to-str digit limit applies per group
            numerator = int(whole)
            if decimals is None:
                denominator = int(denominator)
            else:
                denominator = 10 ** len(decimals)
                numerator = numerator * denominator + int(decimals)
        except ValueError as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
        # _fraction takes d > 0: gcd(n, 0) would make n/0 read as 1 or -1
        if denominator == 0:
            raise ValueError(f"not a rational value: {value!r}")
        return _fraction(-numerator if sign == "-" else numerator, denominator)
    # a subclass of int or Fraction, read as the plain number it holds; bool
    # is an int subclass too, but True is not a payoff
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def _vector(cell: Iterable[RationalLike], memo: dict) -> PayoffVector:
    """A payoff vector with each value coerced by ``as_rational``.  A string
    iterates, but digit by digit, a bytes-like buffer (``bytes``,
    ``bytearray``, ``memoryview``) byte by byte, and a set or a dict in hash
    or key order, so none of them is a vector any more than a single number
    is; all raise ``TypeError``.  An exact tuple, the cell most callers
    pass, skips the wider type test.

    ``memo`` is one construction's: each distinct exact int or str is
    coerced once and its ``Fraction`` reused, keyed by the value itself, as
    ``cli._read_payoffs`` keys its memo.  No other value is a key, since
    ``True``, ``1.0`` and ``Fraction(1)`` equal ``1`` and hash alike, and a
    value that fails to coerce raises before it is stored.
    """
    if type(cell) is not tuple and isinstance(
        cell, (str, bytes, bytearray, memoryview, set, frozenset, dict)
    ):
        raise TypeError(f"not a payoff vector: {cell!r}")
    try:
        values = iter(cell)
    except TypeError:
        raise TypeError(f"not a payoff vector: {cell!r}") from None
    vector = []
    for v in values:
        r = memo.get(v) if type(v) is int or type(v) is str else as_rational(v)
        # as_rational never returns None, so only an exact int or str missed
        # in the memo is coerced here and stored
        if r is None:
            r = memo[v] = as_rational(v)
        vector.append(r)
    return tuple(vector)


def _shown(value: Fraction) -> str:
    """``str(value)`` for a message, or, where the int-to-str digit limit
    refuses its numerator or denominator, the number's length: the bits its
    numerator and denominator take together.  A message built with it cannot
    raise."""
    try:
        return str(value)
    except ValueError:
        return f"a number of {value.numerator.bit_length() + value.denominator.bit_length()} bits"


def _text(v: Fraction) -> str:
    """``str(v)``, written from the two slots as ``Fraction.__str__`` writes
    it: the numerator alone where the denominator is 1, else ``n/d``.  Past
    the int-to-str digit limit it raises the same ``ValueError``."""
    return str(v._numerator) if v._denominator == 1 else f"{v._numerator}/{v._denominator}"


def format_profile(profile: Profile) -> str:
    """Render a profile as 1-based indices, e.g. ``(2,1)``."""
    return "(" + ",".join(str(i + 1) for i in profile) + ")"


class _Record:
    """A frozen record: what a frozen dataclass gives the package's public
    types, without importing ``dataclasses``, whose import and generated
    code cost a fresh interpreter several milliseconds.

    A subclass's fields are its own annotations, in order, and a class
    attribute named after a field is that field's default.  Construction
    takes the fields by position or keyword, raises ``TypeError`` on a
    missing or unexpected one, writes them into ``__dict__`` and then runs
    ``__post_init__``.  ``==`` compares the fields in order, and only
    between records of one class; ``hash`` is that of the fields' tuple, so
    a record holding a dict is unhashable; ``repr`` names each field.
    Assignment and deletion raise ``AttributeError``, while pickle and copy
    restore ``__dict__`` as they find it, a cached view included.  A hot
    subclass defines its own ``__init__``, which writes ``__dict__`` the
    same way.
    """

    def __init_subclass__(cls) -> None:
        # a subclass that annotates nothing keeps its base's fields
        if "__annotations__" in cls.__dict__:
            cls._fields = fields = tuple(cls.__annotations__)
            get = attrgetter(*fields)
            # the fields' tuple even for one field, so hashes agree with a dataclass's
            cls._key = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self), self._fields
        if kwargs or len(args) != len(fields):
            # the defaults, then the arguments, which must name each field at most once
            given = dict(zip(fields, args), **kwargs)
            values = {name: getattr(cls, name) for name in fields if hasattr(cls, name)} | given
            if len(given) < len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{cls.__qualname__}() takes the arguments ({', '.join(fields)})")
            args = [values[name] for name in fields]
        # one dict update, not one store per field: on CPython 3.11 an
        # instance dict filled key by key makes every later read slower
        self.__dict__.update(dict(zip(fields, args)))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalise the fields just written; nothing here."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GameShape(_Record):
    """The strategy-count vector of a game: one count per player.

    Construction sets the facts read off the counts as plain attributes:
    ``player_count``, ``size``, the number of strategy profiles, and
    ``strides``, the row-major strides, so that flat index =
    sum(profile[k] * strides[k]).
    """

    strategy_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.strategy_counts)
        if len(counts) < 2:
            raise ArityMismatch(f"a game needs at least 2 players, got {len(counts)}")
        for k, count in enumerate(counts):
            # bool is an int subclass, but True is not a strategy count
            if isinstance(count, bool) or not isinstance(count, int):
                raise ArityMismatch(f"player {k + 1} has strategy count {count!r}; need an int")
            if count < 1:
                raise ArityMismatch(f"player {k + 1} has {count} strategies; need at least 1")
        strides = tuple(math.prod(counts[k + 1 :]) for k in range(len(counts)))
        facts = {"player_count": len(counts), "size": math.prod(counts), "strides": strides}
        self.__dict__.update(strategy_counts=counts, **facts)

    def profiles(self) -> Iterator[Profile]:
        """All profiles in row-major order (last coordinate fastest)."""
        return product(*(range(count) for count in self.strategy_counts))

    def validate_profile(self, profile: Sequence[int]) -> Profile:
        profile = tuple(profile)
        for k, index in enumerate(profile):
            # bool is an int subclass, but True is not a strategy index
            if isinstance(index, bool) or not isinstance(index, int):
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

    def _profile_at(self, flat: int) -> Profile:
        """The profile at a row-major flat index; the inverse of ``flat_index``."""
        return tuple(
            flat // stride % count for stride, count in zip(self.strides, self.strategy_counts)
        )

    def star(self, base: Sequence[int]) -> Iterator[Profile]:
        """The base profile plus every profile differing from it in exactly
        one coordinate.  Yields the base first, then axis by axis."""
        base = self.validate_profile(base)
        yield base
        for k, count in enumerate(self.strategy_counts):
            for v in range(count):
                if v != base[k]:
                    yield base[:k] + (v,) + base[k + 1 :]


class StrategySpace(_Record):
    """Named players with named strategies; the frame games live in.

    ``shape``, the frame's ``GameShape``, is built with the space.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        players = tuple(str(p) for p in self.players)
        strategies = tuple(tuple(str(s) for s in row) for row in self.strategies)
        self.__dict__.update(players=players, strategies=strategies)
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
        self.__dict__["shape"] = GameShape(tuple(map(len, strategies)))

    def _require(self, other: StrategySpace) -> None:
        """Raise unless ``other`` is this frame: ``ShapeMismatch`` where the
        strategy counts differ, ``NameMismatch`` where only names do."""
        if self != other:
            if self.shape != other.shape:
                raise ShapeMismatch(
                    f"cannot compare shape {self.shape.strategy_counts} "
                    f"with shape {other.shape.strategy_counts}"
                )
            raise NameMismatch("games disagree on player or strategy names")

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

    def _offer_key(self, payer: str, payee: str, strategy: str) -> tuple[int, int, int]:
        """An offer's (payer, payee, payee strategy) index triple; raises
        ``UnknownPlayer`` or ``UnknownStrategy`` on the first unknown name."""
        return self.player_index(payer), self.player_index(payee), self.strategy_index(payee, strategy)

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


class Game(_Record):
    """A finite normal form game with exact payoffs.

    ``payoffs`` holds one payoff vector per profile in row-major order
    (see ``GameShape.profiles``).  ``space`` is the ``StrategySpace`` that
    construction validated, and ``shape`` its ``GameShape``, both kept on
    the instance.  Instances are immutable;
    transformations return new games over the same space.

    Built from outside the package, construction validates the frame,
    coerces every payoff with ``as_rational`` and checks the cell count and
    each vector's length.  Values are checked in row-major order, and each
    distinct exact int or str is coerced once per construction, through a
    memo keyed as ``cli._read_payoffs`` keys its own, so equal ones share
    one ``Fraction``.  The package's own builders hand over the frame's
    space (``_space``) with cells they have already checked or built
    exactly, and those are taken as given.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    payoffs: tuple[PayoffVector, ...]

    def __init__(self, players, strategies, payoffs, *, _space=None, _known_scales=None) -> None:
        # _space: a StrategySpace a caller inside the package has already
        # validated, handed over with payoffs already checked against it: a
        # tuple, one tuple of exact Fractions per profile.  Both are taken as
        # given only if the space names exactly the players and strategies
        # given.  _known_scales: the payoffs' scales (``_scales(payoffs)``) a
        # caller inside the package has already computed; ``_scaled`` takes
        # them over instead of computing them again
        self.__dict__.update(players=players, strategies=strategies, payoffs=payoffs)
        self.__post_init__(_space, _known_scales)

    def __post_init__(self, space: StrategySpace | None, _known_scales):
        if space is None or (space.players, space.strategies) != (self.players, self.strategies):
            space = StrategySpace(tuple(self.players), tuple(tuple(r) for r in self.strategies))
            memo: dict = {}
            cells = tuple([_vector(cell, memo) for cell in self.payoffs])
            self.__dict__.update(players=space.players, strategies=space.strategies, payoffs=cells)
            size = space.shape.size
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
        self.__dict__.update(space=space, shape=space.shape)
        if _known_scales is not None:
            self.__dict__["_known_scales"] = _known_scales

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The payoffs as Python ints over one common denominator per player,
        stored by player: ``(scales, columns)`` with ``columns[k][f] ==
        payoffs[f][k] * scales[k]`` for the row-major flat index f, and
        ``scales[k]`` the lcm of player k's payoff denominators.  Player k's
        ints compare and subtract exactly as their ``Fraction``s do, so
        read-only kernels can work on them directly.  One scale per player
        keeps each int as short as that player's own denominators allow."""
        # scales given at construction are handed over once, so that the
        # instance then holds what a fresh game's view leaves
        scales = self.__dict__.pop("_known_scales", None) or _scales(self.payoffs)
        columns = tuple(
            tuple([v._numerator * (scale // v._denominator) for v in column])
            for scale, column in zip(scales, zip(*self.payoffs))
        )
        return scales, columns

    @cached_property
    def _slices(self) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
        """Each player k's ints from ``_scaled`` as ``(lists, opposing)``:
        one tuple per strategy t of k, plus the flat indices ``opposing``
        where k plays their first strategy.  Entry i of ``lists[t]`` is k's
        payoff at ``opposing[i] + t * shape.strides[k]``, so entry i of every
        list faces the same opposing profile.  Built once per game, as
        tuples, for the analysis kernels and ``make_profile_dominant``."""
        shape = self.shape
        tables = []
        for stride, count, column in zip(shape.strides, shape.strategy_counts, self._scaled[1]):
            block = stride * count
            opposing = tuple(
                start + low for start in range(0, shape.size, block) for low in range(stride)
            )
            lists = tuple(
                tuple([column[flat + t] for flat in opposing]) for t in range(0, block, stride)
            )
            tables.append((lists, opposing))
        return tuple(tables)

    def payoff(self, profile: Sequence[int]) -> PayoffVector:
        """The payoff vector at a profile of 0-based strategy indices."""
        return self.payoffs[self.shape.flat_index(profile)]


def _total(cell: PayoffVector) -> tuple[int, int]:
    """A payoff vector's sum as an unreduced ``(numerator, denominator)``,
    over the product of the vector's own denominators: how profile totals
    compare across players whose scales differ, since that product stays
    short even where the players' scales are long."""
    num, den = 0, 1
    for v in cell:
        d = v._denominator
        num, den = num * d + v._numerator * den, den * d
    return num, den


def _sum(values: Sequence[Fraction], minus: Sequence[Fraction] = ()) -> Fraction:
    """``sum(values) - sum(minus)`` as one ``Fraction``, added value by value
    on int pairs by Knuth's method (TAOCP Vol. 2, 4.5.1): the running sum
    stays in lowest terms over the lcm of the denominators read so far, not
    their product, and each step takes a gcd of two denominators and one of
    that gcd, never a gcd of the sum itself.  That is how values gathered
    from many profiles or offers are summed: the product of their
    denominators, which ``_total`` takes, grows with their count, and a gcd
    of a long sum costs more than the sum."""
    num, den = 0, 1
    for v, sign in (*zip(values, repeat(1)), *zip(minus, repeat(-1))):
        g = math.gcd(den, v._denominator)
        t = num * (v._denominator // g) + sign * v._numerator * (den // g)
        g2 = math.gcd(t, g)
        num, den = t // g2, den // g * (v._denominator // g2)
    return _fraction(num, den, 1)


def _add_separable(
    game: Game, origin: Sequence[Fraction], steps: Sequence[Sequence[Sequence[Fraction]]]
) -> Game:
    """``game`` with ``origin + sum_k steps[k][p_k]`` added to the payoff vector
    at every profile p.

    Each player's column is expanded one axis at a time in row-major order
    as unreduced int pairs ``(a, b)``, so a cell's ``b`` is the product of
    only the origin's denominator and its own nonzero steps': a zero step
    entry, as most of a dominate set's are, hands on the pair it holds.
    Each moved payoff is built from its pair and the old payoff in the
    column's own loop, as ``_fraction`` builds one (one gcd, then the two
    slots in lowest terms), since a call per payoff took more of an apply
    than the arithmetic; a payoff whose pair adds 0 is handed back as it is,
    the source's own object.  The game's integer view ``_scaled`` is never
    read.
    """
    gcd, new = math.gcd, object.__new__
    columns = []
    for k, column in enumerate(zip(*game.payoffs)):
        pairs = [(origin[k]._numerator, origin[k]._denominator)]
        for axis in steps:
            reads = [(s[k]._numerator, s[k]._denominator) for s in axis]
            pairs = [(p[0] * d + n * p[1], p[1] * d) if n else p for p in pairs for n, d in reads]
        # moved payoffs are built here as _fraction builds them, not by a call
        # each: the call cost more than the arithmetic (both applies of 100
        # transform requests: 71 -> 61 ms CPU, Python 3.11 on a 2-vCPU VM)
        cells = []
        append = cells.append
        for v, (a, b) in zip(column, pairs):
            if a:
                d = v._denominator
                n = v._numerator * b + a * d
                d *= b
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
                v = new(Fraction)
                v._numerator = n
                v._denominator = d
            append(v)
        columns.append(cells)
    return Game(game.players, game.strategies, tuple(zip(*columns)), _space=game.space)


def make_game(
    players: Sequence[str],
    strategies: Sequence[Sequence[str]] | Mapping[str, Sequence[str]],
    payoff_entries: Mapping[tuple[str, ...], Sequence[RationalLike]]
    | Iterable[tuple[Sequence[str], Sequence[RationalLike]]],
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
    memo: dict = {}
    for names, values in items:
        profile = space.profile_from_names(tuple(names))
        # indices read off the names are in range, so none is validated again
        flat = sum(map(mul, profile, shape.strides))
        if flat in cells:
            raise DuplicateOutcome(f"profile {space.name_profile(profile)} assigned twice")
        values = _vector(values, memo)
        if len(values) != len(players):
            raise ArityMismatch(
                f"profile {space.name_profile(profile)}: payoff vector of length "
                f"{len(values)} in a {len(players)}-player game"
            )
        cells[flat] = values
    if len(cells) != shape.size:
        missing = shape._profile_at(next(f for f in range(shape.size) if f not in cells))
        raise MissingOutcome(f"no payoff vector for profile {space.name_profile(missing)}")
    payoffs = tuple(cells[i] for i in range(shape.size))
    return Game(space.players, space.strategies, payoffs, _space=space)


def payoff_sum(game: Game, profile: Sequence[int]) -> Fraction:
    """Total payoff across all players at a profile."""
    return Fraction(*_total(game.payoff(profile)))
