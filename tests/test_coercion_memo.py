"""The public builders (``Game``, ``make_game`` and ``Seed``) coerce each
distinct exact int or str once per construction, through a memo that
``core._vector`` is handed, keyed as the document parser keys its own.
Each builder is checked here against a per-value ``as_rational`` reference,
and the memo's keying rule against values that equal a key and hash alike
but are not payoffs."""

import enum
import itertools
import math
import random
from fractions import Fraction

import pytest

from preplay import Game, Seed, as_rational, core, make_game
from preplay.core import _vector


class Level(enum.IntEnum):
    LOW = -2
    HIGH = 5


class Exact(Fraction):
    """A ``Fraction`` subclass, as a library caller may pass one."""


# few distinct values of every kind a caller may pass, so that each repeats
POOL = [0, 1, -2, 5, "0", "1", "-2", "3/4", "-3/4", "0.25", "1.5", Fraction(3, 4), Fraction(-2),
        Level.LOW, Level.HIGH, Exact(1, 3), Exact(5)]


def exact(value):
    return type(value) is int or type(value) is str


def builders(players, strategies, cells):
    """The payoffs each public builder reads from ``cells``, one per
    profile in row-major order; ``Seed`` is given every profile."""
    profiles = list(itertools.product(*(range(len(row)) for row in strategies)))
    entries = {
        tuple(strategies[k][i] for k, i in enumerate(p)): cell for p, cell in zip(profiles, cells)
    }
    return {
        "Game": lambda: Game(players, strategies, cells).payoffs,
        "make_game": lambda: make_game(players, strategies, entries).payoffs,
        "Seed": lambda: tuple(Seed(profiles[0], dict(zip(profiles, cells))).assignments.values()),
    }


@pytest.fixture
def coercions(monkeypatch):
    """The values ``core.as_rational`` is called on, in call order."""
    calls = []
    as_rational = core.as_rational

    def counting(value):
        calls.append(value)
        return as_rational(value)

    monkeypatch.setattr(core, "as_rational", counting)
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_builders_match_a_per_value_reference_on_repeated_values(seed):
    rng = random.Random(seed)
    counts = rng.choice([(2, 2), (3, 4), (2, 3, 2), (3, 3, 3)])
    players = tuple(f"P{k}" for k in range(len(counts)))
    strategies = tuple(tuple(f"s{i}" for i in range(c)) for c in counts)
    cells = [tuple(rng.choice(POOL) for _ in counts) for _ in range(math.prod(counts))]
    reference = tuple(tuple(map(as_rational, cell)) for cell in cells)
    for name, build in builders(players, strategies, cells).items():
        payoffs = build()
        assert payoffs == reference, name
        assert {type(v) for cell in payoffs for v in cell} == {Fraction}, name


def test_equal_exact_ints_and_strings_share_one_fraction():
    players, strategies = ("I", "II"), (("a", "b"), ("c", "d"))
    cells = [(3, "1/2"), ("1/2", 3), (3, 7), ("7", "1/2")]
    for name, build in builders(players, strategies, cells).items():
        payoffs = build()
        threes = [payoffs[0][0], payoffs[1][1], payoffs[2][0]]
        halves = [payoffs[0][1], payoffs[1][0], payoffs[3][1]]
        assert all(v is threes[0] for v in threes), name
        assert all(v is halves[0] for v in halves), name
        # the int 7 and the string "7" are two keys: equal, not one object
        assert payoffs[2][1] == payoffs[3][0] and payoffs[2][1] is not payoffs[3][0], name
        # the memo lives for one construction only
        assert build()[0][0] is not threes[0], name


def test_as_rational_runs_once_per_distinct_exact_int_or_string(coercions):
    players, strategies = ("I", "II", "III"), (("a", "b"), ("c", "d"), ("e",))
    rng = random.Random(26)
    cells = [tuple(rng.choice(POOL) for _ in players) for _ in range(4)]
    values = [v for cell in cells for v in cell]
    # the first of each exact int or str, keyed by type as well since 1 and "1"
    # are two keys; every other value is coerced where it stands
    seen = set()
    expected = []
    for v in values:
        if not exact(v) or (type(v), v) not in seen:
            expected.append(v)
        if exact(v):
            seen.add((type(v), v))
    assert len(expected) < len(values)
    for name, build in builders(players, strategies, cells).items():
        build()
        assert [(type(v), v) for v in coercions] == [(type(v), v) for v in expected], name
        coercions.clear()


@pytest.mark.parametrize(
    "key, trap", [(1, True), (0, False), (1, 1.0), (0, 0.0)], ids=["True", "False", "1.0", "0.0"]
)
def test_a_value_that_hashes_like_a_key_is_not_read_through_it(key, trap):
    # True, False, 1.0 and 0.0 equal 1 or 0 and hash alike, but none is a payoff
    players, strategies = ("I", "II"), (("a", "b"), ("c",))
    cells = [(key, key), (5, trap)]
    for name, build in builders(players, strategies, cells).items():
        with pytest.raises(TypeError) as raised:
            build()
        assert str(raised.value) == f"not a rational value: {trap!r}", name


@pytest.mark.parametrize("bad", ["1/0", "x", "1e3", " 1", "1/2/3"])
def test_a_bad_string_after_good_ones_keeps_its_message(bad):
    players, strategies = ("I", "II"), (("a", "b"), ("c",))
    cells = [("1/2", "1"), ("1/2", bad)]
    for name, build in builders(players, strategies, cells).items():
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == f"not a rational value: {bad!r}", name


def test_the_memo_keys_only_exact_ints_and_strings_that_coerce():
    memo = {}
    vector = _vector((2, "2", "2/4", Fraction(2), Level.HIGH, Exact(1, 3)), memo)
    assert vector == (2, 2, Fraction(1, 2), 2, 5, Fraction(1, 3))
    assert [(type(k), k) for k in memo] == [(int, 2), (str, "2"), (str, "2/4")]
    with pytest.raises(ValueError):
        _vector(("1/2", "1/0"), memo)
    with pytest.raises(TypeError):
        _vector((2, True), memo)
    # "1/2" was coerced before the fault and kept; the bad string never was
    assert [(type(k), k) for k in memo][3:] == [(str, "1/2")]
