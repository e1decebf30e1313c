"""The package's own builders hand ``Game`` cells they have already checked or
exactly built, and ``Game`` takes them as given.  Each builder's game is
checked here against the public constructor's, which coerces and checks
every value, on the seeded corpus and on the game shapes of the benchmark's
``reach`` and ``transform`` workloads."""

import collections
import random
from fractions import Fraction

import pytest

from preplay import (
    Game,
    Offer,
    Seed,
    apply_offer,
    apply_offer_set,
    complete_from_seed,
    core,
    make_game,
)
from preplay.cli import parse_game, serialize_game
from conftest import WORKLOAD_SHAPES, random_offer_set, shape_game


def built_games(game, offer_set):
    """One game from each builder that hands ``Game`` its space."""
    space = game.space
    offer = next(iter(offer_set), None) or Offer(
        space.players[0], space.players[1], space.strategies[1][0], Fraction(3, 2)
    )
    target = apply_offer_set(game, offer_set)
    base = tuple(count - 1 for count in game.shape.strategy_counts)
    # read through the source's shape, so that no built game's shape is read here
    star = {p: target.payoffs[game.shape.flat_index(p)] for p in game.shape.star(base)}
    # make_game reads raw values: ints where the payoff is whole, else strings
    entries = {
        space.profile_names(p): tuple(v.numerator if v.denominator == 1 else str(v) for v in cell)
        for p, cell in zip(game.shape.profiles(), game.payoffs)
    }
    return {
        "parse_game": parse_game(serialize_game(game)),
        "make_game": make_game(space.players, space.strategies, entries),
        "apply_offer": apply_offer(game, offer),
        "apply_offer_set": target,
        "complete_from_seed": complete_from_seed(game, Seed(base, star)),
    }


@pytest.fixture(scope="module")
def cases(corpus):
    """(game, offer set) pairs: part of the corpus, then one per shape."""
    rng = random.Random(2012)
    pairs = list(corpus[:60])
    for counts in WORKLOAD_SHAPES:
        game = shape_game(rng, counts)
        pairs.append((game, random_offer_set(rng, game.space, max_offers=12)))
    return pairs


def test_built_games_match_the_public_constructor(cases):
    for game, offer_set in cases:
        built = built_games(game, offer_set)
        for name, g in built.items():
            # the frame's shape is set when the game is built, not on first read
            assert "shape" in vars(g) and g.shape is g.space.shape, name
            assert g == Game(g.players, g.strategies, g.payoffs), name
            assert type(g.payoffs) is tuple, name
            assert len(g.payoffs) == g.shape.size, name
            for cell in g.payoffs:
                assert type(cell) is tuple and len(cell) == len(g.players), name
                assert {type(v) for v in cell} == {Fraction}, name
        # the builders agree where they compute the same game
        assert built["parse_game"] == built["make_game"] == game
        assert built["complete_from_seed"] == built["apply_offer_set"]


@pytest.fixture
def coercions_in_game(monkeypatch):
    """Calls of ``core.as_rational`` made while a ``Game`` is constructed."""
    calls = []
    inside = []
    post_init = Game.__post_init__
    as_rational = core.as_rational

    def tracked(self, *args):
        inside.append(self)
        try:
            post_init(self, *args)
        finally:
            inside.pop()

    def counting(value):
        if inside:
            calls.append(value)
        return as_rational(value)

    monkeypatch.setattr(Game, "__post_init__", tracked)
    monkeypatch.setattr(core, "as_rational", counting)
    return calls


def test_builders_coerce_no_payoff_again(cases, coercions_in_game):
    for game, offer_set in cases[::6]:
        built = built_games(game, offer_set)
        assert coercions_in_game == []
        # the public constructor coerces each value once
        public = built["apply_offer_set"]
        Game(public.players, public.strategies, public.payoffs)
        assert len(coercions_in_game) == public.shape.size * len(public.players)
        coercions_in_game.clear()


class Exact(Fraction):
    """A ``Fraction`` subclass, as a library caller may pass one."""


def test_subclassed_values_enter_as_plain_fractions():
    rng = random.Random(2013)
    plain = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(8)]
    players, strategies = ("I", "II"), (("a", "b"), ("c", "d"))

    def built(values):
        cells = tuple(zip(values[::2], values[1::2]))
        entries = dict(zip([("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")], cells))
        game = Game(players, strategies, cells)
        offer = Offer("I", "II", "c", values[0])
        return {
            "Game": game,
            "make_game": make_game(players, strategies, entries),
            "apply_offer": apply_offer(game, offer),
            "offer": offer,
            "seed": Seed((0, 0), {(0, 0): cells[0], (0, 1): cells[1], (1, 0): cells[2]}),
        }

    subclassed = built([Exact(v) for v in plain])
    assert subclassed == built(plain)
    for name in ("Game", "make_game", "apply_offer"):
        assert {type(v) for cell in subclassed[name].payoffs for v in cell} == {Fraction}, name
    assert type(subclassed["offer"].amount) is Fraction
    seed_values = {type(v) for cell in subclassed["seed"].assignments.values() for v in cell}
    assert seed_values == {Fraction}


# a memoryview's repr holds its address, so its id is written out
@pytest.mark.parametrize(
    "cell",
    [
        "12",
        12,
        Fraction(3, 2),
        b"12",
        bytearray(b"12"),
        pytest.param(memoryview(b"12"), id="memoryview(b'12')"),
    ],
    ids=repr,
)
def test_builders_reject_a_string_or_a_number_as_the_constructor_does(cell):
    players, strategies = ("I", "II"), (("a", "b"), ("c",))
    cells = ((1, 2), cell)
    builders = {
        "Game": lambda: Game(players, strategies, cells),
        "make_game": lambda: make_game(players, strategies, {("a", "c"): (1, 2), ("b", "c"): cell}),
        "Seed": lambda: Seed((0, 0), {(0, 0): (1, 2), (1, 0): cell}),
    }
    messages = {}
    for name, build in builders.items():
        with pytest.raises(TypeError) as raised:
            build()
        messages[name] = str(raised.value)
    assert set(messages.values()) == {f"not a payoff vector: {cell!r}"}, messages


def test_builders_read_a_cell_iterable_only_by_index_as_the_constructor_does():
    class Indexed:
        def __getitem__(self, i):
            return (3, "1/2")[i]

    players, strategies = ("I", "II"), (("a", "b"), ("c",))
    vector = (Fraction(3), Fraction(1, 2))
    assert Game(players, strategies, ((1, 2), Indexed())).payoffs[1] == vector
    built = make_game(players, strategies, {("a", "c"): (1, 2), ("b", "c"): Indexed()})
    assert built.payoffs[1] == vector
    assert Seed((0, 0), {(1, 0): Indexed()}).assignments[(1, 0)] == vector


@pytest.mark.parametrize(
    "cell",
    [{"1/2", "3"}, frozenset({"1/2", "3"}), {0: "5", 1: "7"}, collections.OrderedDict(a=1, b=2)],
    ids=["set", "frozenset", "dict", "OrderedDict"],
)
def test_builders_reject_an_unordered_cell_as_the_constructor_does(cell):
    # a set iterates in hash order, which PYTHONHASHSEED moves, and a dict
    # as its keys, so neither is read as a payoff vector
    players, strategies = ("I", "II"), (("a", "b"), ("c",))
    builders = {
        "Game": lambda: Game(players, strategies, ((1, 2), cell)),
        "make_game": lambda: make_game(players, strategies, {("a", "c"): (1, 2), ("b", "c"): cell}),
        "Seed": lambda: Seed((0, 0), {(0, 0): (1, 2), (1, 0): cell}),
    }
    for name, build in builders.items():
        with pytest.raises(TypeError) as raised:
            build()
        assert str(raised.value) == f"not a payoff vector: {cell!r}", name


def test_builders_still_read_a_tuple_subclass_as_a_vector():
    # a tuple subclass is no exact tuple, so it takes the wider type test
    cell = collections.namedtuple("Pair", "first second")(3, "1/2")
    players, strategies = ("I", "II"), (("a",), ("c",))
    assert Game(players, strategies, (cell,)).payoffs == ((3, Fraction(1, 2)),)
    assert make_game(players, strategies, {("a", "c"): cell}).payoffs == ((3, Fraction(1, 2)),)
    assert Seed((0, 0), {(0, 0): cell}).assignments == {(0, 0): (3, Fraction(1, 2))}
