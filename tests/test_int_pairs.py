"""Exact sums on int pairs: every path that used ``Fraction``'s operators now
adds through ``core``'s int-pair kernels (``_sum``, ``_fraction``) and writes
payoff text through ``core._text``.

The ``Fraction``-operator formulas these replaced live on below as
references; each new path must give the same numbers, in lowest terms, and
the same text and messages.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from preplay import (
    Game,
    Seed,
    apply_offer_set,
    complete_from_seed,
    invert_offer_set,
    make_profile_dominant,
    nonnegative_decomposition,
    synthesize_offers,
)
from preplay.characterize import _check
from preplay.cli import parse_game, parse_offers, serialize_game, serialize_offers
from preplay.core import _add_separable, _fraction, _sum, _text
from preplay.offers import Offer, OfferSet, _canonical
from conftest import random_game, random_offer_set, shape_game


def assert_lowest_terms(value):
    assert type(value) is Fraction
    assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


def coprime_denominators(digits, start=1):
    """Distinct odd denominators ``10**digits + start``, ``+ 2``, ...: long,
    and any two share at most a factor of their small difference."""
    base, odd = 10**digits, start
    while True:
        yield base + odd
        odd += 2


def long_game(rng, counts, digits):
    """A game of the given shape whose payoffs are k/d over their own long
    denominators, one per payoff."""
    dens = coprime_denominators(digits)
    players = tuple(f"P{k + 1}" for k in range(len(counts)))
    strategies = tuple(tuple(f"s{j + 1}" for j in range(c)) for c in counts)
    cells = tuple(
        tuple(Fraction(rng.randint(-9, 9), next(dens)) for _ in counts)
        for _ in range(math.prod(counts))
    )
    return Game(players, strategies, cells)


def long_offer_set(rng, space, digits):
    """One offer per payer, payee and payee strategy, of ±k/d over its own
    long denominator."""
    dens = coprime_denominators(digits, start=10**4 + 1)
    n = len(space.players)
    offers = [
        Offer(space.players[p], space.players[q], s, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), next(dens)))
        for p in range(n)
        for q in range(n)
        if p != q
        for s in space.strategies[q]
    ]
    return OfferSet(space, tuple(offers))


# ---------------------------------------------------------------------------
# _sum


def sum_cases(rng):
    small = lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9)))  # noqa: E731
    dens = coprime_denominators(300)
    yield [], []
    yield [Fraction(0)], [Fraction(0)]
    yield [Fraction(7)], []
    yield [], [Fraction(-5, 6)]
    # equal denominators that cancel, to 0 and to an integer
    yield [Fraction(1, 6), Fraction(5, 6)], []
    yield [Fraction(1, 6)], [Fraction(1, 6)]
    yield [Fraction(1, 2), Fraction(1, 3)], [Fraction(5, 6)]
    yield [Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 2)]
    for _ in range(300):
        yield [small() for _ in range(rng.randint(0, 6))], [small() for _ in range(rng.randint(0, 3))]
    for _ in range(20):
        # long coprime denominators, zeros and repeats among them
        pool = [Fraction(rng.randint(-9, 9), next(dens)) for _ in range(4)] + [Fraction(0)]
        yield [rng.choice(pool) for _ in range(rng.randint(1, 6))], [rng.choice(pool) for _ in range(2)]


def test_sum_matches_fraction_operators():
    rng = random.Random(401)
    for values, minus in sum_cases(rng):
        result = _sum(values, minus)
        assert result == sum(values, Fraction(0)) - sum(minus, Fraction(0))
        assert_lowest_terms(result)


def test_fraction_takes_a_known_gcd_as_given():
    # the caller's gcd replaces the one _fraction would take
    value = _fraction(6, 8, 2)
    assert (value.numerator, value.denominator) == (3, 4)
    assert _fraction(6, 8) == Fraction(3, 4)


# ---------------------------------------------------------------------------
# completion


def fraction_completion(source, seed):
    """``complete_from_seed``'s outer sum with each star difference and the
    origin built by ``Fraction``'s operators, as before the int-pair path."""
    shape = source.shape
    n = shape.player_count
    star = list(shape.star(seed.base_profile))
    base = star[0]
    diff = {p: tuple(t - s for t, s in zip(seed.assignments[p], source.payoff(p))) for p in star}
    origin = tuple((1 - n) * x for x in diff[base])
    steps = [
        [diff[base[:k] + (v,) + base[k + 1 :]] for v in range(count)]
        for k, count in enumerate(shape.strategy_counts)
    ]
    return _add_separable(source, origin, steps)


def assert_completion_matches_reference(source, target, base):
    seed = Seed(base, {p: target.payoff(p) for p in source.shape.star(base)})
    completed = complete_from_seed(source, seed)
    assert completed == fraction_completion(source, seed) == target
    for cell in completed.payoffs:
        for value in cell:
            assert_lowest_terms(value)


def test_completion_matches_fraction_differences_on_corpus(corpus):
    rng = random.Random(403)
    for game, offers in corpus:
        base = tuple(rng.randrange(c) for c in game.shape.strategy_counts)
        assert_completion_matches_reference(game, apply_offer_set(game, offers), base)


@pytest.mark.parametrize("counts", [(3, 3, 2), (2, 3, 2, 2)])
def test_completion_matches_fraction_differences_on_long_coprime_denominators(counts):
    rng = random.Random(sum(counts))
    game = long_game(rng, counts, 300)
    target = apply_offer_set(game, long_offer_set(rng, game.space, 300))
    for _ in range(3):
        base = tuple(rng.randrange(c) for c in counts)
        assert_completion_matches_reference(game, target, base)
        # and back: a source whose payoffs have long denominators of their own
        assert_completion_matches_reference(target, game, base)


# ---------------------------------------------------------------------------
# synthesis


def fraction_synthesis(source, target):
    """``synthesize_offers``'s net table with each player's balance and each
    amount paid to the first player built by ``Fraction``'s operators."""
    verdict, scales, star = _check(source, target)
    assert verdict.equivalent
    n = len(source.players)
    e = {}
    for q in range(1, n):
        for p in range(n):
            if p != q:
                axis = star[p][q]
                for t, c in enumerate(axis):
                    e[p, q, t] = Fraction(axis[-1] - c, scales[p])
    for p in range(1, n):
        received = sum(e[k, p, 0] for k in range(n) if k != p)
        paid = sum(e[p, k, 0] for k in range(1, n) if k != p)
        for t, c in enumerate(star[p][0]):
            e[p, 0, t] = received - paid - Fraction(c, scales[p])
    return _canonical(source.space, e)


def test_synthesis_matches_fraction_balances_on_corpus(corpus):
    for game, offers in corpus:
        target = apply_offer_set(game, offers)
        assert synthesize_offers(game, target).offers == fraction_synthesis(game, target)


@pytest.mark.parametrize("counts", [(3, 3, 2), (2, 3, 2, 2)])
def test_synthesis_matches_fraction_balances_on_long_coprime_denominators(counts):
    rng = random.Random(len(counts))
    game = long_game(rng, counts, 300)
    target = apply_offer_set(game, long_offer_set(rng, game.space, 300))
    result = synthesize_offers(game, target).offers
    assert result == fraction_synthesis(game, target)
    assert apply_offer_set(game, result) == target
    for offer in result:
        assert_lowest_terms(offer.amount)


# ---------------------------------------------------------------------------
# nonnegative decomposition and inverse


FRACTION_OPERATORS = (
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__neg__", "__bool__", "__add__", "__sub__"
)


def test_decomposition_and_inverse_run_no_fraction_operator(corpus):
    rng = random.Random(28)
    pairs = [(game, apply_offer_set(game, offers)) for game, offers in corpus]
    for counts in ((20, 20), (3, 3, 3)):
        game = shape_game(rng, counts)
        pairs.append((game, apply_offer_set(game, random_offer_set(rng, game.space, 40))))
    results = [synthesize_offers(game, target).offers for game, target in pairs]
    # signs are read and negative amounts negated, on both sides of zero
    assert any(o.amount < 0 for result in results for o in result)

    def refuse(*args):
        raise AssertionError("a Fraction operator ran")

    with pytest.MonkeyPatch.context() as patch:
        for name in FRACTION_OPERATORS:
            patch.setattr(Fraction, name, refuse)
        outputs = [(nonnegative_decomposition(r), invert_offer_set(r)) for r in results]
    for (game, target), (nonnegative, inverse) in zip(pairs, outputs):
        assert all(o.amount > 0 for o in nonnegative)
        assert apply_offer_set(game, nonnegative) == target
        assert apply_offer_set(target, inverse) == game


# ---------------------------------------------------------------------------
# make_profile_dominant


def test_dominate_gives_no_offer_where_the_margin_is_met_exactly():
    # I's C beats D by exactly 1/2, and II's C beats D by exactly 1/3,
    # against each of the other's strategies
    game = Game(
        ("I", "II"),
        (("C", "D"), ("C", "D")),
        (
            (Fraction(5, 2), Fraction(4, 3)),
            (Fraction(3), Fraction(1)),
            (Fraction(2), Fraction(7, 3)),
            (Fraction(5, 2), Fraction(2)),
        ),
    )
    # gap + margin is exactly 0 for I (gap -1/2) and for II (gap -1/3)
    assert make_profile_dominant(game, (0, 0), Fraction(1, 2)).offers == (
        Offer("I", "II", "C", Fraction(1, 6)),
    )
    assert make_profile_dominant(game, (0, 0), Fraction(1, 3)).offers == ()
    # just past it, each gets the shortfall
    assert make_profile_dominant(game, (0, 0), Fraction(2, 3)).offers == (
        Offer("I", "II", "C", Fraction(1, 3)),
        Offer("II", "I", "C", Fraction(1, 6)),
    )


def fraction_dominate(game, profile, margin):
    """``make_profile_dominant`` with each offer built by ``Fraction``'s
    operators: ``max(0, gap / scale + margin)``, straight from the payoffs."""
    n = len(profile)
    net = {}
    for k, designated in enumerate(profile):
        count = game.shape.strategy_counts[k]
        if count == 1:
            continue
        gap = None
        for p in game.shape.profiles():
            if p[k] != designated:
                continue
            own = game.payoff(p)[k]
            for t in range(count):
                if t != designated:
                    other = game.payoff(p[:k] + (t,) + p[k + 1 :])[k]
                    gap = other - own if gap is None else max(gap, other - own)
        net[(k + 1) % n, k, designated] = max(Fraction(0), gap + margin)
    return _canonical(game.space, net)


def test_dominate_matches_fraction_operators_at_exact_ties():
    # payoffs over {-1, -1/2, 0, 1/2, 1}, margins among the gaps: many
    # players are dominant by exactly the margin
    rng = random.Random(409)
    zero_offers = 0
    for _ in range(80):
        game = random_game(rng, max_players=4, min_strats=1)
        cells = tuple(tuple(Fraction(rng.randint(-2, 2), 2) for _ in cell) for cell in game.payoffs)
        game = Game(game.players, game.strategies, cells)
        profile = tuple(rng.randrange(c) for c in game.shape.strategy_counts)
        for margin in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            result = make_profile_dominant(game, profile, margin)
            assert result == fraction_dominate(game, profile, margin)
            zero_offers += len(game.players) - len(result)
    assert zero_offers > 0


# ---------------------------------------------------------------------------
# payoff text


TEXT_VALUES = [
    Fraction(0),
    Fraction(7),
    Fraction(-7),
    Fraction(1, 2),
    Fraction(-22, 7),
    Fraction(10**40 + 1, 3),
    Fraction(-1, 10**40 + 3),
]


@pytest.mark.parametrize("value", TEXT_VALUES, ids=str)
def test_text_is_str(value):
    assert _text(value) == str(value)


@pytest.mark.parametrize(
    "value",
    [Fraction(10**5000), Fraction(-(10**5000) - 1, 7), Fraction(3, 10**5000 + 1)],
    ids=["integer", "numerator", "denominator"],
)
def test_text_raises_as_str_past_the_digit_limit(value):
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    with pytest.raises(ValueError) as expected:
        str(value)
    with pytest.raises(ValueError) as got:
        _text(value)
    assert str(got.value) == str(expected.value)


def test_serializers_write_the_text_str_writes():
    # the documents' numbers are quoted str(Fraction)s
    rng = random.Random(411)
    game = long_game(rng, (2, 3), 50)
    offer_set = long_offer_set(rng, game.space, 50)
    game_text, offer_text = serialize_game(game), serialize_offers(offer_set)
    for value in (c for cell in game.payoffs for c in cell):
        assert f'"{value}"' in game_text
    for offer in offer_set:
        assert f'"amount": "{offer.amount}"' in offer_text
    assert parse_game(serialize_game(game)) == game
    assert parse_offers(serialize_offers(offer_set), game.space) == offer_set
