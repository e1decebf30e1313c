"""The outer-sum kernel behind apply and completion, against its Fraction
reference: whole payoff tuples, every payoff a Fraction, and every payoff the
reference leaves unchanged handed back as the source's own object."""

import random
from fractions import Fraction
from functools import cached_property

import preplay.complete
from preplay import (
    Game,
    Offer,
    OfferSet,
    Seed,
    apply_offer,
    apply_offer_set,
    complete_from_seed,
    make_profile_dominant,
)
from preplay.core import _add_separable
from conftest import (
    WORKLOAD_SHAPES,
    prime_denominator_game,
    random_game,
    random_offer_set,
    rational_game,
    shape_game,
)


def fraction_add_separable(game, origin, steps):
    """``game`` with ``origin + sum_k steps[k][p_k]`` added to the payoff vector
    at every profile p, expanded one axis at a time in row-major order."""
    deltas = [origin]
    for axis in steps:
        deltas = [tuple(x + y for x, y in zip(d, s)) for d in deltas for s in axis]
    payoffs = tuple(
        tuple(v + x for v, x in zip(cell, delta)) for cell, delta in zip(game.payoffs, deltas)
    )
    return Game(game.players, game.strategies, payoffs)


def fraction_apply(game, offer_set):
    """Apply by the reference kernel: one payment vector per (payee,
    strategy), each offer moving its amount from payer to payee."""
    space = game.space
    zero = (Fraction(0),) * len(game.players)
    steps = [[list(zero) for _ in row] for row in game.strategies]
    for offer in offer_set:
        payer = space.player_index(offer.payer)
        payee = space.player_index(offer.payee)
        strategy = space.strategy_index(offer.payee, offer.payee_strategy)
        steps[payee][strategy][payer] -= offer.amount
        steps[payee][strategy][payee] += offer.amount
    return fraction_add_separable(game, zero, steps)


def fraction_complete(monkeypatch, source, seed):
    """``complete_from_seed`` with the reference kernel in place."""
    with monkeypatch.context() as patch:
        patch.setattr(preplay.complete, "_add_separable", fraction_add_separable)
        return complete_from_seed(source, seed)


def assert_same_payoffs(game, reference, source):
    assert game.payoffs == reference.payoffs
    for cell, expected, old in zip(game.payoffs, reference.payoffs, source.payoffs):
        for value, want, was in zip(cell, expected, old):
            assert type(value) is Fraction and value == want
            # a payoff the kernel does not move is the source's own object
            assert value is was or want != was


def own_star_seed(rng, source, target):
    """The seed that fixes ``target`` on the star of a random base."""
    base = tuple(rng.randrange(count) for count in source.shape.strategy_counts)
    return Seed(base, {p: target.payoff(p) for p in source.shape.star(base)})


def assert_kernel_matches(monkeypatch, rng, game, offer_set):
    applied = apply_offer_set(game, offer_set)
    assert_same_payoffs(applied, fraction_apply(game, offer_set), game)
    for offer in offer_set:
        assert_same_payoffs(apply_offer(game, offer), fraction_apply(game, (offer,)), game)
    seed = own_star_seed(rng, game, applied)
    completed = complete_from_seed(game, seed)
    assert_same_payoffs(completed, fraction_complete(monkeypatch, game, seed), game)
    assert_same_payoffs(completed, applied, game)


def rational_offers(rng, space, count, denominator):
    """``count`` offers between random players, amounts of either sign over
    ``denominator(rng)``."""
    n = len(space.players)
    offers = []
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        amount = Fraction(rng.randint(-20, 20), denominator(rng))
        offers.append(
            Offer(space.players[i], space.players[j], rng.choice(space.strategies[j]), amount)
        )
    return OfferSet(space, tuple(offers))


def test_kernel_matches_reference_on_corpus(monkeypatch, corpus):
    rng = random.Random(101)
    for game, offer_set in corpus:
        assert_kernel_matches(monkeypatch, rng, game, offer_set)


def test_kernel_matches_reference_up_to_four_players(monkeypatch):
    # single-strategy players; empty, cancelling, negative and rational sets
    rng = random.Random(103)
    shapes = set()
    for _ in range(60):
        game = rational_game(rng)
        shapes.add(game.shape.strategy_counts)
        offers = rational_offers(rng, game.space, rng.randint(1, 12), lambda r: r.randint(1, 7))
        cancelling = offers.offers + tuple(
            Offer(o.payer, o.payee, o.payee_strategy, -o.amount) for o in offers
        )
        negative = tuple(o for o in offers if o.amount < 0)
        for subset in ((), offers.offers, cancelling, negative):
            assert_kernel_matches(monkeypatch, rng, game, OfferSet(game.space, subset))
    assert any(len(counts) == 4 for counts in shapes)
    assert any(1 in counts for counts in shapes)


def test_kernel_matches_reference_on_integers(monkeypatch):
    rng = random.Random(107)
    for _ in range(30):
        game = random_game(rng, max_players=4, min_strats=1)
        offers = rational_offers(rng, game.space, rng.randint(0, 12), lambda r: 1)
        assert_kernel_matches(monkeypatch, rng, game, offers)


def test_kernel_matches_reference_on_prime_denominators(monkeypatch):
    rng = random.Random(109)
    game = prime_denominator_game()
    for denominator in (lambda r: 1, lambda r: r.randint(1, 7)):
        offers = rational_offers(rng, game.space, 20, denominator)
        assert_kernel_matches(monkeypatch, rng, game, offers)


def test_kernel_matches_reference_on_long_denominators(monkeypatch):
    rng = random.Random(113)
    game = random_game(rng, min_players=3, max_players=3, max_strats=3)
    long = lambda r: r.randrange(10**299, 10**300)
    assert_kernel_matches(monkeypatch, rng, game, rational_offers(rng, game.space, 12, long))


def test_kernel_adds_origin_and_steps_like_the_reference():
    # arbitrary rational origins and steps, not only zero-sum ones
    rng = random.Random(127)
    value = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    for _ in range(40):
        game = rational_game(rng)
        n = len(game.players)
        origin = tuple(value() for _ in range(n))
        steps = [[tuple(value() for _ in range(n)) for _ in row] for row in game.strategies]
        assert_same_payoffs(
            _add_separable(game, origin, steps), fraction_add_separable(game, origin, steps), game
        )


def test_kernel_hands_back_the_payoffs_dominate_offers_do_not_move(monkeypatch):
    # a dominate offer set moves payoffs only at the profiles where its
    # payees play the designated strategies, and leaves the rest as they are
    rng = random.Random(137)
    for counts in WORKLOAD_SHAPES:
        game = shape_game(rng, counts)
        profile = tuple(rng.randrange(count) for count in counts)
        offer_set = make_profile_dominant(game, profile, Fraction(rng.randint(1, 9), 2))
        assert_kernel_matches(monkeypatch, rng, game, offer_set)
        applied = apply_offer_set(game, offer_set)
        old, new = (tuple(v for cell in g.payoffs for v in cell) for g in (game, applied))
        moved = sum(v is not w for v, w in zip(old, new))
        assert 0 < moved < len(old)
        # the same offers with amount 0 move nothing: a new, equal game
        # holding every payoff of the source
        zero = tuple(Offer(o.payer, o.payee, o.payee_strategy, 0) for o in offer_set)
        unmoved = apply_offer_set(game, OfferSet(game.space, zero))
        assert unmoved == game and unmoved is not game
        assert all(v is w for v, w in zip(old, (v for cell in unmoved.payoffs for v in cell)))


def test_zero_steps_between_nonzero_ones_leave_their_payoffs_unmoved(monkeypatch):
    # two dominate sets together pay each player on its first and last
    # strategies and never on the middle ones, so every axis's step has zero
    # entries between nonzero ones, which the kernel passes over
    rng = random.Random(149)
    for counts in ((3, 3, 3), (4, 3, 5), (3, 4)):
        game = shape_game(rng, counts)
        first = make_profile_dominant(game, (0,) * len(counts), 1)
        last = make_profile_dominant(game, tuple(c - 1 for c in counts), 1)
        offer_set = OfferSet(game.space, first.offers + last.offers)
        space = game.space
        paid = {
            (space.player_index(o.payee), space.strategy_index(o.payee, o.payee_strategy))
            for o in offer_set
        }
        assert paid == {(k, s) for k, c in enumerate(counts) for s in (0, c - 1)}
        assert_kernel_matches(monkeypatch, rng, game, offer_set)
        applied = apply_offer_set(game, offer_set)
        unmoved = 0
        for profile, new, old in zip(game.shape.profiles(), applied.payoffs, game.payoffs):
            for k in range(len(counts)):
                # k is paid where k plays an end strategy, and pays where the
                # player k pays plays one; elsewhere every step k takes is zero
                payee = (k - 1) % len(counts)
                if 0 < profile[k] < counts[k] - 1 and 0 < profile[payee] < counts[payee] - 1:
                    assert new[k] is old[k]
                    unmoved += 1
        assert unmoved > 0


def test_amounts_a_payee_receives_that_net_to_zero_leave_its_payoffs_unmoved(monkeypatch):
    # the payee's entry of a step is minus the total of its payers' entries,
    # on int pairs over the product of their denominators: the net amounts
    # 5/6 and -5/6 (1/2 + 1/3 and its negation), or 1/2, 1/3 and -5/6, each
    # leave the numerator 0 over 36
    rng = random.Random(139)
    game = shape_game(rng, (3, 3, 3, 3))
    p1, p2, p3, payee = game.players
    strategy = game.strategies[3][1]
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = (
        ((p1, half), (p1, third), (p2, -half), (p2, -third)),
        ((p1, half), (p2, third), (p3, -half - third)),
    )
    for amounts in cases:
        offers = OfferSet(game.space, tuple(Offer(p, payee, strategy, a) for p, a in amounts))
        assert_kernel_matches(monkeypatch, rng, game, offers)
        applied = apply_offer_set(game, offers)
        assert all(new[3] is old[3] for new, old in zip(applied.payoffs, game.payoffs))
        # each payer pays where the payee plays the strategy, and nowhere else
        payers = {game.players.index(p) for p, _ in amounts}
        for profile, new, old in zip(game.shape.profiles(), applied.payoffs, game.payoffs):
            for k in payers:
                assert (new[k] is old[k]) == (profile[3] != 1)


def test_writing_a_game_never_builds_the_integer_view(monkeypatch):
    view = Game.__dict__["_scaled"]
    computed = []

    def counting(game):
        computed.append(game)
        return view.func(game)

    patched = cached_property(counting)
    patched.__set_name__(Game, "_scaled")
    monkeypatch.setattr(Game, "_scaled", patched)
    rng = random.Random(131)
    for _ in range(10):
        game = rational_game(rng)
        offer_set = random_offer_set(rng, game.space, max_offers=8)
        applied = apply_offer_set(game, offer_set)
        for offer in offer_set:
            apply_offer(game, offer)
        complete_from_seed(game, own_star_seed(rng, game, applied))
    assert computed == []
