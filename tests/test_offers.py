import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preplay import (
    Game,
    NameMismatch,
    Offer,
    OfferSet,
    SelfOffer,
    ShapeMismatch,
    UnknownPlayer,
    UnknownStrategy,
    apply_offer,
    apply_offer_set,
    canonicalize,
    dominance,
    invert_offer,
    invert_offer_set,
    payoff_sum,
)
from conftest import pd_game, random_game, random_offer_set


def offer(payer, payee, strategy, amount):
    return Offer(payer, payee, strategy, amount)


# ---------------------------------------------------------------------------
# primitive application


def test_apply_offer_pd_first_step(m0, m1):
    assert apply_offer(m0, offer("I", "II", "C", 2)) == m1


def test_apply_offer_pd_second_step(m1, m2):
    assert apply_offer(m1, offer("II", "I", "C", 2)) == m2


def test_apply_offer_zero_amount_is_identity(m0):
    assert apply_offer(m0, offer("I", "II", "C", 0)) == m0


def test_apply_offer_moves_amount_only_on_named_strategy(m0):
    game = apply_offer(m0, offer("I", "II", "D", Fraction(1, 2)))
    assert game.payoff((0, 0)) == (4, 4)
    assert game.payoff((1, 0)) == (5, 0)
    assert game.payoff((0, 1)) == (Fraction(-1, 2), Fraction(11, 2))
    assert game.payoff((1, 1)) == (Fraction(1, 2), Fraction(3, 2))


def test_apply_offer_name_errors(m0):
    with pytest.raises(UnknownPlayer):
        apply_offer(m0, offer("X", "II", "C", 1))
    with pytest.raises(UnknownStrategy):
        apply_offer(m0, offer("I", "II", "X", 1))


def test_self_offer_rejected():
    with pytest.raises(SelfOffer):
        offer("I", "I", "C", 1)


# ---------------------------------------------------------------------------
# one-pass application against the per-offer cell scan


def per_offer_apply(game: Game, offer: Offer) -> Game:
    """Reference application of one offer: scan every cell and move the
    amount wherever the payee plays the named strategy."""
    space = game.space
    payer = space.player_index(offer.payer)
    payee = space.player_index(offer.payee)
    strategy = space.strategy_index(offer.payee, offer.payee_strategy)
    shape = game.shape
    stride = shape.strides[payee]
    count = shape.strategy_counts[payee]
    amount = offer.amount

    cells = list(game.payoffs)
    for flat, cell in enumerate(cells):
        if (flat // stride) % count != strategy:
            continue
        updated = list(cell)
        updated[payer] -= amount
        updated[payee] += amount
        cells[flat] = tuple(updated)
    return Game(game.players, game.strategies, tuple(cells))


def per_offer_apply_set(game: Game, offer_set: OfferSet) -> Game:
    """Reference application of an offer set: one offer after another."""
    for offer in offer_set:
        game = per_offer_apply(game, offer)
    return game


def assert_matches_per_offer_scan(game, offers):
    assert apply_offer_set(game, offers) == per_offer_apply_set(game, offers)
    for one in offers:
        assert apply_offer(game, one) == per_offer_apply(game, one)


def test_apply_offer_set_builds_one_game(monkeypatch, m0):
    built = []
    validate = Game.__post_init__

    def counting(game, *frame):
        built.append(game)
        validate(game, *frame)

    monkeypatch.setattr(Game, "__post_init__", counting)
    apply_offer_set(m0, OfferSet(m0.space, (offer("I", "II", "C", 1),) * 20))
    assert len(built) == 1


def test_one_pass_apply_matches_per_offer_scan_on_corpus(corpus):
    for game, offers in corpus:
        assert_matches_per_offer_scan(game, offers)


def test_one_pass_apply_matches_per_offer_scan_up_to_four_players():
    # single-strategy players, 4 players, rational payoffs and repeated
    # (payer, payee, strategy) triples lie outside the shared corpus
    rng = random.Random(83)
    shapes = set()
    for _ in range(60):
        game = random_game(rng, max_players=4, min_strats=1)
        game = Game(
            game.players,
            game.strategies,
            tuple(tuple(Fraction(v, rng.choice((1, 2, 3))) for v in cell) for cell in game.payoffs),
        )
        shapes.add(game.shape.strategy_counts)
        offers = random_offer_set(rng, game.space, max_offers=12).offers
        repeated = offers + tuple(rng.choice(offers) for _ in range(3) if offers)
        for subset in ((), offers, repeated):
            assert_matches_per_offer_scan(game, OfferSet(game.space, subset))
    assert any(len(counts) == 4 for counts in shapes)
    assert any(1 in counts for counts in shapes)


# ---------------------------------------------------------------------------
# composite application


def test_apply_offer_set_reaches_m2(m0, m2):
    offers = OfferSet(m0.space, (offer("I", "II", "C", 2), offer("II", "I", "C", 2)))
    assert apply_offer_set(m0, offers) == m2


def test_empty_offer_set_is_identity(m0):
    assert apply_offer_set(m0, OfferSet(m0.space, ())) == m0


def test_repeated_offers_merge(m0):
    twice = OfferSet(m0.space, (offer("I", "II", "C", 1), offer("I", "II", "C", 1)))
    once = OfferSet(m0.space, (offer("I", "II", "C", 2),))
    assert apply_offer_set(m0, twice) == apply_offer_set(m0, once)


def test_offer_set_validates_names(m0):
    with pytest.raises(UnknownPlayer):
        OfferSet(m0.space, (offer("X", "II", "C", 1),))
    with pytest.raises(UnknownPlayer):
        OfferSet(m0.space, (offer("I", "X", "C", 1),))
    with pytest.raises(UnknownStrategy):
        OfferSet(m0.space, (offer("I", "II", "E", 1),))


def test_apply_offer_set_frame_mismatch(m0):
    other = random_game(random.Random(1), min_players=3, max_players=3)
    offers = OfferSet(other.space, ())
    with pytest.raises(ShapeMismatch):
        apply_offer_set(m0, offers)
    renamed = Game(("X", "Y"), m0.strategies, m0.payoffs)
    with pytest.raises(NameMismatch):
        apply_offer_set(m0, OfferSet(renamed.space, ()))


def test_two_person_canonical_formula(m0):
    # a player-1 payoff changes by (incoming on own strategy) - (outgoing on
    # the opponent's strategy), and symmetrically for player 2
    delta_a = {"C": Fraction(3), "D": Fraction(1, 2)}  # I pays II on II's play
    delta_b = {"C": Fraction(2), "D": Fraction(0)}  # II pays I on I's play
    offers = OfferSet(
        m0.space,
        tuple(offer("I", "II", s, a) for s, a in delta_a.items())
        + tuple(offer("II", "I", s, a) for s, a in delta_b.items()),
    )
    transformed = apply_offer_set(m0, offers)
    for (i, row_name) in enumerate(("C", "D")):
        for (j, col_name) in enumerate(("C", "D")):
            a, b = m0.payoff((i, j))
            assert transformed.payoff((i, j)) == (
                a - delta_a[col_name] + delta_b[row_name],
                b + delta_a[col_name] - delta_b[row_name],
            )


# ---------------------------------------------------------------------------
# canonical form


def test_canonicalize_merges_and_orders(m0):
    space = m0.space
    raw = OfferSet(
        space,
        (
            offer("II", "I", "D", 1),
            offer("I", "II", "C", 1),
            offer("I", "II", "C", 2),
        ),
    )
    canon = canonicalize(raw)
    assert [(o.payer, o.payee, o.payee_strategy, o.amount) for o in canon] == [
        ("I", "II", "C", Fraction(3)),
        ("II", "I", "D", Fraction(1)),
    ]


def test_canonicalize_drops_zero_and_cancellation(m0):
    space = m0.space
    assert canonicalize(OfferSet(space, ())).offers == ()
    cancelling = OfferSet(space, (offer("I", "II", "C", 2), offer("I", "II", "C", -2)))
    assert canonicalize(cancelling).offers == ()


def test_canonicalize_preserves_transformation(m0):
    rng = random.Random(5)
    for _ in range(10):
        offers = random_offer_set(rng, m0.space)
        assert apply_offer_set(m0, offers) == apply_offer_set(m0, canonicalize(offers))


# ---------------------------------------------------------------------------
# inverses


def test_invert_offer_construction(m0):
    inverse = invert_offer(offer("I", "II", "C", 2), m0.space)
    assert {(o.payer, o.payee, o.payee_strategy, o.amount) for o in inverse} == {
        ("I", "II", "D", Fraction(2)),
        ("II", "I", "C", Fraction(2)),
        ("II", "I", "D", Fraction(2)),
    }


def test_invert_offer_zero_amount(m0):
    assert invert_offer(offer("I", "II", "C", 0), m0.space).offers == ()


def test_invert_offer_undoes(m0):
    one = offer("I", "II", "C", 2)
    stepped = apply_offer(m0, one)
    assert apply_offer_set(stepped, invert_offer(one, m0.space)) == m0


def test_invert_offer_set_empty(m0):
    assert invert_offer_set(OfferSet(m0.space, ())).offers == ()


def test_invert_offer_set_single_matches_invert_offer(m0):
    one = offer("II", "I", "D", 3)
    assert invert_offer_set(OfferSet(m0.space, (one,))) == invert_offer(one, m0.space)


def test_invert_offer_set_undoes_pd_pair(m0):
    offers = OfferSet(m0.space, (offer("I", "II", "C", 2), offer("II", "I", "C", 2)))
    transformed = apply_offer_set(m0, offers)
    assert apply_offer_set(transformed, invert_offer_set(offers)) == m0


# ---------------------------------------------------------------------------
# group laws on generated inputs


@st.composite
def game_with_offers(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    game = random_game(rng)
    return game, random_offer_set(rng, game.space), random_offer_set(rng, game.space)


@settings(max_examples=30, deadline=None)
@given(game_with_offers())
def test_application_is_order_independent(data):
    game, first, second = data
    both = OfferSet(game.space, first.offers + second.offers)
    assert apply_offer_set(apply_offer_set(game, first), second) == apply_offer_set(
        apply_offer_set(game, second), first
    )
    assert apply_offer_set(game, both) == apply_offer_set(game, canonicalize(both))
    shuffled = list(both.offers)
    random.Random(0).shuffle(shuffled)
    assert apply_offer_set(game, OfferSet(game.space, tuple(shuffled))) == apply_offer_set(
        game, both
    )


@settings(max_examples=30, deadline=None)
@given(game_with_offers())
def test_inverse_law(data):
    game, offers, _ = data
    assert apply_offer_set(apply_offer_set(game, offers), invert_offer_set(offers)) == game


@settings(max_examples=30, deadline=None)
@given(game_with_offers())
def test_conservation_of_outcome_sums(data):
    game, offers, _ = data
    transformed = apply_offer_set(game, offers)
    for profile in game.shape.profiles():
        assert payoff_sum(transformed, profile) == payoff_sum(game, profile)


@settings(max_examples=20, deadline=None)
@given(game_with_offers())
def test_own_offers_never_change_own_dominance(data):
    game, _, _ = data
    rng = random.Random(game.shape.size)
    payer = game.players[0]
    outgoing = random_offer_set(rng, game.space, payer=0)
    transformed = apply_offer_set(game, outgoing)
    assert dominance(transformed, payer) == dominance(game, payer)
