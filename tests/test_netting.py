"""Every offer-set construction nets its input once, into one table keyed by
(payer, payee, strategy) index triples, and builds one canonical OfferSet.

The per-offer constructions these replaced — each mapping names to indices,
netting, and building and re-validating an ``OfferSet`` per offer — live on
below as references; the new ones must return the same offers, in the same
order, with the same ``Fraction``s.
"""

import random
from fractions import Fraction

import pytest

from preplay import (
    Offer,
    OfferSet,
    StrategySpace,
    UnknownPlayer,
    UnknownStrategy,
    apply_offer_set,
    canonicalize,
    invert_offer,
    invert_offer_set,
    make_profile_dominant,
    nonnegative_decomposition,
    synthesize_offers,
)
from preplay.offers import _undo
from conftest import cube_game, pd_game, random_offer_set


# ---------------------------------------------------------------------------
# per-offer references


def reference_key(space, offer):
    return (
        space.player_index(offer.payer),
        space.player_index(offer.payee),
        space.strategy_index(offer.payee, offer.payee_strategy),
    )


def reference_canonicalize(offer_set):
    space = offer_set.space
    net = {}
    for offer in offer_set:
        key = reference_key(space, offer)
        net[key] = net.get(key, Fraction(0)) + offer.amount
    offers = tuple(
        Offer(space.players[p], space.players[q], space.strategies[q][s], amount)
        for (p, q, s), amount in sorted(net.items())
        if amount != 0
    )
    return OfferSet(space, offers)


def reference_invert_offer(offer, space):
    payee_row = space.strategies[space.player_index(offer.payee)]
    payer_row = space.strategies[space.player_index(offer.payer)]
    undo = [
        Offer(offer.payer, offer.payee, other, offer.amount)
        for other in payee_row
        if other != offer.payee_strategy
    ]
    undo += [Offer(offer.payee, offer.payer, own, offer.amount) for own in payer_row]
    return reference_canonicalize(OfferSet(space, tuple(undo)))


def reference_invert_offer_set(offer_set):
    space = offer_set.space
    undo = []
    for offer in offer_set:
        undo.extend(reference_invert_offer(offer, space))
    return reference_canonicalize(OfferSet(space, tuple(undo)))


def reference_nonnegative_decomposition(offer_set):
    space = offer_set.space
    out = []
    for offer in reference_canonicalize(offer_set):
        if offer.amount >= 0:
            out.append(offer)
        else:
            mirror = Offer(offer.payer, offer.payee, offer.payee_strategy, -offer.amount)
            out.extend(reference_invert_offer(mirror, space))
    return reference_canonicalize(OfferSet(space, tuple(out)))


def per_offer_undo(space, net, table):
    """The table of undoing offers built one net amount at a time, with
    ``Fraction``'s operators: each amount d of (p, q, s) is added to every
    (p, q, t) with t != s and to every (q, p, u)."""
    counts = space.shape.strategy_counts
    for (p, q, s), d in net.items():
        keys = [(p, q, t) for t in range(counts[q]) if t != s]
        keys += [(q, p, u) for u in range(counts[p])]
        for key in keys:
            table[key] = table[key] + d if key in table else d
    return table


def nonzero(table):
    return {key: d for key, d in table.items() if d != 0}


def assert_undo_matches_per_offer_reference(space, net, table=None):
    table = table or {}
    result = _undo(space, net, dict(table))
    assert nonzero(result) == nonzero(per_offer_undo(space, net, dict(table)))
    assert all(type(d) is Fraction for d in result.values())


def assert_same_offer_set(result, reference):
    assert result.space == reference.space
    assert result.offers == reference.offers
    assert all(type(o.amount) is Fraction for o in result)


def assert_netting_matches_reference(offer_set):
    space = offer_set.space
    assert_same_offer_set(canonicalize(offer_set), reference_canonicalize(offer_set))
    assert_same_offer_set(invert_offer_set(offer_set), reference_invert_offer_set(offer_set))
    assert_same_offer_set(
        nonnegative_decomposition(offer_set), reference_nonnegative_decomposition(offer_set)
    )
    for offer in offer_set:
        assert_same_offer_set(invert_offer(offer, space), reference_invert_offer(offer, space))


# ---------------------------------------------------------------------------
# differential tests


def netting_case(rng):
    """An offer set over 2-4 players with 1-4 strategies each, drawn from a
    few triples so that repeats abound, with zero, negative and rational
    amounts and exactly cancelling pairs."""
    n = rng.randint(2, 4)
    space = StrategySpace(
        tuple(f"P{i + 1}" for i in range(n)),
        tuple(tuple(f"s{j + 1}" for j in range(rng.randint(1, 4))) for _ in range(n)),
    )
    triples = []
    for _ in range(rng.randint(1, 5)):
        p, q = rng.sample(range(n), 2)
        triples.append((p, q, rng.randrange(len(space.strategies[q]))))
    offers = []
    for _ in range(rng.randint(0, 10)):
        p, q, s = rng.choice(triples)
        amount = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
        named = (space.players[p], space.players[q], space.strategies[q][s])
        offers.append(Offer(*named, amount))
        if rng.random() < 0.2:
            offers.append(Offer(*named, -amount))
    rng.shuffle(offers)
    return OfferSet(space, tuple(offers))


def test_netting_matches_per_offer_references_on_seeded_sets():
    rng = random.Random(409)
    seen = set()
    for _ in range(400):
        offer_set = netting_case(rng)
        assert_netting_matches_reference(offer_set)
        space = offer_set.space
        counts = space.shape.strategy_counts
        amounts = {}
        for offer in offer_set:
            key = (offer.payer, offer.payee, offer.payee_strategy)
            amounts.setdefault(key, []).append(offer.amount)
            if counts[space.player_index(offer.payee)] == 1:
                seen.add("single-strategy payee")
            if offer.amount == 0:
                seen.add("zero")
            if offer.amount < 0:
                seen.add("negative")
            if offer.amount.denominator > 1:
                seen.add("rational")
        if any(len(a) > 1 for a in amounts.values()):
            seen.add("repeated")
        if any(len(a) > 1 and sum(a) == 0 for a in amounts.values()):
            seen.add("cancelling")
        seen.add(f"{len(counts)} players")
    assert seen >= {
        "single-strategy payee", "zero", "negative", "rational", "repeated",
        "cancelling", "2 players", "3 players", "4 players",
    }


def test_netting_matches_per_offer_references_on_synthesized_corpus(corpus):
    for game, offers in corpus:
        synthesized = synthesize_offers(game, apply_offer_set(game, offers)).offers
        assert_netting_matches_reference(synthesized)
        assert_netting_matches_reference(offers)


def test_invert_offer_rejects_a_strategy_outside_the_space():
    space = pd_game().space
    stray = Offer("I", "II", "X", 2)
    # the per-offer construction never looked the strategy up
    assert len(reference_invert_offer(stray, space)) == 4
    with pytest.raises(UnknownStrategy):
        invert_offer(stray, space)
    with pytest.raises(UnknownPlayer):
        invert_offer(Offer("I", "III", "C", 2), space)


# ---------------------------------------------------------------------------
# one OfferSet per construction


def test_each_construction_builds_one_offer_set(monkeypatch):
    game = cube_game()
    offers = random_offer_set(random.Random(7), game.space, max_offers=12)
    target = apply_offer_set(game, offers)
    synthesized = synthesize_offers(game, target).offers
    assert any(o.amount < 0 for o in synthesized)

    built = []
    validate = OfferSet.__post_init__

    def counting(offer_set):
        built.append(offer_set)
        validate(offer_set)

    monkeypatch.setattr(OfferSet, "__post_init__", counting)
    calls = {
        "canonicalize": lambda: canonicalize(synthesized),
        "invert_offer": lambda: invert_offer(synthesized.offers[0], game.space),
        "invert_offer_set": lambda: invert_offer_set(synthesized),
        "nonnegative_decomposition": lambda: nonnegative_decomposition(synthesized),
        "synthesize_offers": lambda: synthesize_offers(game, target),
        "make_profile_dominant": lambda: make_profile_dominant(game, (0, 1, 0), 1),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert len(built) == 1, name


# ---------------------------------------------------------------------------
# the inverse by block totals against the per-offer table


def test_block_total_undo_matches_per_offer_table_on_seeded_sets():
    rng = random.Random(419)
    for _ in range(400):
        offer_set = netting_case(rng)
        space, net = offer_set.space, offer_set._table
        assert_undo_matches_per_offer_reference(space, net)
        # as nonnegative_decomposition calls it: the negative amounts,
        # negated, undone into a table of the positive ones
        positive = {key: d for key, d in net.items() if d > 0}
        assert_undo_matches_per_offer_reference(
            space, {key: -d for key, d in net.items() if d < 0}, positive
        )
        # into a table that already holds amounts on the same keys
        assert_undo_matches_per_offer_reference(space, net, dict(net))


def block_space(counts=(3, 4, 2)):
    return StrategySpace(
        tuple(f"P{i + 1}" for i in range(len(counts))),
        tuple(tuple(f"s{j + 1}" for j in range(c)) for c in counts),
    )


def test_block_total_undo_with_several_amounts_on_one_payee_strategy():
    # several offers on each of P2's strategies, netted into one amount per
    # strategy, in a block whose reverse block is full too
    space = block_space()
    amounts = [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(2), Fraction(-3, 4)]
    offers = [Offer("P1", "P2", s, a) for s in ("s1", "s1", "s3") for a in amounts[:3]]
    offers += [Offer("P1", "P2", "s4", a) for a in amounts]
    offers += [Offer("P2", "P1", s, a) for s in ("s1", "s2", "s3", "s2") for a in amounts[2:]]
    offer_set = OfferSet(space, tuple(offers))
    assert len(offer_set._table) == 3 + 3
    assert_undo_matches_per_offer_reference(space, offer_set._table)
    assert_netting_matches_reference(offer_set)


def test_block_total_undo_where_a_block_totals_zero():
    space = block_space()
    zero_total = {(0, 1, 0): Fraction(1, 2), (0, 1, 2): Fraction(-1, 2)}
    # alone; with a reverse block; with a reverse block that totals 0 too;
    # and with a block elsewhere
    cases = [
        zero_total,
        {**zero_total, (1, 0, 1): Fraction(3)},
        {**zero_total, (1, 0, 0): Fraction(2, 3), (1, 0, 2): Fraction(-2, 3)},
        {**zero_total, (2, 0, 1): Fraction(5, 6)},
    ]
    for net in cases:
        assert_undo_matches_per_offer_reference(space, net)
        assert_undo_matches_per_offer_reference(space, net, {(0, 1, 1): Fraction(1, 2)})
        names = space.players, space.strategies
        offer_set = OfferSet(space, tuple(
            Offer(names[0][p], names[0][q], names[1][q][t], d) for (p, q, t), d in net.items()
        ))
        assert_netting_matches_reference(offer_set)


def test_block_total_undo_on_long_coprime_amounts():
    # 300-digit denominators, one per amount, every two of them coprime but
    # for a factor of their small difference
    rng = random.Random(421)
    space = block_space((4, 3, 3))
    base, odd = 10**300, 1
    offers = []
    for p in range(3):
        for q in range(3):
            if p != q:
                for s in space.strategies[q]:
                    amount = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), base + odd)
                    offers.append(Offer(space.players[p], space.players[q], s, amount))
                    odd += 2
    offer_set = OfferSet(space, tuple(offers))
    net = offer_set._table
    assert_undo_matches_per_offer_reference(space, net)
    assert_undo_matches_per_offer_reference(
        space, {key: -d for key, d in net.items() if d < 0}, {key: d for key, d in net.items() if d > 0}
    )
    assert_netting_matches_reference(offer_set)
