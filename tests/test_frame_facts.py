"""A record's derived facts are set once, when it is built: a ``GameShape``
holds its player count, size and strides, a ``DiffTensor`` its space's
shape, and an ``OfferSet`` its offers as a tuple, each a plain attribute
that pickle and copy carry along."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from preplay import GameShape, Offer, OfferSet, apply_offer_set, canonicalize, diff_tensor
from conftest import WORKLOAD_SHAPES, random_offer_set, shape_game

SHAPES = [*WORKLOAD_SHAPES, (1, 1), (2, 1, 3), (1,) * 16, (2,) * 14]

TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def derived(counts):
    """The facts as the shape used to derive them on each read."""
    strides, acc = [], 1
    for count in reversed(counts):
        strides.append(acc)
        acc *= count
    strides = tuple(reversed(strides))
    return {"player_count": len(counts), "size": math.prod(counts), "strides": strides}


@pytest.mark.parametrize("counts", SHAPES, ids=str)
def test_a_shape_holds_its_facts_from_construction(counts):
    facts = derived(counts)
    for given in (counts, list(counts)):
        shape = GameShape(given)
        assert shape.strategy_counts == counts
        assert {name: vars(shape)[name] for name in facts} == facts
        for trip in TRIPS.values():
            back = trip(shape)
            assert back == shape and vars(back) == vars(shape)


@pytest.mark.parametrize("counts", WORKLOAD_SHAPES, ids=str)
def test_a_diff_tensor_holds_its_spaces_shape(counts):
    rng = random.Random(sum(counts))
    game = shape_game(rng, counts)
    tensor = diff_tensor(game, apply_offer_set(game, random_offer_set(rng, game.space)))
    assert vars(tensor)["shape"] is game.space.shape
    assert type(tensor)(game.space, tensor.values).shape is game.space.shape
    for trip in TRIPS.values():
        back = trip(tensor)
        assert back == tensor and vars(back) == vars(tensor)
        assert back.shape == game.space.shape


def test_an_offer_set_stores_any_iterable_of_offers_as_a_tuple(m0):
    offers = (
        Offer("I", "II", "C", 1),
        Offer("II", "I", "D", Fraction(1, 3)),
        Offer("I", "II", "C", Fraction(-1, 2)),
    )
    built = OfferSet(m0.space, offers)
    for given in (list(offers), iter(offers), (o for o in offers)):
        offer_set = OfferSet(m0.space, given)
        assert type(offer_set.offers) is tuple and offer_set.offers == offers
        assert offer_set == built and offer_set._table == built._table
        assert canonicalize(offer_set) == canonicalize(built)
        assert apply_offer_set(m0, offer_set) == apply_offer_set(m0, built)
    assert OfferSet(space=m0.space, offers=iter(offers)) == built
