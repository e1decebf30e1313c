"""Binding preplay offers and the payoff transformations they induce.

An offer names a payer, a payee, one of the payee's strategies, and an
amount.  Applying it to a game moves the amount from the payer to the payee
in every outcome where the payee plays the named strategy — the offer is
conditional on the payee's choice only, never on the payer's own.  So an
offer set is one payment vector per (payee, strategy): a profile's payoffs
change by the vectors of the strategies played there, summed over the axes,
and the whole set is applied in one pass.

Offer-induced transformations commute, the empty offer set is the identity,
and every offer set has an inverse realizable with nonnegative payments, so
the transformations of a fixed strategy space form a commutative group.
The inverse of a single offer (p pays q amount d when q plays s) is built
from two unconditional transfers that cancel: p additionally offers d on
each of q's *other* strategies (so p pays q the amount d no matter what),
and q offers d back to p on *every* one of p's strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import Game, StrategySpace, _add_separable, as_rational
from .errors import NameMismatch, SelfOffer, ShapeMismatch

__all__ = [
    "Offer",
    "OfferSet",
    "apply_offer",
    "apply_offer_set",
    "canonicalize",
    "invert_offer",
    "invert_offer_set",
]


@dataclass(frozen=True)
class Offer:
    """payer pays payee ``amount`` whenever payee plays ``payee_strategy``.

    Amounts may be negative inside computations (a negative offer is the
    reverse transfer); input layers may choose to reject them.
    """

    payer: str
    payee: str
    payee_strategy: str
    amount: Fraction

    def __post_init__(self):
        object.__setattr__(self, "amount", as_rational(self.amount))
        if self.payer == self.payee:
            raise SelfOffer(f"player {self.payer!r} cannot make an offer to itself")

    def describe(self) -> str:
        return f"{self.payer} pays {self.payee} {self.amount} if {self.payee} plays {self.payee_strategy}"


@dataclass(frozen=True)
class OfferSet:
    """A finite multiset of offers over one strategy space.

    The space is carried along because ordering, inversion and serialization
    all need the name-to-index context.  Construction validates every offer's
    names against the space.
    """

    space: StrategySpace
    offers: tuple[Offer, ...]

    def __post_init__(self):
        object.__setattr__(self, "offers", tuple(self.offers))
        for offer in self.offers:
            self.space.player_index(offer.payer)
            self.space.strategy_index(offer.payee, offer.payee_strategy)

    def __iter__(self) -> Iterator[Offer]:
        return iter(self.offers)

    def __len__(self) -> int:
        return len(self.offers)

    def _key(self, offer: Offer) -> tuple[int, int, int]:
        return (
            self.space.player_index(offer.payer),
            self.space.player_index(offer.payee),
            self.space.strategy_index(offer.payee, offer.payee_strategy),
        )


def canonicalize(offer_set: OfferSet) -> OfferSet:
    """Collapse an offer set to one net offer per (payer, payee, strategy).

    Amounts for the same triple are summed, zero-amount offers are dropped,
    and the result is sorted by (payer, payee, strategy) index.  Two offer
    sets induce the same transformation iff they canonicalize identically.
    """
    space = offer_set.space
    net: dict[tuple[int, int, int], Fraction] = {}
    for offer in offer_set:
        key = offer_set._key(offer)
        net[key] = net.get(key, Fraction(0)) + offer.amount
    offers = tuple(
        Offer(space.players[p], space.players[q], space.strategies[q][s], amount)
        for (p, q, s), amount in sorted(net.items())
        if amount != 0
    )
    return OfferSet(space, offers)


def apply_offer(game: Game, offer: Offer) -> Game:
    """Transform a game by one offer.

    At every profile where the payee plays the named strategy, the amount is
    subtracted from the payer's payoff and added to the payee's; all other
    profiles are untouched.  Per-profile payoff totals are preserved.
    """
    return apply_offer_set(game, OfferSet(game.space, (offer,)))


def apply_offer_set(game: Game, offer_set: OfferSet) -> Game:
    """Transform a game by every offer in the set (order is immaterial), in
    one pass through the set's payment vectors per (payee, strategy)."""
    if offer_set.space != game.space:
        if offer_set.space.shape != game.shape:
            raise ShapeMismatch(
                f"offer set built for shape {offer_set.space.shape.strategy_counts} "
                f"applied to shape {game.shape.strategy_counts}"
            )
        raise NameMismatch("offer set and game disagree on player or strategy names")
    zero = (Fraction(0),) * len(game.players)
    steps = [[list(zero) for _ in row] for row in game.strategies]
    for offer in offer_set:
        payer, payee, strategy = offer_set._key(offer)
        steps[payee][strategy][payer] -= offer.amount
        steps[payee][strategy][payee] += offer.amount
    return _add_separable(game, zero, steps)


def invert_offer(offer: Offer, space: StrategySpace) -> OfferSet:
    """The offer set that undoes a single offer, in canonical form.

    For payer p, payee q, strategy s, amount d: p offers d on each of q's
    other strategies (making p's transfer to q unconditional, i.e. a constant
    shift), and q offers d back to p on every p strategy (an equal constant
    shift the other way).  The composition with the original offer changes
    nothing.  Amounts stay nonnegative whenever d >= 0.
    """
    payee_row = space.strategies[space.player_index(offer.payee)]
    payer_row = space.strategies[space.player_index(offer.payer)]
    undo = [
        Offer(offer.payer, offer.payee, other, offer.amount)
        for other in payee_row
        if other != offer.payee_strategy
    ]
    undo += [Offer(offer.payee, offer.payer, own, offer.amount) for own in payer_row]
    return canonicalize(OfferSet(space, tuple(undo)))


def invert_offer_set(offer_set: OfferSet) -> OfferSet:
    """The offer set that undoes every offer in the set, in canonical form."""
    space = offer_set.space
    undo: list[Offer] = []
    for offer in offer_set:
        undo.extend(invert_offer(offer, space))
    return canonicalize(OfferSet(space, tuple(undo)))
