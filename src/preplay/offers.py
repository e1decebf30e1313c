"""Binding preplay offers and the payoff transformations they induce.

An offer names a payer, a payee, one of the payee's strategies, and an
amount.  Applying it to a game moves the amount from the payer to the payee
in every outcome where the payee plays the named strategy — the offer is
conditional on the payee's choice only, never on the payer's own.  So an
offer set acts only through its net amount per (payer, payee, strategy):
a set nets itself when built into a table keyed by index triples, and
every operation builds one canonical ``OfferSet`` from a table (``_canonical``).
Applying a set writes its table into one payment vector per (payee,
strategy): each payer's entry is one net amount, and the payee's entry, the
sum its payers pay there, is totalled on unreduced int pairs
(``core._total``).  So it builds one ``Fraction`` per entry an offer touches
and no other, and adds the vectors in one pass of the outer-sum kernel,
which sums them on Python int pairs too.

Offer-induced transformations commute, the empty offer set is the identity,
and every offer set has an inverse realizable with nonnegative payments, so
the transformations of a fixed strategy space form a commutative group.
The inverse of one net amount is two unconditional transfers that cancel
(``_undo``).  Those transfers add up per (payer, payee) block, so the
inverse is built from block totals: each payee strategy gets the total of
the block and of its reverse block minus the block's amount there, one
``core._sum`` per key, instead of one ``Fraction`` addition per amount and
strategy.  A repeated key is netted through ``core._sum`` as well.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from .core import Game, StrategySpace, _add_separable, _fraction, _Record, _sum, _total, as_rational
from .errors import SelfOffer

_Net = dict[tuple[int, int, int], Fraction]

__all__ = [
    "Offer",
    "OfferSet",
    "apply_offer",
    "apply_offer_set",
    "canonicalize",
    "invert_offer",
    "invert_offer_set",
]


class Offer(_Record):
    """payer pays payee ``amount`` whenever payee plays ``payee_strategy``.

    Amounts may be negative inside computations (a negative offer is the
    reverse transfer); input layers may choose to reject them.
    """

    payer: str
    payee: str
    payee_strategy: str
    amount: Fraction

    def __init__(self, payer: str, payee: str, payee_strategy: str, amount: Fraction) -> None:
        amount = as_rational(amount)
        if payer == payee:
            raise SelfOffer(f"player {payer!r} cannot make an offer to itself")
        self.__dict__.update(payer=payer, payee=payee, payee_strategy=payee_strategy, amount=amount)

    def describe(self) -> str:
        return f"{self.payer} pays {self.payee} {self.amount} if {self.payee} plays {self.payee_strategy}"


class OfferSet(_Record):
    """A finite multiset of offers over one strategy space.

    The space is carried along because ordering, inversion and serialization
    all need the name-to-index context.  Construction resolves every offer's
    names against the space and nets the amounts into ``_table``, which is
    not a field (equality, hashing and ``repr`` ignore it) and never mutated.
    """

    space: StrategySpace
    offers: tuple[Offer, ...]

    def __init__(self, space: StrategySpace, offers: Iterable[Offer]) -> None:
        self.__dict__.update(space=space, offers=tuple(offers))
        self.__post_init__()

    def __post_init__(self):
        table: _Net = {}
        for offer in self.offers:
            key = self.space._offer_key(offer.payer, offer.payee, offer.payee_strategy)
            table[key] = _sum((table[key], offer.amount)) if key in table else offer.amount
        self.__dict__["_table"] = table

    def __iter__(self) -> Iterator[Offer]:
        return iter(self.offers)

    def __len__(self) -> int:
        return len(self.offers)


def _canonical(space: StrategySpace, net: _Net) -> OfferSet:
    """The one offer set of a net table: its nonzero amounts, sorted by
    (payer, payee, strategy) index."""
    players, strategies = space.players, space.strategies
    offers = (
        Offer(players[p], players[q], strategies[q][s], d)
        for (p, q, s), d in sorted(net.items())
        if d.numerator
    )
    return OfferSet(space, tuple(offers))


def _undo(space: StrategySpace, net: _Net, table: _Net) -> _Net:
    """Add into ``table`` the net amounts of the offer set that undoes
    ``net``, and return it.

    For payer p, payee q, strategy s, amount d: p offers d on each of q's
    other strategies (making p's transfer to q unconditional, i.e. a constant
    shift), and q offers d back to p on every p strategy (an equal constant
    shift the other way).  The composition with the original offer changes
    nothing.  Amounts stay nonnegative whenever d >= 0.

    Summed by (payer, payee) block: each payee strategy t of the block
    (p, q) gets the block's total minus its amount on t, and every payer
    strategy of the reverse block (q, p) gets the block's total.  So key
    (p, q, t) gets the totals of (p, q) and (q, p) together, minus the
    amount on t, plus what ``table`` holds there: one ``core._sum`` per key,
    and one per block for the totals.
    """
    # each block's amounts by payee strategy, and its reverse block, which may be empty
    blocks: dict = {pair: {} for p, q, _ in net for pair in ((p, q), (q, p))}
    for (p, q, s), d in net.items():
        blocks[p, q][s] = d
    zero = Fraction(0)
    for (p, q), block in blocks.items():
        # the totals of the block and of its reverse both shift every key
        total = _sum([*block.values(), *blocks[q, p].values()])
        for t in range(space.shape.strategy_counts[q]):
            table[p, q, t] = _sum((total, table.get((p, q, t), zero)), (block.get(t, zero),))
    return table


def canonicalize(offer_set: OfferSet) -> OfferSet:
    """Collapse an offer set to one net offer per (payer, payee, strategy).

    Amounts for the same triple are summed, zero-amount offers are dropped,
    and the result is sorted by (payer, payee, strategy) index.  Two offer
    sets induce the same transformation iff they canonicalize identically.
    """
    return _canonical(offer_set.space, offer_set._table)


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
    game.space._require(offer_set.space)
    zero = (Fraction(0),) * len(game.players)
    steps = [[list(zero) for _ in row] for row in game.strategies]
    # the table holds one amount per (payer, payee, strategy): a payer's
    # entry of a step is one amount
    for (payer, payee, strategy), amount in offer_set._table.items():
        steps[payee][strategy][payer] = _fraction(-amount.numerator, amount.denominator)
    # a step sums to 0, so the payee's entry is minus the rest of its total
    for payee, strategy in {key[1:] for key in offer_set._table}:
        num, den = _total(steps[payee][strategy])
        steps[payee][strategy][payee] = _fraction(-num, den)
    return _add_separable(game, zero, steps)


def invert_offer(offer: Offer, space: StrategySpace) -> OfferSet:
    """The offer set that undoes a single offer, in canonical form (see
    ``_undo``).  Raises as ``OfferSet`` does on names outside the space."""
    key = space._offer_key(offer.payer, offer.payee, offer.payee_strategy)
    return _canonical(space, _undo(space, {key: offer.amount}, {}))


def invert_offer_set(offer_set: OfferSet) -> OfferSet:
    """The offer set that undoes every offer in the set, in canonical form."""
    space = offer_set.space
    return _canonical(space, _undo(space, offer_set._table, {}))
