"""Construct concrete offer sets.

Three constructions:

* ``synthesize_offers`` — given a reachable target, read off net pairwise
  offers that realize it.  There is one net amount per (payer, payee,
  payee-strategy) triple; player j's payoff difference at profile p equals
  (incoming offers contingent on j's own choice) minus (outgoing offers
  contingent on the payees' choices):

      c_j(p) = sum_k e[k, j, p_j] - sum_k e[j, k, p_k]

  The amounts are fixed up to adding one constant to each (payer, payee)
  block, where the constants make every player receive as much as it pays
  (a circulation).  Pinning the amount on the payee's last strategy to zero
  in every block whose payee is not the first player leaves one canonical
  solution, read directly off the coordinate star of (0,…,0).

* ``nonnegative_decomposition`` — rewrite any offer set as one with only
  nonnegative amounts inducing the same transformation (a negative offer is
  the inverse of its positive mirror, and inverses are built from
  nonnegative offers).

* ``make_profile_dominant`` — pay each player just enough, contingent on
  their designated strategy, to make that strategy strictly dominant.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import sub

from . import characterize
from .core import Game, RationalLike, _fraction, _Record, _shown, _sum, as_rational
from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    InvalidProfile,
    NonpositiveMargin,
    NotEquivalent,
)
from .offers import OfferSet, _canonical, _Net, _undo

__all__ = [
    "SynthesisResult",
    "make_profile_dominant",
    "nonnegative_decomposition",
    "synthesize_offers",
]


class SynthesisResult(_Record):
    """A canonical offer set realizing the requested target, plus the free
    variables of the underdetermined system that were pinned to zero.

    Variable ids read ``payer->payee/strategy``.
    """

    offers: OfferSet
    pinned_variables: tuple[tuple[str, Fraction], ...]


def synthesize_offers(source: Game, target: Game) -> SynthesisResult:
    """Find a canonical offer set tau with apply_offer_set(source, tau) == target.

    Raises NotEquivalent (carrying the failed verdict) when no offer set can
    reach the target.  Amounts in the result may be negative; feed the result
    through ``nonnegative_decomposition`` if payments must be nonnegative.

    Once the reachability check passes, the difference tensor is additively
    separable per player, so its star at (0,…,0) determines it, and the
    amounts are read straight off that star.  Stepping axis q changes player
    p's difference by minus the change in e[p, q, ·], so each block paying a
    player q ≥ 1 is fixed up to a constant; that constant is pinned by
    setting the amount on q's last strategy to zero.  Each pinned variable
    is named in the walk that pins it: the loop over a block ends on q's
    last strategy, and the zero it has just written there is the variable's
    value.  The blocks paying the first player then follow from each
    payer's own difference along axis 0.
    The amounts go straight into the net table e[payer, payee, strategy].

    The star is the one the check verified, on the integer difference view
    built from the games' ``Game._scaled``, and the target remembers it with
    its verdict (``characterize._check``): synthesis after
    ``check_equivalence`` on the same pair reads them without a second
    scan, and an unreachable target raises the verdict already found.  Each
    amount is one int subtraction of star entries, and only the amounts
    become ``Fraction``s.
    A player's balance along axis 0, what it receives less what it pays
    besides e[p, 0, ·], is one ``core._sum``, and so is each e[p, 0, t]:
    that balance less one star entry over the player's scale.
    """
    # star[j][k][v]: player j's difference at (0,…,0) with axis k set to v, times scales[j]
    verdict, scales, star = characterize._check(source, target)
    if not verdict.equivalent:
        raise NotEquivalent(verdict)

    space = source.space
    players, strategies = space.players, space.strategies
    n = len(players)

    # e[payer, payee, t]: net amount offered on the payee's strategy t
    e: _Net = {}
    pinned = []
    for q in range(1, n):
        for p in range(n):
            if p != q:
                axis = star[p][q]
                for t, c in enumerate(axis):
                    e[p, q, t] = _fraction(axis[-1] - c, scales[p])
                # the loop ends on q's last strategy, whose amount it has just pinned to 0
                pinned.append((f"{players[p]}->{players[q]}/{strategies[q][-1]}", e[p, q, t]))
    for p in range(1, n):
        # at (0,…,0) with axis 0 set to t, player p receives every
        # e[k, p, 0] and pays e[p, 0, t] plus every other e[p, k, 0]
        received = [e[k, p, 0] for k in range(n) if k != p]
        balance = _sum(received, [e[p, k, 0] for k in range(1, n) if k != p])
        for t, c in enumerate(star[p][0]):
            e[p, 0, t] = _sum((balance,), (_fraction(c, scales[p]),))

    return SynthesisResult(_canonical(space, e), tuple(pinned))


def nonnegative_decomposition(offer_set: OfferSet) -> OfferSet:
    """Rewrite an offer set with nonnegative amounts only.

    The set is netted once.  Positive net amounts are kept; each negative
    net amount -d is replaced by the inverse of its positive mirror (the
    payer offers d on each of the payee's other strategies and the payee
    offers d back on every payer strategy), added into the same table.  The
    replacement induces the same transformation on every game of the shape.
    """
    space = offer_set.space
    net = offer_set._table
    # signs read and amounts negated on the numerators: Fraction's operators are pure Python
    positive = {key: d for key, d in net.items() if d.numerator > 0}
    negative = {
        key: _fraction(-d.numerator, d.denominator, 1) for key, d in net.items() if d.numerator < 0
    }
    return _canonical(space, _undo(space, negative, positive))


def make_profile_dominant(
    game: Game, profile: Sequence[int], margin: RationalLike
) -> OfferSet:
    """Offers that make each player's designated strategy strictly dominant.

    For each player the cyclically next player offers just enough —
    contingent on the designated strategy — that it beats every alternative
    by at least ``margin`` against every opposing profile.  Players already
    dominant by more than the margin get no offer.  A player's own outgoing
    offers are contingent on *other* players' choices, so they never disturb
    that player's own dominance order; incoming offers alone settle it.

    The shortfalls are read off player k's slice table (``Game._slices``),
    one list of ints per strategy of k, entry i of each facing the same
    opposing profile: the gap is the largest entry of the elementwise max of
    the other lists minus the designated list, and only the offer per
    player, gap / scale + margin added on ints, becomes a ``Fraction``.
    """
    margin = as_rational(margin)
    if margin <= 0:
        raise NonpositiveMargin(f"margin must be positive, got {_shown(margin)}")
    try:
        profile = game.shape.validate_profile(profile)
    except (ArityMismatch, IndexOutOfRange) as exc:
        raise InvalidProfile(str(exc)) from None

    n = len(profile)
    scales, _ = game._scaled
    net: _Net = {}
    for k, designated in enumerate(profile):
        lists, _ = game._slices[k]
        others = [b for t, b in enumerate(lists) if t != designated]
        if not others:
            continue  # single strategy: nothing to dominate
        # worst shortfall: how much some alternative beats the designated
        # strategy by, across all opposing profiles
        gap = max(map(sub, map(max, zip(*others)), lists[designated]))
        # gap / scale + margin on ints; a player already dominant by the
        # margin gets 0, which _canonical drops
        num = gap * margin.denominator + margin.numerator * scales[k]
        net[(k + 1) % n, k, designated] = _fraction(max(num, 0), scales[k] * margin.denominator)
    return _canonical(game.space, net)
