"""Pure-strategy analysis on a game's exact integer view.

The per-player kernels read ``Game._scaled``: the payoffs as Python ints
over one common denominator per player, stored by player and computed once
per game.  One player's ints compare exactly as their ``Fraction``s do, so
pure Nash equilibria, strict/weak dominance between one player's strategies
and Pareto-optimal outcomes need no rational arithmetic at all.  The
constant-sum test adds across players, whose scales may differ, so it reads
each profile's exact total (``core._total``) instead of the view.

Nash, dominance and the strictly dominant profile compare one player's slice
table (``Game._slices``): one tuple of ints per strategy, entry i of every
tuple facing the same opposing profile.  Pareto optimality is a bitmap
skyline over the distinct scaled payoff vectors: one Python-int bitset per
player and payoff value, the possible dominators taken in fixed-width chunks
so that memory stays linear in the number of cells.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import and_, ge, gt, lshift, ne, neg, or_, sub
from typing import Iterator, Mapping, Optional

from .core import Game, Profile, _total

__all__ = [
    "AnalysisReport",
    "DominancePair",
    "constant_sum",
    "dominance",
    "pareto_optimal",
    "pure_nash",
    "report",
    "strictly_dominant_profile",
]

# (dominating strategy, dominated strategy, "strict" | "weak");
# every strict pair also appears labeled weak
DominancePair = tuple[str, str, str]

# possible dominators per pass of the Pareto skyline: every game up to
# 4,096 cells takes one pass
_CHUNK = 4096


def pure_nash(game: Game) -> frozenset[Profile]:
    """Profiles where no player gains by a unilateral strategy change."""
    shape = game.shape
    stable = set(range(shape.size))
    for stride, (lists, opposing) in zip(shape.strides, game._slices):
        best = list(map(max, zip(*lists)))
        # a profile is a best response for k iff k's payoff there is the max facing it
        stable &= {
            flat + t * stride
            for t, payoffs in enumerate(lists)
            for flat, payoff, top in zip(opposing, payoffs, best)
            if payoff == top
        }
    return frozenset(map(shape._profile_at, stable))


def dominance(game: Game, player: str) -> frozenset[DominancePair]:
    """All ordered dominance pairs among one player's strategies.

    (s, t, "strict"): s beats t at every opposing profile.
    (s, t, "weak"): s never falls below t and beats it somewhere.
    """
    space = game.space
    k = space.player_index(player)
    names = space.strategies[k]
    lists, _ = game._slices[k]
    pairs = set()
    for s, a in enumerate(lists):
        for t, b in enumerate(lists):
            if s != t and a != b and all(map(ge, a, b)):
                pairs.add((names[s], names[t], "weak"))
                if all(map(gt, a, b)):
                    pairs.add((names[s], names[t], "strict"))
    return frozenset(pairs)


def constant_sum(game: Game) -> Optional[Fraction]:
    """The common outcome total, if every outcome shares one.  Each total is
    summed over its own profile's denominators (``_total``), so no player's
    common denominator is ever computed."""
    totals = map(_total, game.payoffs)
    num, den = next(totals)
    if all(n * den == num * d for n, d in totals):
        return Fraction(num, den)
    return None


def pareto_optimal(game: Game) -> frozenset[Profile]:
    """Profiles whose payoff vector no other profile strongly dominates
    (>= in every coordinate, > in at least one).

    A bitmap skyline over the distinct scaled payoff vectors.  Equal vectors
    never dominate each other, so once copies are merged, a vector is
    dominated iff some other vector is >= it on every player.  The possible
    dominators are taken in chunks of ``_CHUNK``, one bit each.  Per player,
    the chunk is sorted by that player's int and OR-ed into a running
    bitset, best first; the bitset at the end of each run of equal ints is
    the set of members >= that int, and each vector finds its own set by
    bisection.  A vector is dominated iff the AND of its per-player sets
    holds more than its own bit.  Each chunk keeps at most ``_CHUNK + 1``
    sets of at most ``_CHUNK`` bits per player, so extra memory grows with
    the number of cells, not with its square.
    """
    # the one kernel that compares whole payoff vectors, one per profile
    rows = list(zip(*game._scaled[1]))
    vectors = list(dict.fromkeys(rows))
    size = len(vectors)
    # negated, so that ascending order is best first
    columns = [list(map(neg, column)) for column in zip(*vectors)]
    dominated = set()
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        own = chain(repeat(0, lo), map(lshift, repeat(1), range(hi - lo)), repeat(0, size - hi))
        common = reduce(partial(map, and_), [_at_least(column, lo, hi) for column in columns])
        dominated.update(compress(count(), map(ne, common, own)))
        del common  # frees this chunk's bitsets before the next chunk builds its own
    beaten = set(map(vectors.__getitem__, dominated))
    return frozenset(p for p, row in zip(game.shape.profiles(), rows) if row not in beaten)


def _at_least(column: list[int], lo: int, hi: int) -> Iterator[int]:
    """For each entry of ``column``, the bitset of the chunk members
    ``lo <= i < hi`` whose entry is at most its own (member i is bit
    ``i - lo``).  The column is negated payoffs, so these are the members
    whose payoff is at least its own.  Members sharing an entry share one
    bitset, so the chunk keeps at most ``hi - lo + 1`` of them."""
    members = sorted(range(lo, hi), key=column.__getitem__)
    ordered = list(map(column.__getitem__, members))
    # marks the last member of each run of equal entries
    last = list(map(ne, ordered, chain(islice(ordered, 1, None), (None,))))
    bits = accumulate(map(lshift, repeat(1), map(sub, members, repeat(lo))), or_)
    sets = [0, *compress(bits, last)]
    runs = partial(bisect_right, list(compress(ordered, last)))
    return map(sets.__getitem__, map(runs, column))


def strictly_dominant_profile(game: Game) -> Optional[Profile]:
    """The profile of per-player strictly dominant strategies, if every
    player has one (single-strategy players qualify vacuously)."""
    profile = []
    for lists, _ in game._slices:
        for s, a in enumerate(lists):
            if all(all(map(gt, a, b)) for t, b in enumerate(lists) if t != s):
                profile.append(s)
                break
        else:
            return None
    return tuple(profile)


@dataclass(frozen=True)
class AnalysisReport:
    pure_nash: frozenset[Profile]
    dominance: Mapping[str, frozenset[DominancePair]]
    constant_sum: Optional[Fraction]
    pareto_optimal: frozenset[Profile]
    strictly_dominant_profile: Optional[Profile]


def report(game: Game) -> AnalysisReport:
    return AnalysisReport(
        pure_nash=pure_nash(game),
        dominance={player: dominance(game, player) for player in game.players},
        constant_sum=constant_sum(game),
        pareto_optimal=pareto_optimal(game),
        strictly_dominant_profile=strictly_dominant_profile(game),
    )
