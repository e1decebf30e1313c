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
tuple facing the same opposing profile.  Pareto optimality is one sweep over
the distinct scaled payoff vectors, sorted best first in lexicographic
order, so that only an earlier vector can dominate a later one and every
earlier vector is already >= it on player 0.  Player 0 then needs no
bitset: a vector's possible dominators are a prefix of the order.  Every
other player keeps one Python-int bitset per payoff value, the possible
dominators taken in fixed-width chunks so that memory stays linear in the
number of cells.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, compress, islice, repeat
from operator import and_, ge, gt, lshift, not_, or_

from .core import Game, Profile, _Record, _total

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


def constant_sum(game: Game) -> Fraction | None:
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

    One sweep over the distinct scaled payoff vectors, sorted best first in
    lexicographic order.  Equal vectors never dominate each other, so once
    copies are merged, a vector is dominated iff some other vector is >= it
    on every player.  Such a vector comes earlier in the order, and every
    earlier vector is already >= it on player 0, so a vector is dominated
    iff an earlier one is >= it on every other player.

    The possible dominators are taken in chunks of ``_CHUNK`` positions,
    one bit each, an earlier member on a higher bit.  The chunk members
    before a vector are then a prefix mask: the bits above the vector's own,
    or every bit for a vector of a later chunk.  For each other player,
    ``_at_least`` gives each vector the set of members at least its value;
    a vector is dominated iff the AND of its sets holds a bit in its prefix
    mask, which one comparison tells, since the sets of a chunk member all
    hold its own bit.  Each chunk keeps at most ``_CHUNK`` sets of at most
    ``_CHUNK`` bits per player after the first, so extra memory grows with
    the number of cells, not with its square.
    """
    # the one kernel that compares whole payoff vectors, one per profile
    rows = list(zip(*game._scaled[1]))
    vectors = sorted(set(rows), reverse=True)
    size = len(vectors)
    columns = list(zip(*vectors))[1:]
    beaten = [False] * size
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        # member i of the chunk is bit hi - lo - 1 - i, so the members before
        # it are the bits above its own: a set holding its own bit is at
        # least twice that bit iff it holds an earlier member.  Every member
        # is earlier than a vector from a later chunk.
        twice = chain(map(lshift, repeat(1), range(hi - lo, 0, -1)), repeat(1))
        common = reduce(partial(map, and_), [_at_least(column, lo, hi) for column in columns])
        beaten[lo:] = map(or_, beaten[lo:], map(ge, common, twice))
        del common  # frees this chunk's bitsets before the next chunk builds its own
    optimal = set(compress(vectors, map(not_, beaten)))
    return frozenset(p for p, row in zip(game.shape.profiles(), rows) if row in optimal)


def _at_least(column: tuple[int, ...], lo: int, hi: int) -> Iterator[int]:
    """For each entry of ``column`` from position ``lo`` on, the bitset of
    the chunk members ``lo <= i < hi`` whose entry is at least its own
    (member i is bit ``hi - 1 - i``).  Members sharing an entry share one
    bitset.  The chunk's own entries find theirs in a dict; an entry of a
    later chunk takes the set of the next value up, by bisection."""
    # indexed by bit: entry b is member hi - 1 - b's
    part = column[lo:hi][::-1]
    members = sorted(range(hi - lo), key=part.__getitem__, reverse=True)
    # best first, so the last set written for a value holds every member >= it
    bits = accumulate(map(lshift, repeat(1), members), or_)
    sets = dict(zip(map(part.__getitem__, members), bits))
    values, found = list(sets)[::-1], [*list(sets.values())[::-1], 0]
    later = map(found.__getitem__, map(partial(bisect_left, values), islice(column, hi, None)))
    return chain(map(sets.__getitem__, islice(column, lo, hi)), later)


def strictly_dominant_profile(game: Game) -> Profile | None:
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


class AnalysisReport(_Record):
    """What ``report`` finds in one game: each field is the result of the
    function of its name, and ``dominance`` holds one entry per player."""

    pure_nash: frozenset[Profile]
    dominance: Mapping[str, frozenset[DominancePair]]
    constant_sum: Fraction | None
    pareto_optimal: frozenset[Profile]
    strictly_dominant_profile: Profile | None


def report(game: Game) -> AnalysisReport:
    return AnalysisReport(
        pure_nash=pure_nash(game),
        dominance={player: dominance(game, player) for player in game.players},
        constant_sum=constant_sum(game),
        pareto_optimal=pareto_optimal(game),
        strictly_dominant_profile=strictly_dominant_profile(game),
    )
