"""Pure-strategy analysis on a game's exact integer view.

Every kernel reads ``Game._scaled``: the payoffs as Python ints over one
common denominator per player, computed once per game.  One player's ints
compare exactly as their ``Fraction``s do, so pure Nash equilibria,
strict/weak dominance between one player's strategies and Pareto-optimal
outcomes need no rational arithmetic at all; the constant-sum total is the
one value converted back.  Nash, dominance and the strictly dominant profile
compare lists from one player's slice table (``core._slices``): one list per
strategy, entry i of every list facing the same opposing profile.  Pareto
optimality is a sort-filter skyline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import ge, gt, mul
from typing import Mapping, Optional

from .core import Game, Profile, _slices

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


def pure_nash(game: Game) -> frozenset[Profile]:
    """Profiles where no player gains by a unilateral strategy change."""
    shape = game.shape
    stable = set(range(shape.size))
    for k, stride in enumerate(shape.strides):
        lists, opposing = _slices(game, k)
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
    lists, _ = _slices(game, k)
    pairs = set()
    for s, a in enumerate(lists):
        for t, b in enumerate(lists):
            if s != t and a != b and all(map(ge, a, b)):
                pairs.add((names[s], names[t], "weak"))
                if all(map(gt, a, b)):
                    pairs.add((names[s], names[t], "strict"))
    return frozenset(pairs)


def constant_sum(game: Game) -> Optional[Fraction]:
    """The common outcome total, if every outcome shares one."""
    scales, rows = game._scaled
    common = math.lcm(*scales)
    weights = [common // scale for scale in scales]
    totals = (sum(map(mul, row, weights)) for row in rows)
    first = next(totals)
    if all(total == first for total in totals):
        return Fraction(first, common)
    return None


def pareto_optimal(game: Game) -> frozenset[Profile]:
    """Profiles whose payoff vector no other profile strongly dominates
    (>= in every coordinate, > in at least one).

    A sort-filter skyline: outcomes are visited by the sum of their scaled
    payoffs (each player's payoff weighted by that player's positive scale),
    descending, in groups of equal sum.  A dominating vector has a strictly
    larger sum, and strictly larger sum plus >= everywhere is domination, so
    each outcome is tested with >= alone, and only against the optimal
    outcomes of earlier groups: by transitivity, anything dominated is
    dominated by an optimal outcome.  When every scaled sum is equal (a
    constant-sum game whose players share one scale), nothing is compared.
    """
    _, rows = game._scaled
    totals = [sum(row) for row in rows]
    order = sorted(range(len(rows)), key=totals.__getitem__, reverse=True)
    skyline: list[tuple[int, ...]] = []
    optimal = set()
    for _, group in groupby(order, key=totals.__getitem__):
        survivors = [
            flat
            for flat in group
            if not any(all(map(ge, other, rows[flat])) for other in skyline)
        ]
        skyline.extend(rows[flat] for flat in survivors)
        optimal.update(survivors)
    return frozenset(p for flat, p in enumerate(game.shape.profiles()) if flat in optimal)


def strictly_dominant_profile(game: Game) -> Optional[Profile]:
    """The profile of per-player strictly dominant strategies, if every
    player has one (single-strategy players qualify vacuously)."""
    profile = []
    for k in range(game.shape.player_count):
        lists, _ = _slices(game, k)
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
