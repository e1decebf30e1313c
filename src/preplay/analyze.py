"""Pure-strategy analysis on a game's exact integer view.

Every kernel reads ``Game._scaled``: the payoffs as Python ints over one
common denominator per player, computed once per game.  One player's ints
compare exactly as their ``Fraction``s do, so pure Nash equilibria,
strict/weak dominance between one player's strategies and Pareto-optimal
outcomes need no rational arithmetic at all; the constant-sum total is the
one value converted back.  Nash and dominance walk one player's axis by its
row-major stride; Pareto optimality is a sort-filter skyline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import groupby
from operator import ge, mul
from typing import Callable, Mapping, Optional

from .core import Game, Profile, _opposing_flats

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
    counts, strides = shape.strategy_counts, shape.strides
    _, cells = game._scaled
    equilibria = []
    for flat, profile in enumerate(shape.profiles()):
        stable = True
        for k, chosen in enumerate(profile):
            current = cells[flat][k]
            origin = flat - chosen * strides[k]
            if any(
                cells[origin + t * strides[k]][k] > current
                for t in range(counts[k])
                if t != chosen
            ):
                stable = False
                break
        if stable:
            equilibria.append(profile)
    return frozenset(equilibria)


def dominance(game: Game, player: str) -> frozenset[DominancePair]:
    """All ordered dominance pairs among one player's strategies.

    (s, t, "strict"): s beats t at every opposing profile.
    (s, t, "weak"): s never falls below t and beats it somewhere.
    """
    space = game.space
    k = space.player_index(player)
    shape = game.shape
    stride = shape.strides[k]
    count = shape.strategy_counts[k]
    names = space.strategies[k]
    _, cells = game._scaled
    opposing = _opposing_flats(shape, k)

    pairs = set()
    for s in range(count):
        for t in range(count):
            if s == t:
                continue
            always_ge = always_gt = True
            ever_gt = False
            for flat in opposing:
                a = cells[flat + s * stride][k]
                b = cells[flat + t * stride][k]
                if a < b:
                    always_ge = False
                    break
                if a > b:
                    ever_gt = True
                else:
                    always_gt = False
            if not always_ge:
                continue
            if always_gt:
                pairs.add((names[s], names[t], "strict"))
            if ever_gt:
                pairs.add((names[s], names[t], "weak"))
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
    return _dominant_profile(game, partial(dominance, game))


def _dominant_profile(
    game: Game, pairs_of: Callable[[str], frozenset[DominancePair]]
) -> Optional[Profile]:
    """``strictly_dominant_profile`` reading each player's pairs from ``pairs_of``."""
    space = game.space
    profile = []
    for k, player in enumerate(space.players):
        names = space.strategies[k]
        pairs = pairs_of(player)
        winners = [
            s
            for s in range(len(names))
            if all((names[s], names[t], "strict") in pairs for t in range(len(names)) if t != s)
        ]
        if len(winners) != 1:
            return None
        profile.append(winners[0])
    return tuple(profile)


@dataclass(frozen=True)
class AnalysisReport:
    pure_nash: frozenset[Profile]
    dominance: Mapping[str, frozenset[DominancePair]]
    constant_sum: Optional[Fraction]
    pareto_optimal: frozenset[Profile]
    strictly_dominant_profile: Optional[Profile]


def report(game: Game) -> AnalysisReport:
    pairs = {player: dominance(game, player) for player in game.players}
    return AnalysisReport(
        pure_nash=pure_nash(game),
        dominance=pairs,
        constant_sum=constant_sum(game),
        pareto_optimal=pareto_optimal(game),
        strictly_dominant_profile=_dominant_profile(game, pairs.__getitem__),
    )
