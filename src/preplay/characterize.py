"""Decide whether one game can be turned into another by preplay offers.

Reachability is a property of the per-player difference tensor
``C = target - source`` and is decided by two exact conditions:

* C1 — at every strategy profile the players' differences sum to zero
  (offers move utility between players, they never create or destroy it).

* C2 — for every player j and every axis k, stepping coordinate k of a
  profile changes player j's difference by an amount that depends only on
  the stepped coordinate's value, not on where the other players stand.
  (Player j's total incoming-minus-outgoing transfer decomposes into a sum
  of per-player terms, each a function of that player's own choice alone.)

Both conditions together are necessary and sufficient: any game satisfying
them is reached by some offer set, which the synthesis module constructs.

A failed check carries a ``Violation`` that names the exact profiles whose
payoff differences falsify the condition, so callers can re-evaluate the
failing equality themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Game, GameShape, PayoffVector, Profile, StrategySpace, format_profile
from .errors import NameMismatch, ShapeMismatch

__all__ = [
    "DiffTensor",
    "EquivalenceVerdict",
    "Violation",
    "check_equivalence",
    "diff_tensor",
]


@dataclass(frozen=True)
class DiffTensor:
    """Per-player payoff differences, target minus source, one vector per
    profile in row-major order."""

    space: StrategySpace
    values: tuple[PayoffVector, ...]

    @property
    def shape(self) -> GameShape:
        return self.space.shape

    def vector(self, profile: Sequence[int]) -> PayoffVector:
        return self.values[self.shape.flat_index(profile)]

    def value(self, profile: Sequence[int], player_index: int) -> Fraction:
        return self.vector(profile)[player_index]


@dataclass(frozen=True)
class Violation:
    """One falsified equality from a failed reachability check.

    For kind ``"C1"``, ``profiles`` is ``(p,)`` and the failing claim is
    ``sum(C[p]) == 0``.  For kind ``"C2"``, ``profiles`` is
    ``(p, p', q, q')`` where p' and q' step the same axis of p and q by one,
    and the failing claim is ``C[p'][player] - C[p][player] ==
    C[q'][player] - C[q][player]``.
    """

    kind: str
    profiles: tuple[Profile, ...]
    player: Optional[str] = None
    axis: Optional[int] = None

    def describe(self) -> str:
        if self.kind == "C1":
            return f"C1 at {format_profile(self.profiles[0])}"
        p, p_step, q, q_step = self.profiles
        return (
            f"C2 at {format_profile(p)}->{format_profile(p_step)} vs "
            f"{format_profile(q)}->{format_profile(q_step)} (player {self.player})"
        )


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    violation: Optional[Violation]

    def describe(self) -> str:
        if self.equivalent:
            return "EQUIVALENT"
        return f"NOT-EQUIVALENT: {self.violation.describe()}"


def _require_same_frame(source: Game, target: Game) -> StrategySpace:
    if source.shape != target.shape:
        raise ShapeMismatch(
            f"cannot compare shape {source.shape.strategy_counts} "
            f"with shape {target.shape.strategy_counts}"
        )
    space = source.space
    if space != target.space:
        raise NameMismatch("games disagree on player or strategy names")
    return space


def diff_tensor(source: Game, target: Game) -> DiffTensor:
    """``target - source``, per profile and per player.

    Both games must share players, strategy names, and shape.
    """
    space = _require_same_frame(source, target)
    values = tuple(
        tuple(t - s for s, t in zip(s_cell, t_cell))
        for s_cell, t_cell in zip(source.payoffs, target.payoffs)
    )
    return DiffTensor(space, values)


def _star_readout(diff: DiffTensor) -> list[list[list[Fraction]]]:
    """``star[j][k][v]``: player j's difference at the all-first profile
    (0,…,0) with axis k set to v.

    That profile's coordinate star along axis k sits at flat index
    ``v * stride_k``.  A reachable tensor is determined by these values.
    """
    shape = diff.shape
    values = diff.values
    axes = list(zip(shape.strides, shape.strategy_counts))
    return [
        [[values[v * stride][j] for v in range(count)] for stride, count in axes]
        for j in range(shape.player_count)
    ]


def check_equivalence(source: Game, target: Game) -> EquivalenceVerdict:
    """Decide whether some offer set transforms ``source`` into ``target``.

    C1 is checked over all profiles first, then C2; the verdict reports the
    first violation in that order (row-major within each condition), so the
    outcome is deterministic.
    """
    return _check_diff(diff_tensor(source, target))


def _check_diff(diff: DiffTensor) -> EquivalenceVerdict:
    """The verdict of ``check_equivalence`` on an already built difference
    tensor."""
    shape = diff.shape
    values = diff.values
    profiles = list(shape.profiles())

    zero = Fraction(0)
    for flat, p in enumerate(profiles):
        if sum(values[flat]) != zero:
            return EquivalenceVerdict(False, Violation("C1", (p,)))

    counts = shape.strategy_counts
    strides = shape.strides
    n = len(counts)
    star = _star_readout(diff)
    for j in range(n):
        for k in range(n):
            stride, count = strides[k], counts[k]
            if count == 1:
                continue
            # reference steps taken along the star of (0,…,0)
            axis = star[j][k]
            ref = [b - a for a, b in zip(axis, axis[1:])]
            for flat, p in enumerate(profiles):
                v = p[k]
                if v == count - 1:
                    continue
                step = values[flat + stride][j] - values[flat][j]
                if step != ref[v]:
                    p_step = p[:k] + (v + 1,) + p[k + 1 :]
                    q = tuple(v if i == k else 0 for i in range(n))
                    q_step = tuple(v + 1 if i == k else 0 for i in range(n))
                    return EquivalenceVerdict(
                        False,
                        Violation(
                            "C2",
                            (p, p_step, q, q_step),
                            player=diff.space.players[j],
                            axis=k,
                        ),
                    )
    return EquivalenceVerdict(True, None)
