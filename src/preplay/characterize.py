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

The check reads the games' integer views (``Game._scaled``) instead of
``Fraction``s: player k's differences become ints over one scale, the lcm of
the two games' scales for k, so each difference and each C2 step is one int
subtraction.  C1 adds a profile's ints across players where every player
has one scale; where the scales differ, it compares the two games' profile
totals, each summed exactly over the profile's own denominators by
``core._total``.  C2 compares every block against the coordinate star of
(0,…,0), and the private ``_check`` returns that star with its verdict, so
synthesis reads the amounts off the star the check verified.  The target
remembers its last check, keyed by the source's payoffs tuple, so
``check_equivalence`` and ``synthesize_offers`` on one pair, in either
order, make one C1/C2 pass between them.
``diff_tensor`` stays the public ``Fraction`` tensor; neither builds it.

A failed check carries a ``Violation`` that names the exact profiles whose
payoff differences falsify the condition, so callers can re-evaluate the
failing equality themselves.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress, count, repeat
from operator import mul, ne, sub

from .core import Game, PayoffVector, Profile, StrategySpace, _Record, _total
from .core import format_profile

__all__ = [
    "DiffTensor",
    "EquivalenceVerdict",
    "Violation",
    "check_equivalence",
    "diff_tensor",
]


class DiffTensor(_Record):
    """Per-player payoff differences, target minus source, one vector per
    profile in row-major order.  ``shape`` is the space's ``GameShape``."""

    space: StrategySpace
    values: tuple[PayoffVector, ...]

    def __post_init__(self):
        self.__dict__["shape"] = self.space.shape

    def vector(self, profile: Sequence[int]) -> PayoffVector:
        return self.values[self.shape.flat_index(profile)]

    def value(self, profile: Sequence[int], player_index: int) -> Fraction:
        return self.vector(profile)[player_index]


class Violation(_Record):
    """One falsified equality from a failed reachability check.

    For kind ``"C1"``, ``profiles`` is ``(p,)`` and the failing claim is
    ``sum(C[p]) == 0``.  For kind ``"C2"``, ``profiles`` is
    ``(p, p', q, q')`` where p' and q' step the same axis of p and q by one,
    and the failing claim is ``C[p'][player] - C[p][player] ==
    C[q'][player] - C[q][player]``.
    """

    kind: str
    profiles: tuple[Profile, ...]
    player: str | None = None
    axis: int | None = None

    def describe(self) -> str:
        if self.kind == "C1":
            return f"C1 at {format_profile(self.profiles[0])}"
        p, p_step, q, q_step = self.profiles
        return (
            f"C2 at {format_profile(p)}->{format_profile(p_step)} vs "
            f"{format_profile(q)}->{format_profile(q_step)} (player {self.player})"
        )


class EquivalenceVerdict(_Record):
    """A reachability verdict: ``violation`` is the first falsified
    equality where ``equivalent`` is false, and None where it is true."""

    equivalent: bool
    violation: Violation | None

    def describe(self) -> str:
        if self.equivalent:
            return "EQUIVALENT"
        return f"NOT-EQUIVALENT: {self.violation.describe()}"


def diff_tensor(source: Game, target: Game) -> DiffTensor:
    """``target - source``, per profile and per player.

    Both games must share players, strategy names, and shape.
    """
    source.space._require(target.space)
    values = tuple(
        tuple(t - s for s, t in zip(s_cell, t_cell))
        for s_cell, t_cell in zip(source.payoffs, target.payoffs)
    )
    return DiffTensor(source.space, values)


def check_equivalence(source: Game, target: Game) -> EquivalenceVerdict:
    """Decide whether some offer set transforms ``source`` into ``target``.

    C1 is checked over all profiles first, then C2; the verdict reports the
    first violation in that order (row-major within each condition), so the
    outcome is deterministic.  Both conditions are decided on the games'
    integer views (``_check``), not on ``diff_tensor``'s ``Fraction``s.
    """
    return _check(source, target)[0]


def _check(
    source: Game, target: Game
) -> tuple[EquivalenceVerdict, tuple[int, ...], list[list[list[int]]]]:
    """``(verdict, scales, star)``: ``check_equivalence``'s verdict, with the
    integer difference view's scales and the coordinate star that C2 checks
    every block against.

    ``target - source`` is read on the games' integer views
    (``Game._scaled``): player j's differences are ints over ``scales[j]``,
    the lcm of the two games' scales for j, so each is one int subtraction
    and stays as short as player j's own denominators allow.  ``star[j][k][v]``
    is player j's difference at the all-first profile (0,…,0) with axis k set
    to v, times ``scales[j]``; it sits at flat index ``v * stride_k``.  A
    reachable tensor is determined by these values.  Both games must share
    players, strategy names, and shape.

    The target remembers its last result, keyed by the source's payoffs
    tuple, so synthesis after a check on the same pair (or a check after
    synthesis) reads the result instead of scanning again.  The key is the
    tuple itself, compared by identity: it keeps no source game alive, and
    an equal but distinct source is scanned afresh rather than compared
    value by value.  The frames are compared first, so a mismatched source
    raises whatever the target remembers.
    """
    source.space._require(target.space)
    checked = target.__dict__.get("_checked", (None,))
    if checked[0] is not source.payoffs:
        checked = target.__dict__["_checked"] = (source.payoffs, _scan(source, target))
    return checked[1]


def _scan(source: Game, target: Game):
    """``_check``'s C1/C2 pass over two games whose frames match."""
    space = source.space
    shape = space.shape
    counts, strides, size = shape.strategy_counts, shape.strides, shape.size
    s_scales, s_columns = source._scaled
    t_scales, t_columns = target._scaled
    scales, columns = [], []
    for s_scale, t_scale, s_col, t_col in zip(s_scales, t_scales, s_columns, t_columns):
        scale = math.lcm(s_scale, t_scale)
        if scale != s_scale:
            s_col = map(mul, s_col, repeat(scale // s_scale))
        if scale != t_scale:
            t_col = map(mul, t_col, repeat(scale // t_scale))
        scales.append(scale)
        columns.append(list(map(sub, t_col, s_col)))
    scales = tuple(scales)
    star = [
        [column[: stride * length : stride] for stride, length in zip(strides, counts)]
        for column in columns
    ]

    if len(set(scales)) == 1:
        # one scale for every player: a profile's ints sum to zero exactly
        # when its differences do
        broken = map(sum, zip(*columns))
    else:
        # compare each profile's two payoff totals instead, each over the
        # product of that profile's own denominators, which stays short even
        # where the players' scales are long
        broken = (
            s_num * t_den != t_num * s_den
            for (s_num, s_den), (t_num, t_den) in zip(
                map(_total, source.payoffs), map(_total, target.payoffs)
            )
        )
    flat = next(compress(count(), broken), None)
    if flat is not None:
        violation = Violation("C1", (shape._profile_at(flat),))
        return EquivalenceVerdict(False, violation), scales, star

    n = len(counts)
    # Under C1 the last player's steps are minus the others' sum, so C2 holds
    # for them too.  And once player j's steps match the star's along axes
    # 0..n-2 at every profile, walking those axes from (0,…,0,p_{n-1}) writes
    # j's difference at p as its value at (0,…,0,p_{n-1}) plus star terms
    # that do not involve p_{n-1}; so j's steps along axis n-1 match the
    # star's as well, and the first violation never lies on that axis.
    for j in range(n - 1):
        column = columns[j]
        for k in range(n - 1):
            stride, length = strides[k], counts[k]
            if length == 1:
                continue
            block = stride * length
            axis = star[j][k]
            # the star's step out of each position v, once per flat of a block
            # that can step: those with coordinate k below length - 1
            ref = [b - a for a, b in zip(axis, axis[1:]) for _ in range(stride)]
            for start in range(0, size, block):
                end = start + block
                steps = map(sub, column[start + stride : end], column[start : end - stride])
                flat = next(compress(count(start), map(ne, steps, ref)), None)
                if flat is None:
                    continue
                # p and p' step axis k from v to v + 1; so do q and q', which are 0 off axis k
                v = flat // stride % length
                witness = (flat, flat + stride, v * stride, (v + 1) * stride)
                violation = Violation(
                    "C2", tuple(map(shape._profile_at, witness)), player=space.players[j], axis=k
                )
                return EquivalenceVerdict(False, violation), scales, star
    return EquivalenceVerdict(True, None), scales, star
