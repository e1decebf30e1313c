"""Complete a partially specified target game from a coordinate star.

Fixing target payoffs on the star of a base profile (the base plus every
profile differing from it in exactly one coordinate) pins down the entire
reachable target.  Writing c for the per-player difference against the
source, a reachable difference is additively separable per player, so for
the base b every profile p satisfies

    c(p) = c(b) + sum over axes k of [c(b with axis k set to p_k) - c(b)]

and the completion is read straight off the star as an outer sum over the
axes, built in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    Game,
    PayoffVector,
    Profile,
    RationalLike,
    _add_separable,
    as_rational,
    format_profile,
    payoff_sum,
)
from .errors import ArityMismatch, IncompleteSeed, SeedSumViolation

__all__ = ["Seed", "complete_from_seed", "two_person_seed"]


@dataclass(frozen=True)
class Seed:
    """Target payoff vectors for every profile on the star of ``base_profile``."""

    base_profile: Profile
    assignments: Mapping[Profile, PayoffVector]

    def __post_init__(self):
        object.__setattr__(self, "base_profile", tuple(int(i) for i in self.base_profile))
        fixed = {
            tuple(int(i) for i in profile): tuple(as_rational(v) for v in vector)
            for profile, vector in dict(self.assignments).items()
        }
        object.__setattr__(self, "assignments", fixed)


def complete_from_seed(source: Game, seed: Seed) -> Game:
    """The unique game that agrees with the seed on the star and is
    reachable from ``source`` by offers.

    The seed must cover exactly the star of its base profile, and each seed
    vector must have the same payoff total as the source at that profile
    (offers cannot change outcome totals, so no other seed is realizable).
    Each profile's difference is the base's difference plus, per axis, the
    step the star takes from the base to that profile's coordinate.  The
    result needs no reachability check: it is separable by construction, and
    zero-sum at every profile because it sums zero-sum star vectors.
    """
    space = source.space
    shape = space.shape
    n = shape.player_count
    base = shape.validate_profile(seed.base_profile)

    star = list(shape.star(base))
    star_set = set(star)
    provided = set(seed.assignments)
    missing = sorted(star_set - provided)
    extra = sorted(provided - star_set)
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing " + ", ".join(format_profile(p) for p in missing))
        if extra:
            parts.append("unexpected " + ", ".join(format_profile(p) for p in extra))
        raise IncompleteSeed(
            f"seed must cover exactly the star of {format_profile(base)}: " + "; ".join(parts)
        )

    diff: dict[Profile, PayoffVector] = {}
    for p in star:
        vector = seed.assignments[p]
        if len(vector) != n:
            raise ArityMismatch(
                f"seed at {format_profile(p)}: payoff vector of length {len(vector)} "
                f"in a {n}-player game"
            )
        total = sum(vector, Fraction(0))
        required = payoff_sum(source, p)
        if total != required:
            raise SeedSumViolation(
                f"seed at {space.name_profile(p)} has payoff total {total}; "
                f"offers preserve the source total {required}"
            )
        diff[p] = tuple(t - s for t, s in zip(vector, source.payoff(p)))

    # the same sum regrouped: c(p) = (1 - n) c(b) + sum_k c(b with axis k set to p_k)
    origin = tuple((1 - n) * x for x in diff[base])
    steps = [
        [diff[base[:k] + (v,) + base[k + 1 :]] for v in range(count)]
        for k, count in enumerate(shape.strategy_counts)
    ]
    return _add_separable(source, origin, steps)


def two_person_seed(
    source: Game,
    base_profile: Sequence[int],
    first_player_values: Mapping[Sequence[int], RationalLike],
) -> Seed:
    """Build a two-person seed from the first player's target values alone;
    the second player's values are forced by outcome-sum preservation."""
    if source.shape.player_count != 2:
        raise ArityMismatch(
            f"first-player seeding needs exactly 2 players, got {source.shape.player_count}"
        )
    assignments = {}
    for profile, value in dict(first_player_values).items():
        profile = tuple(int(i) for i in profile)
        first = as_rational(value)
        assignments[profile] = (first, payoff_sum(source, profile) - first)
    return Seed(tuple(base_profile), assignments)
