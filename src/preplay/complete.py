"""Complete a partially specified target game from a coordinate star.

Fixing target payoffs on the star of a base profile (the base plus every
profile differing from it in exactly one coordinate) pins down the entire
reachable target.  Writing c for the per-player difference against the
source, a reachable difference is additively separable per player, so for
the base b every profile p satisfies

    c(p) = c(b) + sum over axes k of [c(b with axis k set to p_k) - c(b)]

and the completion is read straight off the star as an outer sum over the
axes, built in row-major order on Python int pairs by the same kernel that
applies offers.  Each star difference t - s, and each of the origin's
(1 - n) c(b), is one ``core._fraction`` of int pairs read through the
public ``as_integer_ratio``, ``numerator`` and ``denominator``, not a
``Fraction`` operator.  Each seed vector's total is checked against the
source's with ``core._total``, on int pairs; ``Fraction`` totals are built
only for the error message.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from numbers import Real
from operator import mul

from .core import (
    Game,
    PayoffVector,
    Profile,
    RationalLike,
    _add_separable,
    _fraction,
    _Record,
    _shown,
    _total,
    _vector,
    as_rational,
    format_profile,
    payoff_sum,
)
from .errors import ArityMismatch, IncompleteSeed, SeedSumViolation

__all__ = ["Seed", "complete_from_seed", "two_person_seed"]


class Seed(_Record):
    """Target payoff vectors for every profile on the star of ``base_profile``."""

    base_profile: Profile
    assignments: Mapping[Profile, PayoffVector]

    def __post_init__(self):
        self.__dict__["base_profile"] = tuple(self.base_profile)
        memo: dict = {}
        fixed = {tuple(p): _vector(vector, memo) for p, vector in dict(self.assignments).items()}
        self.__dict__["assignments"] = fixed


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
    # the star validates the base and yields it first
    star = list(shape.star(seed.base_profile))
    base = star[0]
    star_set = set(star)
    provided = set(seed.assignments)
    missing = sorted(star_set - provided)
    extra = provided - star_set
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing " + ", ".join(format_profile(p) for p in missing))
        if extra:
            # a key with a non-number entry can neither be rendered 1-based nor
            # sorted with the others, so it is listed by its repr, after them
            odd = {p for p in extra if not all(isinstance(i, Real) for i in p)}
            shown = [format_profile(p) for p in sorted(extra - odd)] + sorted(map(repr, odd))
            parts.append("unexpected " + ", ".join(shown))
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
        # the star is built from the validated base, so its profiles index directly
        current = source.payoffs[sum(map(mul, p, shape.strides))]
        (num, den), (s_num, s_den) = _total(vector), _total(current)
        if num * s_den != s_num * den:
            raise SeedSumViolation(
                f"seed at {space.name_profile(p)} has payoff total {_shown(Fraction(num, den))}; "
                f"offers preserve the source total {_shown(Fraction(s_num, s_den))}"
            )
        pairs = zip(map(Fraction.as_integer_ratio, vector), map(Fraction.as_integer_ratio, current))
        diff[p] = tuple(_fraction(tn * sd - sn * td, td * sd) for (tn, td), (sn, sd) in pairs)

    # the same sum regrouped: c(p) = (1 - n) c(b) + sum_k c(b with axis k set to p_k)
    origin = tuple(_fraction((1 - n) * x.numerator, x.denominator) for x in diff[base])
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
        profile = tuple(profile)
        first = as_rational(value)
        assignments[profile] = (first, payoff_sum(source, profile) - first)
    return Seed(tuple(base_profile), assignments)
