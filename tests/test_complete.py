import random
from fractions import Fraction

import pytest

from preplay import (
    ArityMismatch,
    Game,
    GameShape,
    IncompleteSeed,
    IndexOutOfRange,
    Seed,
    SeedSumViolation,
    apply_offer_set,
    check_equivalence,
    complete_from_seed,
    diff_tensor,
    payoff_sum,
    synthesize_offers,
    two_person_seed,
)
from preplay.core import format_profile
from conftest import (
    CUBE_COMPLETED_S1,
    CUBE_COMPLETED_S2,
    CUBE_DIFF_S1,
    CUBE_DIFF_S2,
    CUBE_SEED,
    CUBE_SEED_BASE,
    WIDE_COMPLETED,
    WIDE_DIFF_A,
    WIDE_SEED,
    random_game,
    random_offer_set,
)


def star_seed_of(game, base):
    """Read a completed game's own star back off as a seed."""
    return Seed(base, {p: game.payoff(p) for p in game.shape.star(base)})


def test_wide_completion_matches_expected(wide_source):
    completed = complete_from_seed(wide_source, Seed((0, 0), WIDE_SEED))
    for i in range(4):
        for j in range(3):
            assert completed.payoff((i, j)) == tuple(map(Fraction, WIDE_COMPLETED[i][j]))
    diff = diff_tensor(wide_source, completed)
    assert [[diff.value((i, j), 0) for j in range(3)] for i in range(4)] == WIDE_DIFF_A


def test_cube_completion_matches_expected(cube):
    completed = complete_from_seed(cube, Seed(CUBE_SEED_BASE, CUBE_SEED))
    for i in range(3):
        for j in range(3):
            assert completed.payoff((i, j, 0)) == tuple(map(Fraction, CUBE_COMPLETED_S1[i][j]))
            assert completed.payoff((i, j, 1)) == tuple(map(Fraction, CUBE_COMPLETED_S2[i][j]))
    diff = diff_tensor(cube, completed)
    for i in range(3):
        for j in range(3):
            assert diff.vector((i, j, 0)) == tuple(map(Fraction, CUBE_DIFF_S1[i][j]))
            assert diff.vector((i, j, 1)) == tuple(map(Fraction, CUBE_DIFF_S2[i][j]))


def test_completion_agrees_with_seed_on_star(cube):
    completed = complete_from_seed(cube, Seed(CUBE_SEED_BASE, CUBE_SEED))
    for profile, vector in CUBE_SEED.items():
        assert completed.payoff(profile) == tuple(map(Fraction, vector))


def test_own_star_completes_to_self(wide_source, cube):
    for game in (wide_source, cube):
        base = (0,) * game.shape.player_count
        assert complete_from_seed(game, star_seed_of(game, base)) == game


def test_completion_output_is_reachable(wide_source):
    completed = complete_from_seed(wide_source, Seed((0, 0), WIDE_SEED))
    assert check_equivalence(wide_source, completed).equivalent
    result = synthesize_offers(wide_source, completed)
    assert apply_offer_set(wide_source, result.offers) == completed


def test_completion_runs_no_reachability_check(monkeypatch, wide_source, cube, corpus):
    # the outer sum of zero-sum star vectors is reachable by construction
    def unused(source, target):
        raise AssertionError("completion ran the reachability check")

    monkeypatch.setattr("preplay.characterize._check", unused)
    wide = complete_from_seed(wide_source, Seed((0, 0), WIDE_SEED))
    assert wide.payoffs == tuple(pair for row in WIDE_COMPLETED for pair in row)
    cube_cells = tuple(
        (CUBE_COMPLETED_S1, CUBE_COMPLETED_S2)[k][i][j]
        for i in range(3)
        for j in range(3)
        for k in range(2)
    )
    assert complete_from_seed(cube, Seed(CUBE_SEED_BASE, CUBE_SEED)).payoffs == cube_cells
    rng = random.Random(71)
    for game, offers in corpus:
        target = apply_offer_set(game, offers)
        assert complete_from_seed(game, star_seed_of(target, random_base(rng, game))) == target


def test_seed_sum_violation(wide_source):
    bad = dict(WIDE_SEED)
    bad[(0, 1)] = (4, 5)  # source total there is 8
    with pytest.raises(SeedSumViolation) as info:
        complete_from_seed(wide_source, Seed((0, 0), bad))
    assert "(A1,B2)" in str(info.value)


def test_seed_sum_violation_message(wide_source):
    bad = {**WIDE_SEED, (0, 1): (4, 5)}
    with pytest.raises(SeedSumViolation) as info:
        complete_from_seed(wide_source, Seed((0, 0), bad))
    assert str(info.value) == (
        "seed at (A1,B2) has payoff total 9; offers preserve the source total 8"
    )
    # both totals are reduced: 1/6 + 1/3 and 1/4 + 1/12
    source = Game(("A", "B"), (("A1",), ("B1", "B2")), ((Fraction(1, 4), Fraction(1, 12)), (1, 1)))
    seed = Seed((0, 0), {(0, 0): (Fraction(1, 6), Fraction(1, 3)), (0, 1): (1, 1)})
    with pytest.raises(SeedSumViolation) as info:
        complete_from_seed(source, seed)
    assert str(info.value) == (
        "seed at (A1,B1) has payoff total 1/2; offers preserve the source total 1/3"
    )


def test_incomplete_seed_missing_profile(wide_source):
    partial = dict(WIDE_SEED)
    del partial[(2, 0)]
    with pytest.raises(IncompleteSeed) as info:
        complete_from_seed(wide_source, Seed((0, 0), partial))
    assert "missing (3,1)" in str(info.value)


def test_incomplete_seed_extra_profile(wide_source):
    padded = dict(WIDE_SEED)
    padded[(1, 1)] = (1, -1)  # off the star
    with pytest.raises(IncompleteSeed) as info:
        complete_from_seed(wide_source, Seed((0, 0), padded))
    assert "unexpected (2,2)" in str(info.value)


def test_seed_non_integer_base_entry(wide_source):
    # a float is not truncated to a strategy index
    with pytest.raises(IndexOutOfRange):
        complete_from_seed(wide_source, Seed((0.9, 0), WIDE_SEED))


def test_seed_non_integer_profile_key(wide_source):
    bad = dict(WIDE_SEED)
    bad[(0.2, 1)] = bad.pop((0, 1))
    with pytest.raises(IncompleteSeed) as info:
        complete_from_seed(wide_source, Seed((0, 0), bad))
    assert "missing (1,2); unexpected (1.2,2)" in str(info.value)
    first_only = {profile: vector[0] for profile, vector in bad.items()}
    with pytest.raises(IndexOutOfRange):
        two_person_seed(wide_source, (0, 0), first_only)


def test_seed_non_number_profile_key(wide_source):
    # such a key can be neither rendered 1-based nor sorted with int keys
    alone = {**WIDE_SEED, ("a", 0): (1, -1)}
    with pytest.raises(IncompleteSeed) as info:
        complete_from_seed(wide_source, Seed((0, 0), alone))
    assert str(info.value).endswith(": unexpected ('a', 0)")
    mixed = {**WIDE_SEED, ("1", 0): (1, -1), (1, 1): (1, -1)}
    with pytest.raises(IncompleteSeed) as info:
        complete_from_seed(wide_source, Seed((0, 0), mixed))
    assert str(info.value).endswith(": unexpected (2,2), ('1', 0)")


def test_seed_vector_arity(wide_source):
    bad = dict(WIDE_SEED)
    bad[(0, 0)] = (1, 7, 0)
    with pytest.raises(ArityMismatch):
        complete_from_seed(wide_source, Seed((0, 0), bad))


def test_two_person_seed_derives_second_player(wide_source):
    first_only = {profile: vector[0] for profile, vector in WIDE_SEED.items()}
    seed = two_person_seed(wide_source, (0, 0), first_only)
    assert seed.assignments == Seed((0, 0), WIDE_SEED).assignments
    completed = complete_from_seed(wide_source, seed)
    assert completed.payoff((1, 2)) == (12, -8)


def test_two_person_seed_needs_two_players(cube):
    with pytest.raises(ArityMismatch):
        two_person_seed(cube, (0, 0, 0), {})


def test_base_profile_independence(cube):
    completed = complete_from_seed(cube, Seed(CUBE_SEED_BASE, CUBE_SEED))
    for other_base in ((0, 0, 0), (2, 2, 1), (0, 2, 1)):
        again = complete_from_seed(cube, star_seed_of(completed, other_base))
        assert again == completed


def test_sweeps_and_bases_agree_on_random_games():
    rng = random.Random(47)
    for _ in range(15):
        game = random_game(rng)
        target = apply_offer_set(game, random_offer_set(rng, game.space))
        shape = game.shape
        base = tuple(rng.randrange(c) for c in shape.strategy_counts)
        seed = Seed(base, {p: target.payoff(p) for p in shape.star(base)})
        # uniqueness: only one reachable extension
        assert complete_from_seed(game, seed) == target


# ---------------------------------------------------------------------------
# differential check against the sweep recurrence

SWEEPS = ("row-major", "diagonal")


def _sweep_order(shape: GameShape, base, sweep: str):
    """Profiles ordered so that stepping any coordinate toward the base moves
    strictly earlier in the order."""
    if sweep == "row-major":
        # per axis: base first, then the upper side ascending, then the lower
        # side descending; lexicographic over those per-axis positions
        def axis_position(k: int, v: int) -> int:
            if v >= base[k]:
                return v - base[k]
            return (shape.strategy_counts[k] - base[k]) + (base[k] - v)

        key = lambda p: tuple(axis_position(k, v) for k, v in enumerate(p))
    elif sweep == "diagonal":
        key = lambda p: (sum(abs(v - b) for v, b in zip(p, base)), p)
    else:
        raise ValueError(f"unknown sweep {sweep!r}; expected one of {SWEEPS}")
    return sorted(shape.profiles(), key=key)


def _toward_base(profile, axis: int, base):
    step = -1 if profile[axis] > base[axis] else 1
    return profile[:axis] + (profile[axis] + step,) + profile[axis + 1 :]


def sweep_completion(source: Game, seed: Seed, *, sweep: str = "row-major") -> Game:
    """Reference completion: extend the seed cell by cell with

        c(p) = c(p with axis k stepped toward base)
             + c(p with axis l stepped toward base)
             - c(p with both stepped toward base)

    for the first two axes k, l where p differs from the base, sweeping
    profiles in an order that fills those three neighbours first."""
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

    diff = {}
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

    for p in _sweep_order(shape, base, sweep):
        if p in diff:
            continue
        k, l = [axis for axis in range(n) if p[axis] != base[axis]][:2]
        a = _toward_base(p, k, base)
        b = _toward_base(p, l, base)
        ab = _toward_base(a, l, base)
        diff[p] = tuple(x + y - z for x, y, z in zip(diff[a], diff[b], diff[ab]))

    payoffs = tuple(
        tuple(s + d for s, d in zip(cell, diff[p]))
        for cell, p in zip(source.payoffs, shape.profiles())
    )
    completed = Game(source.players, source.strategies, payoffs)
    if not check_equivalence(source, completed).equivalent:
        raise RuntimeError("completed game failed the reachability post-check")
    return completed


def random_base(rng, game):
    return tuple(rng.randrange(c) for c in game.shape.strategy_counts)


def test_completion_matches_sweep_recurrence_on_corpus(corpus):
    rng = random.Random(61)
    for game, offers in corpus:
        target = apply_offer_set(game, offers)
        seed = star_seed_of(target, random_base(rng, game))
        completed = complete_from_seed(game, seed)
        for sweep in SWEEPS:
            assert completed == sweep_completion(game, seed, sweep=sweep)


def test_completion_matches_sweep_recurrence_up_to_four_players():
    # single-strategy players and 4 players lie outside the shared corpus;
    # completing back from the target also covers rational sources, and a
    # star of random sum-preserving vectors covers seeds no offer set chose
    rng = random.Random(67)
    shapes = set()
    for _ in range(60):
        game = random_game(rng, max_players=4, min_strats=1)
        target = apply_offer_set(game, random_offer_set(rng, game.space, max_offers=8))
        shapes.add(game.shape.strategy_counts)
        base = random_base(rng, game)
        n = game.shape.player_count
        arbitrary = {}
        for p in game.shape.star(base):
            shift = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n - 1)]
            shift.append(-sum(shift))
            arbitrary[p] = tuple(v + d for v, d in zip(game.payoff(p), shift))
        for source, seed in (
            (game, star_seed_of(target, base)),
            (target, star_seed_of(game, base)),
            (game, Seed(base, arbitrary)),
        ):
            completed = complete_from_seed(source, seed)
            for sweep in SWEEPS:
                assert completed == sweep_completion(source, seed, sweep=sweep)
    assert any(len(counts) == 4 for counts in shapes)
    assert any(1 in counts for counts in shapes)
