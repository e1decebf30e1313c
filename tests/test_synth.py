import random
from fractions import Fraction

import pytest

from preplay import (
    Game,
    InvalidProfile,
    NonpositiveMargin,
    NotEquivalent,
    Offer,
    OfferSet,
    SynthesisResult,
    apply_offer_set,
    canonicalize,
    check_equivalence,
    diff_tensor,
    make_profile_dominant,
    nonnegative_decomposition,
    payoff_sum,
    pure_nash,
    strictly_dominant_profile,
    synthesize_offers,
)
from preplay.core import as_rational
from preplay.errors import ArityMismatch, IndexOutOfRange
from conftest import (
    constant_sum_game,
    cube_game,
    grid_game,
    prime_denominator_game,
    random_game,
    random_offer_set,
    rational_game,
    tie_game,
)


def as_triples(offer_set):
    return {(o.payer, o.payee, o.payee_strategy, o.amount) for o in offer_set}


# ---------------------------------------------------------------------------
# synthesize_offers


def test_synthesize_pd_pair(m0, m2):
    result = synthesize_offers(m0, m2)
    assert as_triples(result.offers) == {
        ("I", "II", "C", Fraction(2)),
        ("II", "I", "C", Fraction(2)),
    }
    assert apply_offer_set(m0, result.offers) == m2
    # the underdetermined direction is fixed by pinning I's offer on II's
    # last strategy to zero
    assert result.pinned_variables == (("I->II/D", Fraction(0)),)


def test_synthesize_single_offer(m0, m1):
    result = synthesize_offers(m0, m1)
    assert as_triples(result.offers) == {("I", "II", "C", Fraction(2))}


def test_synthesize_identity(m0):
    result = synthesize_offers(m0, m0)
    assert result.offers.offers == ()
    assert all(value == 0 for _, value in result.pinned_variables)


def test_synthesize_rejects_unreachable(verdict_source):
    target = grid_game(
        ("I", "II"), (("C", "D"), ("C", "D")), [(2, 6), (2, 3), (0, 3), (1, 1)]
    )
    with pytest.raises(NotEquivalent) as info:
        synthesize_offers(verdict_source, target)
    assert info.value.verdict.violation.kind == "C2"


def test_synthesize_round_trips_on_random_pairs():
    rng = random.Random(23)
    for _ in range(30):
        game = random_game(rng)
        target = apply_offer_set(game, random_offer_set(rng, game.space))
        result = synthesize_offers(game, target)
        assert apply_offer_set(game, result.offers) == target
        assert result.offers == canonicalize(result.offers)


def test_synthesize_is_deterministic(m0, m2):
    assert synthesize_offers(m0, m2) == synthesize_offers(m0, m2)


def test_solution_family_shift_still_works(m0, m2):
    # adding one constant to every offer in both directions changes nothing:
    # the extra payments cancel outcome by outcome
    result = synthesize_offers(m0, m2)
    shift = Fraction(7, 3)
    net = {(o.payer, o.payee, o.payee_strategy): o.amount for o in result.offers}
    shifted = []
    for payer, payee in (("I", "II"), ("II", "I")):
        for strategy in ("C", "D"):
            amount = net.get((payer, payee, strategy), Fraction(0)) + shift
            shifted.append(Offer(payer, payee, strategy, amount))
    assert apply_offer_set(m0, OfferSet(m0.space, tuple(shifted))) == m2


def test_pinned_variables_three_players(cube):
    target = apply_offer_set(
        cube,
        OfferSet(cube.space, (Offer("1", "2", "A_21", 3), Offer("3", "1", "A_12", Fraction(-1, 2)))),
    )
    result = synthesize_offers(cube, target)
    assert apply_offer_set(cube, result.offers) == target
    assert result.pinned_variables == (
        ("1->2/A_23", Fraction(0)),
        ("3->2/A_23", Fraction(0)),
        ("1->3/A_32", Fraction(0)),
        ("2->3/A_32", Fraction(0)),
    )


# ---------------------------------------------------------------------------
# differential check against a general linear solve


def _solve_pinning_free(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[int]]:
    """Exact Gauss-Jordan over the rationals.

    Returns one solution (every non-pivot column set to zero) together with
    the list of free column indices.  Raises if the system is inconsistent.
    """
    height = len(rows)
    width = len(rows[0]) if rows else 0
    aug = [row + [b] for row, b in zip(rows, rhs)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, height) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        lead = aug[r][col]
        if lead != 1:
            aug[r] = [x / lead for x in aug[r]]
        for i in range(height):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == height:
            break
    for i in range(r, height):
        if aug[i][width] != 0:
            raise RuntimeError("offer system inconsistent despite passing the reachability check")
    solution = [Fraction(0)] * width
    for row_index, col in enumerate(pivot_cols):
        solution[col] = aug[row_index][width]
    pivot_set = set(pivot_cols)
    free = [c for c in range(width) if c not in pivot_set]
    return solution, free


def gauss_jordan_synthesis(source: Game, target: Game) -> SynthesisResult:
    """Reference synthesis: solve the star equations

        c_j(p) = sum_k e[k, j, p_j] - sum_k e[j, k, p_k]

    by Gauss-Jordan elimination, pinning every free variable to zero."""
    verdict = check_equivalence(source, target)
    if not verdict.equivalent:
        raise NotEquivalent(verdict)

    space = source.space
    shape = space.shape
    n = shape.player_count
    diff = diff_tensor(source, target)

    # unknown net offers e[payer, payee, payee-strategy], payee-major order:
    # the 2-person column order is then [all of B's offers to A, all of A's
    # offers to B] and left-to-right elimination leaves A's offer on B's
    # last strategy free, i.e. pinned to zero.
    columns: list[tuple[int, int, int]] = [
        (payer, payee, action)
        for payee in range(n)
        for payer in range(n)
        if payer != payee
        for action in range(shape.strategy_counts[payee])
    ]
    index_of = {var: i for i, var in enumerate(columns)}

    base = (0,) * n
    star = list(shape.star(base))
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    zero = Fraction(0)
    for j in range(n):
        for p in star:
            row = [zero] * len(columns)
            for k in range(n):
                if k == j:
                    continue
                row[index_of[(k, j, p[j])]] += 1
                row[index_of[(j, k, p[k])]] -= 1
            rows.append(row)
            rhs.append(diff.value(p, j))

    solution, free = _solve_pinning_free(rows, rhs)

    def var_id(var: tuple[int, int, int]) -> str:
        payer, payee, action = var
        return f"{space.players[payer]}->{space.players[payee]}/{space.strategies[payee][action]}"

    offers = tuple(
        Offer(
            space.players[payer],
            space.players[payee],
            space.strategies[payee][action],
            amount,
        )
        for (payer, payee, action), amount in zip(columns, solution)
        if amount != 0
    )
    pinned = tuple((var_id(columns[c]), Fraction(0)) for c in free)
    return SynthesisResult(canonicalize(OfferSet(space, offers)), pinned)


def test_synthesis_matches_gauss_jordan_on_corpus(corpus):
    for game, offers in corpus:
        target = apply_offer_set(game, offers)
        assert synthesize_offers(game, target) == gauss_jordan_synthesis(game, target)


def test_synthesis_matches_gauss_jordan_up_to_four_players():
    # single-strategy players and 4 players lie outside the shared corpus;
    # synthesizing back from the target also covers rational sources
    rng = random.Random(59)
    shapes = set()
    for _ in range(60):
        game = random_game(rng, max_players=4, min_strats=1)
        target = apply_offer_set(game, random_offer_set(rng, game.space, max_offers=8))
        shapes.add(game.shape.strategy_counts)
        for source, goal in ((game, target), (target, game)):
            assert synthesize_offers(source, goal) == gauss_jordan_synthesis(source, goal)
    assert any(len(counts) == 4 for counts in shapes)
    assert any(1 in counts for counts in shapes)


# ---------------------------------------------------------------------------
# nonnegative_decomposition


def test_decomposition_of_single_negative_offer():
    game = grid_game(("A", "B"), (("A1", "A2"), ("B1", "B2")), [(0, 0)] * 4)
    negative = OfferSet(game.space, (Offer("A", "B", "B1", -2),))
    decomposed = nonnegative_decomposition(negative)
    assert as_triples(decomposed) == {
        ("A", "B", "B2", Fraction(2)),
        ("B", "A", "A1", Fraction(2)),
        ("B", "A", "A2", Fraction(2)),
    }


def test_decomposition_keeps_nonnegative_sets(m0):
    offers = OfferSet(
        m0.space, (Offer("II", "I", "D", 1), Offer("I", "II", "C", 3), Offer("I", "II", "C", 0))
    )
    assert nonnegative_decomposition(offers) == canonicalize(offers)


def test_decomposition_equivalent_on_random_games():
    rng = random.Random(31)
    shape_holder = random_game(rng)
    offers = random_offer_set(rng, shape_holder.space, max_offers=6)
    decomposed = nonnegative_decomposition(offers)
    assert all(o.amount >= 0 for o in decomposed)
    for _ in range(100):
        game = Game(
            shape_holder.players,
            shape_holder.strategies,
            tuple(
                tuple(rng.randint(-9, 9) for _ in shape_holder.players)
                for _ in range(shape_holder.shape.size)
            ),
        )
        assert apply_offer_set(game, offers) == apply_offer_set(game, decomposed)


# ---------------------------------------------------------------------------
# make_profile_dominant


def test_dominate_pd_cooperation(m0, m2):
    offers = make_profile_dominant(m0, (0, 0), 1)
    assert as_triples(offers) == {
        ("II", "I", "C", Fraction(2)),
        ("I", "II", "C", Fraction(2)),
    }
    transformed = apply_offer_set(m0, offers)
    assert transformed == m2
    assert strictly_dominant_profile(transformed) == (0, 0)
    assert pure_nash(transformed) == {(0, 0)}


def test_dominate_no_offers_when_already_dominant(m2):
    # (C,C) already strictly dominant in M2 with slack 1, so margin below
    # the slack needs no payments
    assert make_profile_dominant(m2, (0, 0), Fraction(1, 2)).offers == ()


def test_dominate_cube_profile():
    cube = cube_game()
    offers = make_profile_dominant(cube, (2, 2, 0), 1)
    net = {(o.payer, o.payee, o.payee_strategy): o.amount for o in offers}
    assert net == {
        ("2", "1", "A_13"): Fraction(3),
        ("3", "2", "A_23"): Fraction(3),
        ("1", "3", "A_31"): Fraction(9),
    }
    transformed = apply_offer_set(cube, offers)
    assert strictly_dominant_profile(transformed) == (2, 2, 0)
    assert pure_nash(transformed) == {(2, 2, 0)}


def test_dominate_preserves_target_profile_sum(m0):
    offers = make_profile_dominant(m0, (0, 1), Fraction(3, 2))
    transformed = apply_offer_set(m0, offers)
    assert payoff_sum(transformed, (0, 1)) == payoff_sum(m0, (0, 1))


def test_dominate_margin_validation(m0):
    with pytest.raises(NonpositiveMargin):
        make_profile_dominant(m0, (0, 0), 0)
    with pytest.raises(NonpositiveMargin):
        make_profile_dominant(m0, (0, 0), Fraction(-1, 2))


def test_dominate_profile_validation(m0):
    with pytest.raises(InvalidProfile):
        make_profile_dominant(m0, (0,), 1)
    with pytest.raises(InvalidProfile):
        make_profile_dominant(m0, (0, 2), 1)
    with pytest.raises(InvalidProfile, match="profile entry 1.0 for player 1"):
        make_profile_dominant(m0, (1.0, 0), 1)


def test_dominate_rejects_a_bool_profile_entry(m0):
    message = "profile entry True for player 1 is not a strategy index"
    with pytest.raises(InvalidProfile, match=message):
        make_profile_dominant(m0, (True, False), 1)


def test_dominate_achieves_margin_everywhere():
    rng = random.Random(41)
    for _ in range(20):
        game = random_game(rng)
        shape = game.shape
        profile = tuple(rng.randrange(c) for c in shape.strategy_counts)
        margin = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
        transformed = apply_offer_set(game, make_profile_dominant(game, profile, margin))
        for k in range(shape.player_count):
            for p in shape.profiles():
                if p[k] == profile[k]:
                    continue
                q = p[:k] + (profile[k],) + p[k + 1 :]
                assert transformed.payoff(q)[k] - transformed.payoff(p)[k] >= margin


def per_profile_make_profile_dominant(game: Game, profile, margin) -> OfferSet:
    """Reference: walk every profile and read payoffs through ``game.payoff``."""
    margin = as_rational(margin)
    if margin <= 0:
        raise NonpositiveMargin(f"margin must be positive, got {margin}")
    shape = game.shape
    try:
        profile = shape.validate_profile(profile)
    except (ArityMismatch, IndexOutOfRange) as exc:
        raise InvalidProfile(str(exc)) from None

    space = game.space
    n = shape.player_count
    offers: list[Offer] = []
    for k in range(n):
        designated = profile[k]
        # worst shortfall: how much some alternative beats the designated
        # strategy by, across all opposing profiles
        gap = None
        for p in shape.profiles():
            if p[k] == designated:
                continue
            q = p[:k] + (designated,) + p[k + 1 :]
            advantage = game.payoff(p)[k] - game.payoff(q)[k]
            if gap is None or advantage > gap:
                gap = advantage
        if gap is None:
            continue  # single strategy: nothing to dominate
        amount = max(Fraction(0), gap + margin)
        offers.append(
            Offer(
                space.players[(k + 1) % n],
                space.players[k],
                space.strategies[k][designated],
                amount,
            )
        )
    return canonicalize(OfferSet(space, tuple(offers)))


def assert_dominate_matches_reference(rng, game, profiles=3):
    for _ in range(profiles):
        profile = tuple(rng.randrange(c) for c in game.shape.strategy_counts)
        margin = Fraction(rng.randint(1, 7), rng.choice((1, 2, 5)))
        expected = per_profile_make_profile_dominant(game, profile, margin)
        assert make_profile_dominant(game, profile, margin) == expected


def test_strided_dominate_matches_per_profile_walk_on_corpus(corpus):
    rng = random.Random(71)
    for game, offers in corpus:
        assert_dominate_matches_reference(rng, game)
        assert_dominate_matches_reference(rng, apply_offer_set(game, offers))


def test_strided_dominate_matches_per_profile_walk_on_odd_games():
    # 4 players, single-strategy players, rational payoffs, ties,
    # constant sums and a prime denominator per payoff
    rng = random.Random(72)
    shapes = set()
    for _ in range(60):
        for game in (rational_game(rng), tie_game(rng), constant_sum_game(rng)):
            shapes.add(game.shape.strategy_counts)
            assert_dominate_matches_reference(rng, game)
    assert any(len(counts) == 4 for counts in shapes)
    assert any(1 in counts for counts in shapes)
    assert_dominate_matches_reference(rng, prime_denominator_game(), profiles=10)
