import random
from fractions import Fraction

import pytest

from preplay import (
    EquivalenceVerdict,
    Game,
    NameMismatch,
    ShapeMismatch,
    Violation,
    apply_offer_set,
    check_equivalence,
    diff_tensor,
    payoff_sum,
)
from preplay.characterize import _check_diff, _star_readout
from conftest import (
    CUBE_COMPLETED_S1,
    CUBE_COMPLETED_S2,
    WIDE_COMPLETED,
    WIDE_DIFF_A,
    grid_game,
    random_game,
    random_offer_set,
    rational_game,
)


def verdict_target(cells):
    return grid_game(("I", "II"), (("C", "D"), ("C", "D")), cells)


@pytest.fixture(scope="module")
def reachable_target():
    return verdict_target([(2, 6), (2, 3), (0, 3), (2, 0)])


def completed_wide(wide_source):
    cells = tuple(pair for row in WIDE_COMPLETED for pair in row)
    return Game(wide_source.players, wide_source.strategies, cells)


def completed_cube(cube):
    cells = []
    for i in range(3):
        for j in range(3):
            for k in range(2):
                cells.append((CUBE_COMPLETED_S1 if k == 0 else CUBE_COMPLETED_S2)[i][j])
    return Game(cube.players, cube.strategies, tuple(cells))


def test_diff_tensor_pd(m0, m2):
    diff = diff_tensor(m0, m2)
    assert [[diff.value((i, j), 0) for j in (0, 1)] for i in (0, 1)] == [[0, 2], [-2, 0]]
    assert [[diff.value((i, j), 1) for j in (0, 1)] for i in (0, 1)] == [[0, -2], [2, 0]]


def test_diff_tensor_self_is_zero(m0):
    diff = diff_tensor(m0, m0)
    assert all(v == 0 for cell in diff.values for v in cell)


def test_diff_tensor_wide_example(wide_source):
    diff = diff_tensor(wide_source, completed_wide(wide_source))
    got = [[diff.value((i, j), 0) for j in range(3)] for i in range(4)]
    assert got == WIDE_DIFF_A


def test_diff_tensor_frame_mismatch(m0, wide_source):
    with pytest.raises(ShapeMismatch):
        diff_tensor(m0, wide_source)
    renamed = Game(("X", "Y"), m0.strategies, m0.payoffs)
    with pytest.raises(NameMismatch):
        diff_tensor(m0, renamed)


def test_verdict_trio(verdict_source, reachable_target):
    good = check_equivalence(verdict_source, reachable_target)
    assert good.equivalent and good.violation is None
    assert good.describe() == "EQUIVALENT"

    bad_sum_kept = verdict_target([(2, 6), (2, 3), (0, 3), (1, 1)])
    verdict = check_equivalence(verdict_source, bad_sum_kept)
    assert not verdict.equivalent and verdict.violation.kind == "C2"
    assert verdict.describe().startswith("NOT-EQUIVALENT: C2 at ")

    swapped = verdict_target([(2, 6), (3, 2), (0, 3), (2, 0)])
    verdict = check_equivalence(verdict_source, swapped)
    assert not verdict.equivalent and verdict.violation.kind == "C2"


def test_self_equivalence(m0, cube):
    assert check_equivalence(m0, m0).equivalent
    assert check_equivalence(cube, cube).equivalent


def test_cube_completion_is_equivalent(cube):
    assert check_equivalence(cube, completed_cube(cube)).equivalent


def test_c1_violation_reported_first(m0):
    # break both conditions; C1 must win since it is checked in full first
    cells = list(m0.payoffs)
    cells[0] = (cells[0][0] + 1, cells[0][1])  # sum broken at (1,1)
    cells[3] = (cells[3][0] + 5, cells[3][1] - 5)  # rectangle broken, sums kept
    target = Game(m0.players, m0.strategies, tuple(cells))
    verdict = check_equivalence(m0, target)
    assert verdict.violation.kind == "C1"
    assert verdict.violation.profiles == ((0, 0),)
    assert verdict.describe() == "NOT-EQUIVALENT: C1 at (1,1)"


def test_violation_records_are_genuine_failing_equalities(perturbed_corpus):
    checked = 0
    for source, target in perturbed_corpus[:50]:
        verdict = check_equivalence(source, target)
        assert not verdict.equivalent
        violation = verdict.violation
        diff = diff_tensor(source, target)
        if violation.kind == "C1":
            (p,) = violation.profiles
            assert sum(diff.vector(p)) != 0
        else:
            p, p_step, q, q_step = violation.profiles
            j = source.space.player_index(violation.player)
            left = diff.value(p_step, j) - diff.value(p, j)
            right = diff.value(q_step, j) - diff.value(q, j)
            assert left != right
            axis = violation.axis
            assert p_step[axis] == p[axis] + 1 and q_step[axis] == q[axis] + 1
        checked += 1
    assert checked == 50


def test_applying_offers_always_yields_equivalent(m0):
    rng = random.Random(11)
    for _ in range(25):
        game = random_game(rng)
        offers = random_offer_set(rng, game.space)
        assert check_equivalence(game, apply_offer_set(game, offers)).equivalent


def test_c1_violation_on_sum_change(m0):
    cells = list(m0.payoffs)
    cells[2] = (cells[2][0] + 1, cells[2][1] + 1)
    target = Game(m0.players, m0.strategies, tuple(cells))
    verdict = check_equivalence(m0, target)
    assert verdict.violation.kind == "C1"
    assert verdict.violation.profiles == ((1, 0),)
    # the reported profile really does violate sum conservation
    assert payoff_sum(target, (1, 0)) != payoff_sum(m0, (1, 0))


# ---------------------------------------------------------------------------
# differential check against the scan over every player


def reference_check_diff(diff):
    """Reference verdict: the C2 scan runs over every player, the last one
    included, although C1 already implies the last player's separability."""
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


def witness(verdict):
    v = verdict.violation
    if v is None:
        return (verdict.equivalent,)
    return (verdict.equivalent, v.kind, v.profiles, v.player, v.axis)


def assert_same_verdict(source, target):
    """Compare whole verdicts; return the reference one."""
    expected = reference_check_diff(diff_tensor(source, target))
    assert witness(check_equivalence(source, target)) == witness(expected)
    assert witness(_check_diff(diff_tensor(source, target))) == witness(expected)
    return expected


def move_utility(game, flats, payer, payee, amount):
    """``game`` with ``amount`` moved from ``payer`` to ``payee`` at the
    outcomes ``flats``; every outcome keeps its total."""
    cells = list(game.payoffs)
    for flat in flats:
        cell = list(cells[flat])
        cell[payer] -= amount
        cell[payee] += amount
        cells[flat] = tuple(cell)
    return Game(game.players, game.strategies, tuple(cells))


def test_check_matches_reference_on_corpus(corpus, perturbed_corpus):
    kinds = []
    for (game, offers), (_, perturbed) in zip(corpus, perturbed_corpus):
        assert assert_same_verdict(game, apply_offer_set(game, offers)).equivalent
        kinds.append(assert_same_verdict(game, perturbed).violation)
    assert {v.kind for v in kinds if v is not None} == {"C2"}


def test_check_matches_reference_up_to_four_players():
    # every pair of players trades utility at one outcome of a reachable
    # target, the last two included, and again on a slice where axis k and
    # a later axis take fixed values, which breaks C2 first on axis k; C1
    # is broken once off the star
    rng = random.Random(73)
    shapes = set()
    c2_witnesses = set()
    c1_off_star = 0
    for _ in range(80):
        game = rational_game(rng)
        shape = game.shape
        n = shape.player_count
        profiles = list(shape.profiles())
        shapes.add(shape.strategy_counts)
        target = apply_offer_set(game, random_offer_set(rng, game.space, max_offers=8))
        assert assert_same_verdict(game, target).equivalent
        for payer in range(n):
            for payee in range(payer + 1, n):
                k = rng.randrange(n - 1)
                l = rng.randrange(k + 1, n)
                corner = tuple(rng.randrange(c) for c in shape.strategy_counts)
                on_slice = [
                    flat
                    for flat, p in enumerate(profiles)
                    if p[k] == corner[k] and p[l] == corner[l]
                ]
                for flats in ([rng.randrange(len(profiles))], on_slice):
                    amount = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
                    moved = move_utility(target, flats, payer, payee, amount)
                    v = assert_same_verdict(game, moved).violation
                    if v is not None:
                        c2_witnesses.add((n, game.space.player_index(v.player), v.axis))
        off_star = [flat for flat, p in enumerate(profiles) if sum(1 for x in p if x) >= 2]
        if off_star:
            flat = rng.choice(off_star)
            cells = list(target.payoffs)
            cells[flat] = (cells[flat][0] + 1,) + cells[flat][1:]
            broken = Game(game.players, game.strategies, tuple(cells))
            v = assert_same_verdict(game, broken).violation
            assert v.kind == "C1" and v.profiles == (profiles[flat],)
            c1_off_star += 1
    assert any(len(counts) == 4 for counts in shapes)
    assert any(1 in counts for counts in shapes)
    assert c1_off_star >= 20
    # witnesses fall on every player but the last and on every axis but the
    # last, in games of 2, 3 and 4 players
    for n in (2, 3, 4):
        assert {j for m, j, _ in c2_witnesses if m == n} == set(range(n - 1))
        assert {k for m, _, k in c2_witnesses if m == n} == set(range(n - 1))
