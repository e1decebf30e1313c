import math
import random
from fractions import Fraction

import pytest

import preplay.characterize
from preplay import (
    DiffTensor,
    EquivalenceVerdict,
    Game,
    NameMismatch,
    NotEquivalent,
    OfferSet,
    ShapeMismatch,
    Violation,
    apply_offer_set,
    check_equivalence,
    diff_tensor,
    payoff_sum,
    synthesize_offers,
)
from preplay.characterize import _check
from conftest import (
    CUBE_COMPLETED_S1,
    CUBE_COMPLETED_S2,
    WIDE_COMPLETED,
    WIDE_DIFF_A,
    grid_game,
    prime_denominator_game,
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


@pytest.mark.parametrize("mismatch", ["shape", "names"])
def test_every_frame_check_raises_the_same_error(m0, wide_source, mismatch):
    # check, synthesis, the difference tensor and apply compare frames alike
    if mismatch == "shape":
        other = wide_source
        expected = (ShapeMismatch, "cannot compare shape (2, 2) with shape (4, 3)")
    else:
        other = Game(("X", "Y"), m0.strategies, m0.payoffs)
        expected = (NameMismatch, "games disagree on player or strategy names")
    calls = (
        lambda: check_equivalence(m0, other),
        lambda: synthesize_offers(m0, other),
        lambda: diff_tensor(m0, other),
        lambda: apply_offer_set(m0, OfferSet(other.space, ())),
    )
    for call in calls:
        with pytest.raises((ShapeMismatch, NameMismatch)) as raised:
            call()
        assert (type(raised.value), str(raised.value)) == expected


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
# differential check against the Fraction scans


def fraction_star_readout(diff: DiffTensor) -> list[list[list[Fraction]]]:
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


def fraction_check_diff(diff: DiffTensor, every_player: bool = False) -> EquivalenceVerdict:
    """Reference verdict: C1 and C2 on ``diff_tensor``'s ``Fraction``s, C2
    along every axis and for every player but the last.  ``every_player``
    scans the last player too, although C1 already implies its
    separability."""
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
    star = fraction_star_readout(diff)
    # under C1 the last player's steps are minus the others' sum, so C2 holds for them too
    for j in range(n if every_player else n - 1):
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


def fraction_synthesis(source, target):
    """``synthesize_offers`` with the verdict and the star it reads taken from
    the ``Fraction`` references instead of the integer view; the star goes
    over as ints over each player's lcm of its denominators."""
    diff = diff_tensor(source, target)
    star = fraction_star_readout(diff)
    scales = tuple(math.lcm(*(v.denominator for axis in axes for v in axis)) for axes in star)
    int_star = [
        [[int(v * scale) for v in axis] for axis in axes] for axes, scale in zip(star, scales)
    ]
    reference = (fraction_check_diff(diff), scales, int_star)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preplay.characterize, "_check", lambda source, target: reference)
        return synthesize_offers(source, target)


def assert_same_verdict(source, target):
    """Compare whole verdicts and the star with the ``Fraction`` scans, and
    synthesis with its reference; return the reference verdict."""
    diff = diff_tensor(source, target)
    expected = fraction_check_diff(diff, every_player=True)
    assert witness(fraction_check_diff(diff)) == witness(expected)
    assert witness(check_equivalence(source, target)) == witness(expected)
    verdict, scales, star = _check(source, target)
    assert witness(verdict) == witness(expected)
    read = [[[Fraction(v, d) for v in axis] for axis in axes] for axes, d in zip(star, scales)]
    assert read == fraction_star_readout(diff)
    if expected.equivalent:
        assert synthesize_offers(source, target) == fraction_synthesis(source, target)
    else:
        with pytest.raises(NotEquivalent) as raised:
            synthesize_offers(source, target)
        assert witness(raised.value.verdict) == witness(expected)
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


def add_to_total(game, flat, amount):
    """``game`` with ``amount`` added to the first player's payoff at the
    outcome ``flat``: that outcome's total changes, so C1 fails there."""
    cells = list(game.payoffs)
    cells[flat] = (cells[flat][0] + amount,) + cells[flat][1:]
    return Game(game.players, game.strategies, tuple(cells))


def assert_same_verdicts_on_breaks(rng, game, target):
    """Reachable ``target``, utility trades and total changes on and off the
    star of (0,…,0), each compared with the references.  Returns how many C1
    witnesses fell on and off the star."""
    assert assert_same_verdict(game, target).equivalent
    profiles = list(game.shape.profiles())
    on_star = [flat for flat, p in enumerate(profiles) if sum(1 for x in p if x) <= 1]
    off_star = [flat for flat in range(len(profiles)) if flat not in on_star]
    n = len(game.players)
    for flat in (rng.randrange(len(profiles)), rng.choice(on_star)):
        payer, payee = rng.sample(range(n), 2)
        assert_same_verdict(game, move_utility(target, [flat], payer, payee, Fraction(1, 7)))
    hits = [0, 0]
    for side, flats in enumerate((on_star, off_star)):
        if flats:
            flat = rng.choice(flats)
            v = assert_same_verdict(game, add_to_total(target, flat, Fraction(1, 7))).violation
            assert v.kind == "C1" and v.profiles == (profiles[flat],)
            hits[side] += 1
    return hits


def test_check_matches_reference_with_unequal_scales():
    # an integer first player beside rational ones: the players' scales
    # differ, so C1 compares payoff totals instead of summing the view's ints
    rng = random.Random(29)
    unequal = equal = 0
    c1_hits = [0, 0]
    for _ in range(60):
        game = random_game(rng, max_players=4, min_strats=1)
        cells = tuple(
            cell[:1] + tuple(Fraction(v, rng.choice((2, 3, 5))) for v in cell[1:])
            for cell in game.payoffs
        )
        game = Game(game.players, game.strategies, cells)
        target = apply_offer_set(game, random_offer_set(rng, game.space))
        _, scales, _ = _check(game, target)
        if len(set(scales)) > 1:
            unequal += 1
        else:
            equal += 1
        hits = assert_same_verdicts_on_breaks(rng, game, target)
        c1_hits = [a + b for a, b in zip(c1_hits, hits)]
    assert unequal >= 50 and equal >= 1
    assert min(c1_hits) >= 20


def test_check_matches_reference_on_prime_denominators():
    game = prime_denominator_game()
    rng = random.Random(83)
    c1_hits = [0, 0]
    for _ in range(4):
        target = apply_offer_set(game, random_offer_set(rng, game.space, max_offers=8))
        _, scales, _ = _check(game, target)
        assert len(set(scales)) == 3
        hits = assert_same_verdicts_on_breaks(rng, game, target)
        c1_hits = [a + b for a, b in zip(c1_hits, hits)]
    assert c1_hits == [4, 4]


def test_check_and_synthesis_build_no_diff_tensor(monkeypatch, m0, m2, cube, verdict_source):
    def unused(source, target):
        raise AssertionError("built the Fraction difference tensor")

    monkeypatch.setattr("preplay.characterize.diff_tensor", unused)
    assert check_equivalence(m0, m2).equivalent
    assert apply_offer_set(m0, synthesize_offers(m0, m2).offers) == m2
    completed = completed_cube(cube)
    assert check_equivalence(cube, completed).equivalent
    assert apply_offer_set(cube, synthesize_offers(cube, completed).offers) == completed
    unreachable = verdict_target([(2, 6), (2, 3), (0, 3), (1, 1)])
    assert check_equivalence(verdict_source, unreachable).violation.kind == "C2"
    with pytest.raises(NotEquivalent):
        synthesize_offers(verdict_source, unreachable)
