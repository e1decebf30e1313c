"""Acceptance gate: one test per shipping criterion, exact arithmetic only.

Every assertion here is equality of Fractions, games, or whole sets; there
are no tolerances anywhere.  Run with -v (add -s for the PASS lines) to get
one line per criterion.
"""

import json
import random
from fractions import Fraction

import pytest

from preplay import (
    Game,
    Offer,
    OfferSet,
    Seed,
    apply_offer,
    apply_offer_set,
    canonicalize,
    check_equivalence,
    complete_from_seed,
    constant_sum,
    diff_tensor,
    dominance,
    invert_offer_set,
    make_profile_dominant,
    payoff_sum,
    pure_nash,
    synthesize_offers,
)
from preplay.cli import parse_game, run, serialize_game
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
    grid_game,
)


def passed(number, text):
    print(f"criterion {number:02d}: PASS — {text}")


def test_criterion_01_pd_offer_chain(m0):
    m1 = apply_offer(m0, Offer("I", "II", "C", 2))
    assert [[tuple(m1.payoff((i, j))) for j in (0, 1)] for i in (0, 1)] == [
        [(2, 6), (0, 5)],
        [(3, 2), (1, 1)],
    ]
    m2 = apply_offer(m1, Offer("II", "I", "C", 2))
    assert [[tuple(m2.payoff((i, j))) for j in (0, 1)] for i in (0, 1)] == [
        [(4, 4), (2, 3)],
        [(3, 2), (1, 1)],
    ]
    assert pure_nash(m0) == {(1, 1)}  # (D,D)
    assert pure_nash(m1) == {(1, 0)}  # (D,C)
    assert pure_nash(m2) == {(0, 0)}  # (C,C)
    passed(1, "two offers turn the PD matrices and Nash sets exactly as expected")


def test_criterion_02_characterization_verdict_trio(verdict_source):
    targets = [
        ([(2, 6), (2, 3), (0, 3), (2, 0)], True),
        ([(2, 6), (2, 3), (0, 3), (1, 1)], False),
        ([(2, 6), (3, 2), (0, 3), (2, 0)], False),
    ]
    for cells, expected in targets:
        target = grid_game(("I", "II"), (("C", "D"), ("C", "D")), cells)
        verdict = check_equivalence(verdict_source, target)
        assert verdict.equivalent is expected
        if not expected:
            assert verdict.violation.kind == "C2"
    passed(2, "verdicts equivalent / C2-violated / C2-violated on the 2x2 trio")


def test_criterion_03_two_person_completion(wide_source):
    completed = complete_from_seed(wide_source, Seed((0, 0), WIDE_SEED))
    diff = diff_tensor(wide_source, completed)
    assert [[diff.value((i, j), 0) for j in range(3)] for i in range(4)] == WIDE_DIFF_A
    for i in range(4):
        for j in range(3):
            assert completed.payoff((i, j)) == tuple(map(Fraction, WIDE_COMPLETED[i][j]))
    passed(3, "4x3 row+column seed: difference matrix and completion cell-for-cell")


def test_criterion_04_three_person_completion(cube):
    completed = complete_from_seed(cube, Seed(CUBE_SEED_BASE, CUBE_SEED))
    diff = diff_tensor(cube, completed)
    for i in range(3):
        for j in range(3):
            assert diff.vector((i, j, 0)) == tuple(map(Fraction, CUBE_DIFF_S1[i][j]))
            assert diff.vector((i, j, 1)) == tuple(map(Fraction, CUBE_DIFF_S2[i][j]))
            assert completed.payoff((i, j, 0)) == tuple(map(Fraction, CUBE_COMPLETED_S1[i][j]))
            assert completed.payoff((i, j, 1)) == tuple(map(Fraction, CUBE_COMPLETED_S2[i][j]))
    passed(4, "3x3x2 star seed: difference slices and completion cell-for-cell")


def test_criterion_05_group_laws(corpus):
    assert len(corpus) >= 200
    rng = random.Random(99)
    for game, offers in corpus:
        shuffled = list(offers.offers)
        rng.shuffle(shuffled)
        forward = apply_offer_set(game, offers)
        assert apply_offer_set(game, OfferSet(game.space, tuple(shuffled))) == forward
        assert apply_offer_set(game, OfferSet(game.space, ())) == game
        assert apply_offer_set(forward, invert_offer_set(offers)) == game
    passed(5, "order independence, empty identity, and inverses on 200 random games")


def test_criterion_06_characterization_oracle(corpus, perturbed_corpus):
    for game, offers in corpus:
        target = apply_offer_set(game, offers)
        assert check_equivalence(game, target).equivalent
        result = synthesize_offers(game, target)
        assert apply_offer_set(game, result.offers) == target
    assert len(perturbed_corpus) >= 200
    for game, perturbed in perturbed_corpus:
        assert not check_equivalence(game, perturbed).equivalent
    passed(6, "reachability sound + synthesis round-trips; single-cell changes rejected")


def test_criterion_07_invariance_observations(corpus):
    for game, offers in corpus:
        transformed = apply_offer_set(game, offers)
        for profile in game.shape.profiles():
            assert payoff_sum(transformed, profile) == payoff_sum(game, profile)

        # force the game constant-sum, then transform: still constant-sum
        flattened = Game(
            game.players,
            game.strategies,
            tuple(cell[:-1] + (-sum(cell[:-1], Fraction(0)),) for cell in game.payoffs),
        )
        assert constant_sum(flattened) == 0
        assert constant_sum(apply_offer_set(flattened, offers)) == 0

        payer = game.players[0]
        outgoing = OfferSet(
            game.space, tuple(o for o in offers if o.payer == payer)
        )
        assert dominance(apply_offer_set(game, outgoing), payer) == dominance(game, payer)
    passed(7, "sum conservation, constant-sum preservation, own-dominance invariance")


def test_criterion_08_dominance_synthesis(corpus, m0):
    offers = make_profile_dominant(m0, (0, 0), 1)
    assert {(o.payer, o.payee, o.payee_strategy, o.amount) for o in offers} == {
        ("I", "II", "C", Fraction(2)),
        ("II", "I", "C", Fraction(2)),
    }
    rng = random.Random(1234)
    for game, _ in corpus:
        profile = tuple(rng.randrange(c) for c in game.shape.strategy_counts)
        offers = make_profile_dominant(game, profile, 1)
        assert all(o.amount >= 0 for o in offers)
        transformed = apply_offer_set(game, offers)
        assert pure_nash(transformed) == {profile}
        for k, player in enumerate(game.players):
            pairs = dominance(transformed, player)
            chosen = game.strategies[k][profile[k]]
            for other in game.strategies[k]:
                if other != chosen:
                    assert (chosen, other, "strict") in pairs
    passed(8, "dominance offers are nonnegative and make the profile uniquely stable")


def test_criterion_09_completion_uniqueness(corpus):
    rng = random.Random(777)
    for game, offers in corpus:
        target = apply_offer_set(game, offers)
        shape = game.shape
        base = tuple(rng.randrange(c) for c in shape.strategy_counts)
        seed = Seed(base, {p: target.payoff(p) for p in shape.star(base)})
        assert complete_from_seed(game, seed) == target
        other = tuple(rng.randrange(c) for c in shape.strategy_counts)
        reseeded = Seed(other, {p: target.payoff(p) for p in shape.star(other)})
        assert complete_from_seed(game, reseeded) == target
    passed(9, "a seed on any base profile's star reproduces the unique completion")


M0_DOC = json.dumps(
    {
        "schema": 1,
        "players": ["I", "II"],
        "strategies": [["C", "D"], ["C", "D"]],
        "payoffs": [[["4", "4"], ["0", "5"]], [["5", "0"], ["1", "1"]]],
    }
)


def test_criterion_10_cli_conformance(tmp_path, capsys, m0, m2):
    m0_path = tmp_path / "m0.json"
    m0_path.write_text(M0_DOC)
    m2_path = tmp_path / "m2.json"
    m2_path.write_text(serialize_game(m2))

    # exit 0: reachable target
    assert run(["check", str(m0_path), str(m2_path)]) == 0
    assert capsys.readouterr().out == "EQUIVALENT\n"

    # exit 1: unreachable target
    bad = json.loads(M0_DOC)
    bad["payoffs"][1][1] = ["2", "0"]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert run(["check", str(m0_path), str(bad_path)]) == 1
    assert capsys.readouterr().out.startswith("NOT-EQUIVALENT: C")

    # exit 2: malformed input
    broken_path = tmp_path / "broken.json"
    broken_path.write_text('{"players": [}')
    assert run(["analyze", str(broken_path)]) == 2
    capsys.readouterr()

    # demo prints all three matrices with their equilibria
    assert run(["demo", "pd"]) == 0
    out = capsys.readouterr().out
    for matrix_rows in (
        ("4,4 | 0,5", "5,0 | 1,1"),
        ("2,6 | 0,5", "3,2 | 1,1"),
        ("4,4 | 2,3", "3,2 | 1,1"),
    ):
        for row in matrix_rows:
            assert row in out
    for nash in ("(D,D)", "(D,C)", "(C,C)"):
        assert f"pure Nash equilibria: {nash}" in out

    # serialize(parse(x)) is a fixpoint
    normalized = serialize_game(parse_game(M0_DOC))
    assert serialize_game(parse_game(normalized)) == normalized
    assert parse_game(normalized) == m0
    passed(10, "exit codes 0/1/2, demo matrices, and serialization fixpoint")
