import math
import random
from fractions import Fraction

import pytest

from preplay import Game, Offer, OfferSet, make_game

CORPUS_SEED = 20120806
CORPUS_SIZE = 200


# ---------------------------------------------------------------------------
# fixed games used all over the suite

PD_PAYOFFS = {
    ("C", "C"): (4, 4),
    ("C", "D"): (0, 5),
    ("D", "C"): (5, 0),
    ("D", "D"): (1, 1),
}


def pd_game(payoffs=PD_PAYOFFS):
    return make_game(("I", "II"), (("C", "D"), ("C", "D")), payoffs)


@pytest.fixture(scope="session")
def m0():
    return pd_game()


@pytest.fixture(scope="session")
def m1():
    return pd_game({("C", "C"): (2, 6), ("C", "D"): (0, 5), ("D", "C"): (3, 2), ("D", "D"): (1, 1)})


@pytest.fixture(scope="session")
def m2():
    return pd_game({("C", "C"): (4, 4), ("C", "D"): (2, 3), ("D", "C"): (3, 2), ("D", "D"): (1, 1)})


def grid_game(players, strategies, rows):
    """2-person game from a row-major list of (a, b) pairs."""
    return Game(players, strategies, tuple(rows))


@pytest.fixture(scope="session")
def verdict_source():
    return grid_game(
        ("I", "II"), (("C", "D"), ("C", "D")), [(4, 4), (0, 5), (3, 0), (1, 1)]
    )


@pytest.fixture(scope="session")
def wide_source():
    # 4x3 source used by the completion walkthrough
    rows = [
        (4, 4), (6, 2), (0, 6),
        (2, 6), (1, 1), (2, 2),
        (5, 0), (0, 1), (1, 5),
        (0, 0), (2, 3), (3, 0),
    ]
    return grid_game(("A", "B"), (("A1", "A2", "A3", "A4"), ("B1", "B2", "B3")), rows)


WIDE_SEED = {
    (0, 0): (1, 7), (0, 1): (4, 4), (0, 2): (2, 4),
    (1, 0): (7, 1), (2, 0): (3, 2), (3, 0): (0, 0),
}

WIDE_COMPLETED = [
    [(1, 7), (4, 4), (2, 4)],
    [(7, 1), (7, -5), (12, -8)],
    [(3, 2), (-1, 2), (4, 2)],
    [(0, 0), (3, 2), (8, -5)],
]

WIDE_DIFF_A = [[-3, -2, 2], [5, 6, 10], [-2, -1, 3], [0, 1, 5]]


def cube_game():
    """The 3-person 3x3x2 example game."""
    slice1 = [
        [(1, 2, 0), (2, 3, 1), (3, 1, 2)],
        [(2, 3, 3), (3, 4, 4), (4, 2, 5)],
        [(6, 5, 6), (7, 6, 7), (5, 7, 8)],
    ]
    slice2 = [
        [(1, 1, 8), (2, 2, 7), (3, 3, 6)],
        [(1, 2, 5), (2, 3, 4), (3, 4, 3)],
        [(2, 1, 2), (3, 2, 1), (1, 3, 0)],
    ]
    cells = []
    for i in range(3):
        for j in range(3):
            for k in range(2):
                cells.append((slice1 if k == 0 else slice2)[i][j])
    return Game(
        ("1", "2", "3"),
        (("A_11", "A_12", "A_13"), ("A_21", "A_22", "A_23"), ("A_31", "A_32")),
        tuple(cells),
    )


@pytest.fixture(scope="session")
def cube():
    return cube_game()


CUBE_SEED_BASE = (1, 1, 0)
CUBE_SEED = {
    (0, 1, 0): (1, 2, 3),
    (1, 0, 0): (4, 4, 0),
    (1, 1, 0): (5, 1, 5),
    (1, 2, 0): (3, 4, 4),
    (2, 1, 0): (8, 4, 8),
    (1, 1, 1): (3, 3, 3),
}

CUBE_COMPLETED_S1 = [
    [(0, 5, -2), (1, 2, 3), (-1, 5, 2)],
    [(4, 4, 0), (5, 1, 5), (3, 4, 4)],
    [(7, 7, 3), (8, 4, 8), (3, 10, 7)],
]
CUBE_COMPLETED_S2 = [
    [(-1, 7, 4), (0, 4, 7), (-2, 10, 4)],
    [(2, 6, 0), (3, 3, 3), (1, 9, 0)],
    [(2, 6, -3), (3, 3, 0), (-2, 9, -3)],
]

CUBE_DIFF_S1 = [
    [(-1, 3, -2), (-1, -1, 2), (-4, 4, 0)],
    [(2, 1, -3), (2, -3, 1), (-1, 2, -1)],
    [(1, 2, -3), (1, -2, 1), (-2, 3, -1)],
]
CUBE_DIFF_S2 = [
    [(-2, 6, -4), (-2, 2, 0), (-5, 7, -2)],
    [(1, 4, -5), (1, 0, -1), (-2, 5, -3)],
    [(0, 5, -5), (0, 1, -1), (-3, 6, -3)],
]


def matching_pennies():
    return grid_game(
        ("I", "II"), (("H", "T"), ("H", "T")), [(1, -1), (-1, 1), (-1, 1), (1, -1)]
    )


# ---------------------------------------------------------------------------
# random corpus


def random_game(rng, min_players=2, max_players=3, min_strats=2, max_strats=4):
    n = rng.randint(min_players, max_players)
    players = tuple(f"P{i + 1}" for i in range(n))
    strategies = tuple(
        tuple(f"s{j + 1}" for j in range(rng.randint(min_strats, max_strats)))
        for _ in range(n)
    )
    size = 1
    for row in strategies:
        size *= len(row)
    payoffs = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(size))
    return Game(players, strategies, payoffs)


# the shapes the benchmark's reach and transform workloads build
WORKLOAD_SHAPES = [
    (10, 10), (20, 20), (40, 40), (3, 3, 3, 3), (5, 5, 5, 5), (6, 6, 6), (12, 12, 12)
]


def shape_game(rng, counts):
    """A game of the given shape on raw cells: ints, ratio strings and
    ``Fraction``s, as a library caller may pass them."""
    players = tuple(f"P{k + 1}" for k in range(len(counts)))
    strategies = tuple(tuple(f"s{j + 1}" for j in range(count)) for count in counts)
    kinds = (
        lambda: rng.randint(-20, 20),
        lambda: f"{rng.randint(-20, 20)}/{rng.randint(1, 6)}",
        lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
    )
    cells = tuple(tuple(rng.choice(kinds)() for _ in counts) for _ in range(math.prod(counts)))
    return Game(players, strategies, cells)


def random_offer_set(rng, space, max_offers=5, payer=None):
    n = len(space.players)
    offers = []
    for _ in range(rng.randint(0, max_offers)):
        if payer is None:
            i, j = rng.sample(range(n), 2)
        else:
            i = payer
            j = rng.choice([k for k in range(n) if k != i])
        strategy = rng.choice(space.strategies[j])
        # mostly integers, sometimes halves/thirds, to exercise exact rationals
        amount = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3)))
        offers.append(Offer(space.players[i], space.players[j], strategy, amount))
    return OfferSet(space, tuple(offers))


def perturb_one_cell(rng, game):
    """Change exactly one outcome's payoffs, keeping its total intact."""
    cells = list(game.payoffs)
    index = rng.randrange(len(cells))
    j, k = rng.sample(range(len(game.players)), 2)
    delta = Fraction(rng.randint(1, 5))
    cell = list(cells[index])
    cell[j] += delta
    cell[k] -= delta
    cells[index] = tuple(cell)
    return Game(game.players, game.strategies, tuple(cells))


@pytest.fixture(scope="session")
def corpus():
    """(game, offer set) pairs shared by the law and oracle tests."""
    rng = random.Random(CORPUS_SEED)
    return [
        (game, random_offer_set(rng, game.space))
        for game in (random_game(rng) for _ in range(CORPUS_SIZE))
    ]


@pytest.fixture(scope="session")
def perturbed_corpus(corpus):
    """(game, same game with one sum-preserving cell change) pairs."""
    rng = random.Random(CORPUS_SEED + 1)
    return [(game, perturb_one_cell(rng, game)) for game, _ in corpus]


# ---------------------------------------------------------------------------
# analysis corpora: shapes, rationals and ties outside the shared corpus


def rational_game(rng):
    """2-4 players with 1-4 strategies each (single-strategy players
    included) and payoffs over denominators 1-3."""
    game = random_game(rng, max_players=4, min_strats=1)
    cells = tuple(
        tuple(Fraction(v, rng.choice((1, 2, 3))) for v in cell) for cell in game.payoffs
    )
    return Game(game.players, game.strategies, cells)


def tie_game(rng):
    """Cells drawn from a pool of four vectors over {-1, -1/2, 0, 1/2, 1}, so
    duplicate payoff vectors and equal totals abound."""
    game = random_game(rng, max_players=4, min_strats=1)
    n = len(game.players)
    pool = [
        tuple(Fraction(rng.randint(-1, 1), rng.choice((1, 2))) for _ in range(n))
        for _ in range(4)
    ]
    return Game(game.players, game.strategies, tuple(rng.choice(pool) for _ in game.payoffs))


def constant_sum_game(rng):
    """A rational game whose last player's payoff brings every total to 1/3."""
    game = rational_game(rng)
    cells = tuple(cell[:-1] + (Fraction(1, 3) - sum(cell[:-1]),) for cell in game.payoffs)
    return Game(game.players, game.strategies, cells)


def prime_denominator_game():
    """A 3x3x3 game whose 81 payoffs each have their own prime denominator:
    k + 1/p with k in -3..3, so integer parts tie often."""
    rng = random.Random(81)
    primes = iter(p for p in range(2, 420) if all(p % d for d in range(2, p)))
    cells = tuple(
        tuple(Fraction(rng.randint(-3, 3) * p + 1, p) for p in (next(primes) for _ in range(3)))
        for _ in range(27)
    )
    names = ("a", "b", "c")
    return Game(("1", "2", "3"), (names, names, names), cells)
