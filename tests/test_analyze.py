import dataclasses
import math
import pickle
import random
import tracemalloc
from bisect import bisect_right
from functools import cached_property, partial, reduce
from fractions import Fraction
from itertools import accumulate, chain, compress, count, groupby, islice, repeat
from operator import and_, ge, lshift, ne, neg, or_, sub
from typing import Optional

import pytest

import preplay.analyze
from preplay import (
    AnalysisReport,
    Game,
    Offer,
    OfferSet,
    Profile,
    UnknownPlayer,
    apply_offer_set,
    canonicalize,
    constant_sum,
    dominance,
    make_profile_dominant,
    pareto_optimal,
    pure_nash,
    report,
    strictly_dominant_profile,
)
from conftest import (
    constant_sum_game,
    cube_game,
    grid_game,
    matching_pennies,
    prime_denominator_game,
    random_game,
    random_offer_set,
    rational_game,
    tie_game,
)


def test_pure_nash_pd_chain(m0, m1, m2):
    assert pure_nash(m0) == {(1, 1)}
    assert pure_nash(m1) == {(1, 0)}
    assert pure_nash(m2) == {(0, 0)}


def test_pure_nash_can_be_empty():
    assert pure_nash(matching_pennies()) == frozenset()


def test_dominance_pd(m1, m2):
    assert dominance(m1, "I") == {("D", "C", "strict"), ("D", "C", "weak")}
    assert dominance(m2, "I") == {("C", "D", "strict"), ("C", "D", "weak")}


def test_dominance_tied_rows_yield_no_pair():
    game = grid_game(
        ("I", "II"), (("a", "b"), ("x", "y")), [(3, 0), (1, 0), (3, 9), (1, 9)]
    )
    assert dominance(game, "I") == frozenset()
    # for the column player the payoffs do differ
    assert ("x", "y", "strict") not in dominance(game, "II")


def test_dominance_weak_but_not_strict():
    game = grid_game(
        ("I", "II"), (("a", "b"), ("x", "y")), [(3, 0), (1, 0), (3, 0), (0, 0)]
    )
    assert dominance(game, "I") == {("a", "b", "weak")}


def test_dominance_unknown_player(m0):
    with pytest.raises(UnknownPlayer):
        dominance(m0, "III")


def test_constant_sum_detection(m0):
    pennies = matching_pennies()
    assert constant_sum(pennies) == 0
    assert constant_sum(m0) is None
    shifted = grid_game(("I", "II"), (("H", "T"), ("H", "T")),
                        [(4, 1), (2, 3), (0, 5), (5, 0)])
    assert constant_sum(shifted) == 5


def constant_sum_prime_game(rng, counts, primes):
    """A constant-sum game whose payoffs for every player but the last each
    have their own prime denominator; the last player's payoff completes the
    fixed total 7/11."""
    total = Fraction(7, 11)
    cells = []
    for _ in range(math.prod(counts)):
        head = [
            Fraction(rng.randint(-3, 3) * p + rng.randrange(1, p), p)
            for p in (next(primes) for _ in counts[1:])
        ]
        cells.append((*head, total - sum(head)))
    names = tuple(tuple(f"s{j}" for j in range(c)) for c in counts)
    return Game(tuple(f"P{i}" for i in range(len(counts))), names, tuple(cells))


def test_constant_sum_matches_reference_on_prime_denominators():
    rng = random.Random(97)
    primes = iter(p for p in range(13, 10**5) if all(p % d for d in range(2, math.isqrt(p) + 1)))
    for counts in ((5, 5), (2, 3, 4), (3, 3, 3), (2, 2, 3, 2)):
        game = constant_sum_prime_game(rng, counts, primes)
        assert constant_sum(game) == reference_constant_sum(game) == Fraction(7, 11)
        # one payoff off the total: no common total
        cells = list(game.payoffs)
        flat = rng.randrange(len(cells))
        cells[flat] = (cells[flat][0] + Fraction(1, next(primes)), *cells[flat][1:])
        broken = Game(game.players, game.strategies, tuple(cells))
        assert constant_sum(broken) is reference_constant_sum(broken) is None


def test_constant_sum_leaves_the_integer_view_unbuilt():
    game = prime_denominator_game()
    assert constant_sum(game) == reference_constant_sum(game)
    assert "_scaled" not in vars(game)
    pennies = matching_pennies()
    assert constant_sum(pennies) == 0 and "_scaled" not in vars(pennies)


def test_constant_sum_invariant_under_offers():
    rng = random.Random(3)
    pennies = matching_pennies()
    for _ in range(10):
        offers = random_offer_set(rng, pennies.space)
        assert constant_sum(apply_offer_set(pennies, offers)) == 0


def test_pareto_optimal_pd(m0, m2):
    assert (0, 0) in pareto_optimal(m2)
    excluded = pareto_optimal(m0)
    assert (1, 1) not in excluded  # (4,4) strongly dominates (1,1)
    assert excluded == {(0, 0), (0, 1), (1, 0)}


def test_pareto_single_cell_game():
    game = Game(("I", "II"), (("a",), ("x",)), (((1, 2),)))
    assert pareto_optimal(game) == {(0, 0)}


def test_pareto_equal_vectors_do_not_dominate():
    game = grid_game(("I", "II"), (("a", "b"), ("x", "y")),
                     [(1, 1), (1, 1), (0, 0), (2, 0)])
    optimal = pareto_optimal(game)
    assert (0, 0) in optimal and (0, 1) in optimal


def test_strictly_dominant_profile(m0, m2):
    assert strictly_dominant_profile(m0) == (1, 1)
    assert strictly_dominant_profile(m2) == (0, 0)
    assert strictly_dominant_profile(matching_pennies()) is None


def test_report_consistency_on_random_games():
    rng = random.Random(13)
    for _ in range(25):
        game = random_game(rng)
        analysis = report(game)
        for player in game.players:
            pairs = analysis.dominance[player]
            strict = {(s, t) for s, t, kind in pairs if kind == "strict"}
            weak = {(s, t) for s, t, kind in pairs if kind == "weak"}
            assert strict <= weak
        dominant = analysis.strictly_dominant_profile
        if dominant is not None:
            assert dominant in analysis.pure_nash
        if analysis.constant_sum is not None:
            assert analysis.constant_sum == sum(game.payoffs[0], Fraction(0))


# ---------------------------------------------------------------------------
# the integer view against the Fraction kernels it replaced


def reference_pure_nash(game: Game) -> frozenset[Profile]:
    """Reference: the Fraction walk over ``game.payoffs``."""
    shape = game.shape
    counts, strides = shape.strategy_counts, shape.strides
    cells = game.payoffs
    equilibria = []
    for flat, profile in enumerate(shape.profiles()):
        stable = True
        for k, chosen in enumerate(profile):
            current = cells[flat][k]
            origin = flat - chosen * strides[k]
            if any(
                cells[origin + t * strides[k]][k] > current
                for t in range(counts[k])
                if t != chosen
            ):
                stable = False
                break
        if stable:
            equilibria.append(profile)
    return frozenset(equilibria)


def reference_dominance(game: Game, player: str):
    """Reference: the Fraction walk over ``game.payoffs``."""
    space = game.space
    k = space.player_index(player)
    shape = game.shape
    stride = shape.strides[k]
    count = shape.strategy_counts[k]
    names = space.strategies[k]
    cells = game.payoffs
    opposing = [flat for flat, p in enumerate(shape.profiles()) if p[k] == 0]

    pairs = set()
    for s in range(count):
        for t in range(count):
            if s == t:
                continue
            always_ge = always_gt = True
            ever_gt = False
            for flat in opposing:
                a = cells[flat + s * stride][k]
                b = cells[flat + t * stride][k]
                if a < b:
                    always_ge = False
                    break
                if a > b:
                    ever_gt = True
                else:
                    always_gt = False
            if not always_ge:
                continue
            if always_gt:
                pairs.add((names[s], names[t], "strict"))
            if ever_gt:
                pairs.add((names[s], names[t], "weak"))
    return frozenset(pairs)


def reference_constant_sum(game: Game) -> Optional[Fraction]:
    """Reference: the set of Fraction totals."""
    totals = {sum(cell, Fraction(0)) for cell in game.payoffs}
    if len(totals) == 1:
        return totals.pop()
    return None


def quadratic_pareto_optimal(game: Game) -> frozenset[Profile]:
    """Reference: every cell compared with every cell, on Fractions."""
    cells = game.payoffs
    optimal = []
    for flat, profile in enumerate(game.shape.profiles()):
        mine = cells[flat]
        dominated = any(
            all(o >= m for o, m in zip(other, mine)) and other != mine
            for other in cells
        )
        if not dominated:
            optimal.append(profile)
    return frozenset(optimal)


def skyline_pareto_optimal(game: Game) -> frozenset[Profile]:
    """Reference: the sort-filter skyline on the integer view.  Outcomes are
    visited by descending scaled sum, in groups of equal sum, and each is
    tested with >= against the optimal outcomes of earlier groups only.  Fast
    where few outcomes are optimal, quadratic where most are."""
    rows = list(zip(*game._scaled[1]))
    totals = [sum(row) for row in rows]
    order = sorted(range(len(rows)), key=totals.__getitem__, reverse=True)
    skyline: list[tuple[int, ...]] = []
    optimal = set()
    for _, group in groupby(order, key=totals.__getitem__):
        survivors = [
            flat
            for flat in group
            if not any(all(map(ge, other, rows[flat])) for other in skyline)
        ]
        skyline.extend(rows[flat] for flat in survivors)
        optimal.update(survivors)
    return frozenset(p for flat, p in enumerate(game.shape.profiles()) if flat in optimal)


def bitmap_pareto_optimal(game: Game, chunk: int = 4096) -> frozenset[Profile]:
    """Reference: the bitmap skyline over the distinct scaled vectors in
    first-seen order.  Every vector tests every other one: per player, the
    chunk's members sorted by that player's int and OR-ed into a running
    bitset give each vector, by bisection, the members >= it, and a vector is
    dominated iff the AND of its per-player sets holds more than its own bit."""
    rows = list(zip(*game._scaled[1]))
    vectors = list(dict.fromkeys(rows))
    size = len(vectors)
    # negated, so that ascending order is best first
    columns = [list(map(neg, column)) for column in zip(*vectors)]
    dominated = set()
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        own = chain(repeat(0, lo), map(lshift, repeat(1), range(hi - lo)), repeat(0, size - hi))
        common = reduce(partial(map, and_), [bitmap_at_most(c, lo, hi) for c in columns])
        dominated.update(compress(count(), map(ne, common, own)))
    beaten = set(map(vectors.__getitem__, dominated))
    return frozenset(p for p, row in zip(game.shape.profiles(), rows) if row not in beaten)


def bitmap_at_most(column: list[int], lo: int, hi: int):
    """For each entry of ``column``, the bitset of the members ``lo <= i <
    hi`` whose entry is at most its own (member i is bit ``i - lo``)."""
    members = sorted(range(lo, hi), key=column.__getitem__)
    ordered = list(map(column.__getitem__, members))
    # marks the last member of each run of equal entries
    last = list(map(ne, ordered, chain(islice(ordered, 1, None), (None,))))
    bits = accumulate(map(lshift, repeat(1), map(sub, members, repeat(lo))), or_)
    sets = [0, *compress(bits, last)]
    runs = partial(bisect_right, list(compress(ordered, last)))
    return map(sets.__getitem__, map(runs, column))


def reference_strictly_dominant_profile(game: Game) -> Optional[Profile]:
    """Reference: recomputes every player's dominance pairs."""
    space = game.space
    profile = []
    for k, player in enumerate(space.players):
        names = space.strategies[k]
        pairs = reference_dominance(game, player)
        winners = [
            s
            for s in range(len(names))
            if all((names[s], names[t], "strict") in pairs for t in range(len(names)) if t != s)
        ]
        if len(winners) != 1:
            return None
        profile.append(winners[0])
    return tuple(profile)


def reference_report(game: Game) -> AnalysisReport:
    return AnalysisReport(
        pure_nash=reference_pure_nash(game),
        dominance={player: reference_dominance(game, player) for player in game.players},
        constant_sum=reference_constant_sum(game),
        pareto_optimal=quadratic_pareto_optimal(game),
        strictly_dominant_profile=reference_strictly_dominant_profile(game),
    )


def assert_matches_references(game):
    expected = reference_report(game)
    assert report(game) == expected
    # each public kernel on a fresh copy, without report's shared pairs
    fresh = Game(game.players, game.strategies, game.payoffs)
    assert pure_nash(fresh) == expected.pure_nash
    for player in fresh.players:
        assert dominance(fresh, player) == expected.dominance[player]
    total = constant_sum(fresh)
    assert total == expected.constant_sum
    assert type(total) is type(expected.constant_sum)
    assert pareto_optimal(fresh) == expected.pareto_optimal
    assert strictly_dominant_profile(fresh) == expected.strictly_dominant_profile


def test_analysis_matches_references_on_corpus(corpus):
    for game, offers in corpus:
        assert_matches_references(game)
        assert_matches_references(apply_offer_set(game, offers))


def test_analysis_matches_references_up_to_four_players():
    rng = random.Random(61)
    shapes = set()
    for _ in range(60):
        game = rational_game(rng)
        shapes.add(game.shape.strategy_counts)
        assert_matches_references(game)
    assert any(len(counts) == 4 for counts in shapes)
    assert any(1 in counts for counts in shapes)


def test_analysis_matches_references_on_ties_and_constant_sums():
    rng = random.Random(62)
    duplicates = equal_totals = constant = 0
    for _ in range(60):
        for game in (tie_game(rng), constant_sum_game(rng)):
            assert_matches_references(game)
            cells = game.payoffs
            duplicates += len(set(cells)) < len(cells)
            equal_totals += len({sum(c) for c in cells}) < len(set(cells))
            constant += constant_sum(game) is not None
    assert duplicates and equal_totals and constant >= 60


def test_analysis_matches_references_on_dominated_games(corpus):
    # after make_profile_dominant the designated profile is strictly
    # dominant, which only 6 of the 400 corpus games and applied games are
    # on their own
    rng = random.Random(63)
    edges = [
        Game(
            tuple(f"P{i + 1}" for i in range(len(counts))),
            tuple(tuple(f"s{j + 1}" for j in range(c)) for c in counts),
            tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in counts)
                for _ in range(math.prod(counts))
            ),
        )
        for counts in ((1, 3), (3, 1), (1, 2, 3), (3, 2, 1), (1, 4, 1), (1, 1))
    ]
    games = [game for game, _ in corpus] + [rational_game(rng) for _ in range(60)] + edges
    for game in games:
        profile = tuple(rng.randrange(c) for c in game.shape.strategy_counts)
        margin = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        dominated = apply_offer_set(game, make_profile_dominant(game, profile, margin))
        assert_matches_references(dominated)
        assert strictly_dominant_profile(dominated) == profile


def test_analysis_matches_references_on_prime_denominators():
    game = prime_denominator_game()
    denominators = [v.denominator for cell in game.payoffs for v in cell]
    assert len(set(denominators)) == 81
    scales, columns = game._scaled
    assert scales == tuple(math.prod(v.denominator for v in column) for column in zip(*game.payoffs))
    # stored by player: column k holds player k's ints in row-major profile order
    assert len(columns) == len(game.players)
    assert all(type(column) is tuple and len(column) == game.shape.size for column in columns)
    assert all(
        Fraction(columns[k][f], scales[k]) == cell[k]
        for f, cell in enumerate(game.payoffs)
        for k in range(len(cell))
    )
    assert_matches_references(game)


def transferred_game(rng, counts, rational):
    """A game as offers leave it: payoffs from about 41 integers (or small
    rationals), 10-40 random offers applied, then the offers that make a
    random profile strictly dominant.  Transfers anti-correlate the players'
    payoffs, so many outcomes are Pareto optimal."""
    players = tuple(f"P{i + 1}" for i in range(len(counts)))
    strategies = tuple(tuple(f"s{j + 1}" for j in range(c)) for c in counts)

    def value():
        return Fraction(rng.randint(-20, 20), rng.randint(2, 7) if rational else 1)

    cells = tuple(tuple(value() for _ in counts) for _ in range(math.prod(counts)))
    game = Game(players, strategies, cells)
    offers = []
    for _ in range(rng.randint(10, 40)):
        i, j = rng.sample(range(len(counts)), 2)
        offers.append(Offer(players[i], players[j], rng.choice(strategies[j]), value()))
    moved = apply_offer_set(game, OfferSet(game.space, tuple(offers)))
    profile = tuple(rng.randrange(c) for c in counts)
    margin = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return apply_offer_set(moved, make_profile_dominant(moved, profile, margin))


@pytest.mark.parametrize(
    "counts",
    [(3, 3, 3, 3), (6, 6, 6), (20, 20), (5, 5, 5, 5), (12, 12, 12), (8, 8, 8, 8), (40, 40)],
    ids=lambda counts: "x".join(map(str, counts)),
)
def test_pareto_matches_skyline_on_transferred_games(counts):
    rng = random.Random(f"pareto {counts}")
    for rational in (False, True):
        game = transferred_game(rng, counts, rational)
        optimal = pareto_optimal(game)
        assert optimal == skyline_pareto_optimal(game)
        assert optimal == bitmap_pareto_optimal(game)
        assert 1 < len(optimal) < game.shape.size
        if game.shape.size <= 81:
            assert optimal == quadratic_pareto_optimal(game)


def test_pareto_matches_references_across_small_chunks(monkeypatch):
    # ordinary games span several chunks once a chunk holds 37 vectors
    monkeypatch.setattr(preplay.analyze, "_CHUNK", 37)
    rng = random.Random(65)
    games = [
        transferred_game(rng, counts, rational)
        for counts in ((3, 3, 3, 3), (6, 6, 6), (20, 20), (5, 5, 5, 5))
        for rational in (False, True)
    ]
    games += [tie_game(rng) for _ in range(20)] + [rational_game(rng) for _ in range(20)]
    chunks = 0
    for game in games:
        optimal = pareto_optimal(game)
        assert optimal == bitmap_pareto_optimal(game, chunk=37)
        assert optimal == skyline_pareto_optimal(game)
        if game.shape.size <= 81:
            assert optimal == quadratic_pareto_optimal(game)
        chunks += len(set(game.payoffs)) > 37
    assert chunks >= 8


def test_pareto_keeps_copies_and_dominators_across_a_chunk_boundary(monkeypatch):
    monkeypatch.setattr(preplay.analyze, "_CHUNK", 37)
    # 100 outcomes (2x, -2x), all optimal, with exact copies at flat indices
    # 36 and 37, either side of the first boundary in cell order, and at 3
    # and 80, two chunks apart: copies never dominate each other
    cells = [(2 * x, -2 * x) for x in range(100, 0, -1)]
    cells[36] = cells[37]
    cells[3] = cells[80]
    # (2x - 1, -2x - 1) and (2x, -2x - 1) are dominated by (2x, -2x) alone,
    # and hold a player-1 value no other outcome holds
    cells[60] = (cells[38][0] - 1, cells[38][1] - 1)
    cells[90] = (cells[75][0], cells[75][1] - 1)
    beaten = {60, 90}
    # best first, each dominator is the last vector of a chunk and the
    # vector it dominates the first of the next: 36 | 37 and 73 | 74
    vectors = sorted(set(cells), reverse=True)
    assert [vectors.index(cells[f]) for f in (38, 60, 75, 90)] == [36, 37, 73, 74]
    names = tuple(f"s{j + 1}" for j in range(10))
    game = Game(("I", "II"), (names, names), tuple(cells))
    shape = game.shape
    optimal = pareto_optimal(game)
    assert optimal == frozenset(shape.profiles()) - {shape._profile_at(f) for f in beaten}
    assert optimal == bitmap_pareto_optimal(game, chunk=37) == quadratic_pareto_optimal(game)


def test_pareto_across_chunks_in_linear_memory():
    # 16,384 cells of (2v, -2v) over distinct v: every outcome is optimal,
    # and the possible dominators take four chunks
    side = 128
    size = side * side
    chunk = preplay.analyze._CHUNK
    assert size >= 4 * chunk
    rng = random.Random(64)
    cells = [(2 * v, -2 * v) for v in rng.sample(range(-(10**6), 10**6), size)]
    # exact copies, one pair either side of the first chunk boundary and one
    # pair three chunks apart: copies never dominate each other
    cells[chunk - 1] = cells[chunk]
    cells[3] = cells[3 * chunk + 5]
    # (2v - 1, -2v) is dominated by (2v, -2v) alone, which sits in a later chunk
    dominated = (10, chunk + 1)
    for low, high in zip(dominated, (2 * chunk + 7, size - 1)):
        cells[low] = (cells[high][0] - 1, cells[high][1])
    names = tuple(f"s{j + 1}" for j in range(side))
    game = Game(("I", "II"), (names, names), tuple(cells))
    game._scaled
    tracemalloc.start()
    try:
        optimal = pareto_optimal(game)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    shape = game.shape
    assert optimal == frozenset(shape.profiles()) - {shape._profile_at(f) for f in dominated}
    # one bit per pair of cells would take 32 MiB per player here
    assert peak < 12 * 2**20


def test_report_computes_dominance_once_per_player(monkeypatch):
    calls = []
    original = preplay.analyze.dominance

    def counting(game, player):
        calls.append(player)
        return original(game, player)

    monkeypatch.setattr(preplay.analyze, "dominance", counting)
    report(cube_game())
    assert calls == ["1", "2", "3"]


def test_integer_view_is_computed_once_per_game(monkeypatch):
    # the view and the slice tables cut from it
    computed = []
    for name in ("_scaled", "_slices"):
        view = Game.__dict__[name]

        def counting(game, name=name, view=view):
            computed.append((name, game))
            return view.func(game)

        patched = cached_property(counting)
        patched.__set_name__(Game, name)
        monkeypatch.setattr(Game, name, patched)
    game = cube_game()
    report(game)
    make_profile_dominant(game, (0, 0, 0), 1)
    assert sorted(name for name, _ in computed) == ["_scaled", "_slices"]
    assert all(built is game for _, built in computed)


def test_cached_view_leaves_equality_hash_and_pickle_alone():
    game = prime_denominator_game()
    report(game)
    fresh = prime_denominator_game()
    for name in ("_scaled", "_slices"):
        assert name in vars(game) and name not in vars(fresh)
    assert game == fresh and hash(game) == hash(fresh)
    copy = pickle.loads(pickle.dumps(game))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert copy._scaled == fresh._scaled
    assert copy._slices == fresh._slices
    # tuples all the way down: a kernel cannot change a table another reads
    for lists, opposing in game._slices:
        assert type(lists) is tuple and type(opposing) is tuple
        assert {type(entries) for entries in lists} == {tuple}


def test_offer_set_table_leaves_equality_hash_repr_and_pickle_alone():
    game = cube_game()
    offers = random_offer_set(random.Random(11), game.space, max_offers=12)
    fresh = OfferSet(game.space, tuple(offers))
    assert len(set(offers)) >= 2
    assert offers == fresh and hash(offers) == hash(fresh)
    # a set is the offers in their order, not only the net table they share
    turned = OfferSet(game.space, offers.offers[::-1])
    assert turned._table == offers._table and turned != offers
    assert repr(offers) == f"OfferSet(space={game.space!r}, offers={offers.offers!r})"
    copy = pickle.loads(pickle.dumps(offers))
    assert copy == offers and hash(copy) == hash(offers)
    assert apply_offer_set(game, copy) == apply_offer_set(game, offers)
    assert canonicalize(copy) == canonicalize(offers)
    one = Offer(game.players[0], game.players[1], game.strategies[1][0], 5)
    replaced = dataclasses.replace(offers, offers=(one,))
    assert replaced._table == {(0, 1, 0): 5}
    assert apply_offer_set(game, replaced) == apply_offer_set(game, OfferSet(game.space, (one,)))
