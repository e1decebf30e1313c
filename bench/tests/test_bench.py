"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import importlib.util
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from preplay import (  # noqa: E402
    Offer,
    OfferSet,
    apply_offer_set,
    check_equivalence,
    constant_sum,
    dominance,
    make_profile_dominant,
    pareto_optimal,
    pure_nash,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tier1_fixtures():
    spec = importlib.util.spec_from_file_location("tier1_fixtures", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURES = _tier1_fixtures()
FIXTURE_GAMES = {
    "pd": FIXTURES.pd_game(),
    "cube": FIXTURES.cube_game(),
    "wide": FIXTURES.grid_game(
        ("A", "B"),
        (("A1", "A2", "A3", "A4"), ("B1", "B2", "B3")),
        [(4, 4), (6, 2), (0, 6), (2, 6), (1, 1), (2, 2), (5, 0), (0, 1), (1, 5), (0, 0), (2, 3), (3, 0)],
    ),
}


@pytest.fixture
def cli_workload(tmp_path):
    workload = workloads.Cli(tmp_path)
    yield workload
    workload.close()


def _plain(game):
    counts = tuple(len(row) for row in game.strategies)
    return counts, [tuple(cell) for cell in game.payoffs]


# ---------------------------------------------------------------------------
# the generator


@pytest.mark.parametrize("name", ["reach", "transform"])
def test_generator_is_deterministic(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path)
    for slot in range(len(workload.layout)):
        assert workload.make(7, 1, slot) == workload.make(7, 1, slot)
    first = [workload.make(7, 0, s).data for s in range(len(workload.layout))]
    other = [workload.make(8, 0, s).data for s in range(len(workload.layout))]
    assert first != other


def test_cli_generator_is_deterministic(cli_workload):
    for slot in range(len(cli_workload.layout)):
        a, b = cli_workload.make(3, 0, slot), cli_workload.make(3, 0, slot)
        assert (a.kind, a.data["argv"], a.data["docs"]) == (b.kind, b.data["argv"], b.data["docs"])


@pytest.mark.parametrize("name", ["reach", "transform", "cli"])
def test_every_block_holds_the_whole_layout(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path)
    for block in range(3):
        order = gen.block_order(workload.layout, name, 5, block)
        assert sorted(order) == list(range(len(workload.layout)))
    workload.close()


def test_hostile_documents_are_never_valid(cli_workload):
    for slot in range(40):
        for cls in gen.HOSTILE_CLASSES:
            req = gen.hostile_request(cls, gen.rng_for("t", slot), slot % 2 == 1, cli_workload.files)
            if cls == "unknown_names":
                continue  # the documents are valid; a name in them or on the command line is not
            if cls == "huge_exponent":
                # well-formed, but a bounded rational grammar must refuse it
                assert '"1e10000000"' in req.data["docs"]["game"]
                continue
            with pytest.raises((ValueError, ZeroDivisionError, KeyError, TypeError, RecursionError)):
                oracle.read_game(req.data["docs"]["game"])


# ---------------------------------------------------------------------------
# the oracle against the library on the tier-1 fixture games


@pytest.mark.parametrize("name", sorted(FIXTURE_GAMES))
def test_oracle_applies_offers_like_the_library(name):
    game = FIXTURE_GAMES[name]
    counts, cells = _plain(game)
    rng = gen.rng_for("oracle", name)
    offers = gen.random_offers(rng, counts, 6, rational=True)
    offer_set = OfferSet(
        game.space,
        tuple(
            Offer(game.players[a], game.players[b], game.strategies[b][s], amount)
            for a, b, s, amount in offers
        ),
    )
    assert oracle.apply_offers(counts, cells, offers) == list(apply_offer_set(game, offer_set).payoffs)


@pytest.mark.parametrize("name", sorted(FIXTURE_GAMES))
def test_oracle_confirms_library_witnesses(name):
    game = FIXTURE_GAMES[name]
    counts, cells = _plain(game)
    rng = gen.rng_for("witness", name)
    for _ in range(20):
        target = gen.perturb_one_cell(rng, cells, rational=False)
        verdict = check_equivalence(game, type(game)(game.players, game.strategies, tuple(target)))
        assert not verdict.equivalent
        v = verdict.violation
        player = game.players.index(v.player) if v.player is not None else None
        assert oracle.witness_falsifies(counts, cells, target, v.kind, v.profiles, player)
    # a witness for a reachable pair is rejected
    assert not oracle.witness_falsifies(counts, cells, cells, "C1", [(0,) * len(counts)])


@pytest.mark.parametrize("name", sorted(FIXTURE_GAMES))
def test_oracle_dominance_checks_agree_with_the_library(name):
    game = FIXTURE_GAMES[name]
    counts, cells = _plain(game)
    profile = tuple(c - 1 for c in counts)
    offers = make_profile_dominant(game, profile, Fraction(1, 2))
    final = apply_offer_set(game, offers)
    final_cells = [tuple(c) for c in final.payoffs]
    assert oracle.dominant_by_margin(counts, final_cells, profile, Fraction(1, 2))
    assert not oracle.dominant_by_margin(counts, final_cells, profile, Fraction(10**6))
    for g in (game, final):
        c = [tuple(x) for x in g.payoffs]
        assert oracle.pure_nash(counts, c) == set(pure_nash(g))
        assert oracle.pareto(counts, c) == set(pareto_optimal(g))
        assert oracle.pareto_confirms(counts, c, set(pareto_optimal(g)))
        assert oracle.constant_sum(c) == constant_sum(g)
        for k, player in enumerate(g.players):
            names = g.strategies[k]
            want = {(names[s], names[t], kind) for s, t, kind in oracle.dominance_pairs(counts, c, k)}
            assert want == set(dominance(g, player))


def test_pareto_confirms_rejects_a_wrong_set():
    counts, cells = _plain(FIXTURE_GAMES["cube"])
    right = oracle.pareto(counts, cells)
    assert oracle.pareto_confirms(counts, cells, right)
    assert not oracle.pareto_confirms(counts, cells, right - {min(right)})
    extra = next(p for p in oracle.profiles(counts) if p not in right)
    assert not oracle.pareto_confirms(counts, cells, right | {extra})


# ---------------------------------------------------------------------------
# names and the benchmark definition


def test_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(workloads.WORKLOADS) + list(run.END_TO_END) + list(run.per_layer_units())
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
