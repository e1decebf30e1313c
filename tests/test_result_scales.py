"""A command never writes a game document that its own parser rejects:
``apply`` and ``complete`` check their result's payoffs against the bound a
parsed game's payoffs meet (``cli._check_scales``) before they write it.
Past the bound a command exits 2 with one line and writes nothing; at the
bound its output parses back to the game it computed."""

import json
import math

import pytest

from preplay import Seed, apply_offer_set, complete, complete_from_seed, offers
from preplay.cli import _MAX_SCALE_BITS, parse_game, parse_offers, run
from preplay.cli import parse_seed_assignments, serialize_game

TOO_VARIED = (
    "error: result: payoffs: denominators too varied: the players' common "
    f"denominators take more than {_MAX_SCALE_BITS} bits\n"
)


def game_doc(payoffs) -> str:
    """An 8 x 8 two-player game or seed document with these payoffs."""
    names = [f"s{j}" for j in range(8)]
    doc = {"schema": 1, "players": ["I", "II"], "strategies": [names, names], "payoffs": payoffs}
    return json.dumps(doc)


ZERO_GAME = game_doc([[["0", "0"]] * 8] * 8)


def coprime(count: int, step: int) -> list[int]:
    """``count`` odd, pairwise coprime denominators ``i * step + 1``: a prime
    dividing two of them divides their difference's factor ``i - j``, so it
    divides ``step``, a multiple of ``count!``, and then neither of them."""
    assert step % math.factorial(count) == 0
    values = [i * step + 1 for i in range(1, count + 1)]
    assert all(math.gcd(a, b) == 1 for k, a in enumerate(values) for b in values[k + 1 :])
    return values


def offers_doc(amounts) -> str:
    """Offers from I to II, the one on II's strategy s{j} paying ``amounts[j]``."""
    offers = [
        {"payer": "I", "payee": "II", "strategy": f"s{j}", "amount": amount}
        for j, amount in enumerate(amounts)
    ]
    return json.dumps({"schema": 1, "offers": offers})


# eight pairwise coprime denominators of about 4,000 digits: each player's
# common denominator in the applied 8 x 8 game is their product, some
# 106,000 bits, while the offer document holds 32.5 KB
LONG = coprime(8, math.factorial(8) * 10**3995)
LONG_OFFERS = offers_doc([f"1/{d}" for d in LONG])


def bound_amounts(extra: int = 0) -> list[str]:
    """Amounts 1/d on eight strategies whose applied game's two common
    denominators take ``_MAX_SCALE_BITS + 2 * extra`` bits together: seven
    odd coprime d and a power of two that brings each player's lcm to half
    the bound."""
    odd = coprime(7, math.factorial(8) << 2990)
    half = math.prod(odd).bit_length()
    power = _MAX_SCALE_BITS // 2 - half + extra
    return [f"1/{d}" for d in odd] + [f"1/{2**power}"]


@pytest.fixture
def paths(tmp_path):
    def write(**texts):
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        return tmp_path

    return write


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "-o"])
def test_apply_refuses_a_result_its_parser_would_reject(paths, capsys, output):
    root = paths(**{"game.json": ZERO_GAME, "offers.json": LONG_OFFERS})
    target = root / "out.json"
    argv = ["apply", str(root / "game.json"), str(root / "offers.json")]
    assert run(argv + ["-o", str(target)] if output else argv) == 2
    assert capsys.readouterr() == ("", TOO_VARIED)
    assert not target.exists()


def test_complete_refuses_a_result_its_parser_would_reject(paths, capsys):
    # the seed's first row moves each column by 1/d: completion spreads
    # those amounts over every row, so both players' lcm is their product
    seed = [[None] * 8 for _ in range(8)]
    seed[0] = [["0", "0"]] + [[f"-1/{d}", f"1/{d}"] for d in LONG[1:]]
    for r in range(1, 8):
        seed[r][0] = ["0", "0"]
    root = paths(**{"game.json": ZERO_GAME, "seed.json": game_doc(seed)})
    assert run(["complete", str(root / "game.json"), str(root / "seed.json")]) == 2
    assert capsys.readouterr() == ("", TOO_VARIED)


def test_an_applied_game_at_the_bound_parses_back(paths, capsys):
    offers_text = offers_doc(bound_amounts())
    root = paths(**{"game.json": ZERO_GAME, "offers.json": offers_text})
    assert run(["apply", str(root / "game.json"), str(root / "offers.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    game = parse_game(ZERO_GAME)
    applied = apply_offer_set(game, parse_offers(offers_text, game.space))
    assert parse_game(out) == applied
    assert sum(scale.bit_length() for scale in applied._scaled[0]) == _MAX_SCALE_BITS


def test_an_applied_game_one_power_past_the_bound_exits_2(paths, capsys):
    root = paths(**{"game.json": ZERO_GAME, "offers.json": offers_doc(bound_amounts(1))})
    assert run(["apply", str(root / "game.json"), str(root / "offers.json")]) == 2
    assert capsys.readouterr() == ("", TOO_VARIED)


def test_the_library_keeps_no_bound():
    game = parse_game(ZERO_GAME)
    applied = apply_offer_set(game, parse_offers(LONG_OFFERS, game.space))
    assert sum(scale.bit_length() for scale in applied._scaled[0]) > _MAX_SCALE_BITS
    star = {p: applied.payoff(p) for p in game.shape.star((0, 0))}
    assert complete_from_seed(game, Seed((0, 0), star)) == applied


# ---------------------------------------------------------------------------
# the bound holds before any work: a result payoff moves only by numbers its
# own player's entries in the offer or seed document hold, so the game's
# payoffs and those entries bound every result scale


def refuse_the_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the outer-sum kernel ran")

    monkeypatch.setattr(offers, "_add_separable", refuse)
    monkeypatch.setattr(complete, "_add_separable", refuse)


def bound_seed(extra: int = 0) -> str:
    """A seed on the star of (s0, s0) whose completion's two common
    denominators take ``_MAX_SCALE_BITS + 2 * extra`` bits together: the
    first row moves columns 2–8 by 1/d for seven odd coprime d, and the
    second row's first cell moves that row by one over a power of two that
    brings each player's lcm to half the bound.  A completed payoff adds a
    row's and a column's amount, so each d takes about 4,000 bits, and no
    sum's denominator passes the int-to-str digit limit."""
    odd = coprime(7, math.factorial(8) << 3990)
    power = _MAX_SCALE_BITS // 2 - math.prod(odd).bit_length() + extra
    amounts = [f"1/{d}" for d in odd] + [f"1/{2**power}"]
    seed = [[None] * 8 for _ in range(8)]
    seed[0] = [["0", "0"]] + [[f"-{a}", a] for a in amounts[:7]]
    for r in range(1, 8):
        seed[r][0] = ["0", "0"]
    seed[1][0] = [amounts[7], f"-{amounts[7]}"]
    return game_doc(seed)


def test_apply_one_power_past_the_bound_exits_2_before_the_kernel(paths, capsys, monkeypatch):
    refuse_the_kernel(monkeypatch)
    root = paths(**{"game.json": ZERO_GAME, "offers.json": offers_doc(bound_amounts(1))})
    target = root / "out.json"
    argv = ["apply", str(root / "game.json"), str(root / "offers.json"), "-o", str(target)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", TOO_VARIED)
    assert not target.exists()


def test_complete_one_power_past_the_bound_exits_2_before_the_kernel(paths, capsys, monkeypatch):
    refuse_the_kernel(monkeypatch)
    root = paths(**{"game.json": ZERO_GAME, "seed.json": bound_seed(1)})
    target = root / "out.json"
    argv = ["complete", str(root / "game.json"), str(root / "seed.json"), "-o", str(target)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", TOO_VARIED)
    assert not target.exists()


def test_a_completed_game_at_the_bound_parses_back(paths, capsys):
    seed_text = bound_seed()
    root = paths(**{"game.json": ZERO_GAME, "seed.json": seed_text})
    assert run(["complete", str(root / "game.json"), str(root / "seed.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    game = parse_game(ZERO_GAME)
    assignments = parse_seed_assignments(seed_text, game)
    completed = complete_from_seed(game, Seed((0, 0), assignments))
    assert parse_game(out) == completed
    assert sum(scale.bit_length() for scale in completed._scaled[0]) == _MAX_SCALE_BITS


def test_a_seed_past_the_bound_exits_2_before_its_coverage_and_sums_are_checked(paths, capsys):
    # the base's cell is missing and the cell at (s0, s1) totals 2/d, not 0:
    # over the bound, neither fault is reached
    seed = json.loads(bound_seed(1))
    seed["payoffs"][0][0] = None
    seed["payoffs"][0][1][0] = seed["payoffs"][0][1][1]
    root = paths(**{"game.json": ZERO_GAME, "seed.json": json.dumps(seed)})
    assert run(["complete", str(root / "game.json"), str(root / "seed.json")]) == 2
    assert capsys.readouterr() == ("", TOO_VARIED)


def test_amounts_that_cancel_in_a_payees_sum_still_count_toward_its_bound(paths, capsys):
    # P0 receives 1/d from one payer and -1/d from another on each of its two
    # strategies, so its payoffs do not move, but its bound counts both
    # amounts: the applied game's four moved players take some 64,000 bits,
    # and P0's share of the bound some 32,000 more
    d = coprime(4, math.factorial(4) << 7990)
    doc = {
        "schema": 1,
        "players": ["P0", "P1", "P2", "P3", "P4"],
        "strategies": [["s0", "s1"]] + [["t"]] * 4,
        # one array per player: P0's two strategies, then one of each other's
        "payoffs": [[[[[["0"] * 5]]]]] * 2,
    }
    # P1 pays 1/d[j] on P0's s{j} and P2 pays -1/d[j]; P3 and P4 likewise over d[2 + j]
    payers = [("P1", "", 0), ("P2", "-", 0), ("P3", "", 2), ("P4", "-", 2)]
    entries = [
        {"payer": payer, "payee": "P0", "strategy": f"s{j}", "amount": f"{sign}1/{d[first + j]}"}
        for payer, sign, first in payers
        for j in range(2)
    ]
    game_text, offers_text = json.dumps(doc), json.dumps({"schema": 1, "offers": entries})

    game = parse_game(game_text)
    applied = apply_offer_set(game, parse_offers(offers_text, game.space))
    assert applied.payoffs[0][0] == applied.payoffs[1][0] == 0
    # the applied game alone is within the bound, and its document parses back
    bits = sum(scale.bit_length() for scale in applied._scaled[0])
    assert 64_000 - 100 < bits <= _MAX_SCALE_BITS
    assert parse_game(serialize_game(applied)) == applied

    root = paths(**{"game.json": game_text, "offers.json": offers_text})
    assert run(["apply", str(root / "game.json"), str(root / "offers.json")]) == 2
    assert capsys.readouterr() == ("", TOO_VARIED)
