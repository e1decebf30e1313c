"""A command never writes a game document that its own parser rejects:
``apply`` and ``complete`` check their result's payoffs against the bound a
parsed game's payoffs meet (``cli._check_scales``) before they write it.
Past the bound a command exits 2 with one line and writes nothing; at the
bound its output parses back to the game it computed."""

import json
import math

import pytest

from preplay import Seed, apply_offer_set, complete_from_seed
from preplay.cli import _MAX_SCALE_BITS, parse_game, parse_offers, run

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
