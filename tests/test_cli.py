import argparse
import contextlib
import copy
import io
import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import preplay
from preplay import NonpositiveMargin, ParseError, Seed, SeedSumViolation, apply_offer_set
from preplay import complete_from_seed, make_game, make_profile_dominant
from preplay.cli import (
    _MAX_CELLS,
    _MAX_PLAYERS,
    _MAX_SCALE_BITS,
    _build_parser,
    _check_scales,
    _parse_frame,
    format_matrix,
    format_report,
    parse_game,
    parse_offers,
    parse_seed_assignments,
    run,
    serialize_game,
    serialize_offers,
)
from conftest import grid_game, matching_pennies, random_game

M0_DOC = """{
  "schema": 1,
  "players": ["I", "II"],
  "strategies": [["C", "D"], ["C", "D"]],
  "payoffs": [[["4", "4"], ["0", "5"]], [["5", "0"], ["1", "1"]]]
}
"""

M2_DOC = M0_DOC.replace('["0", "5"]', '["2", "3"]').replace('["5", "0"]', '["3", "2"]')

OFFER_DOC = """{
  "schema": 1,
  "offers": [{"payer": "I", "payee": "II", "strategy": "C", "amount": 2}]
}
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        return str(path)

    return write


# ---------------------------------------------------------------------------
# document layer


def test_parse_game_roundtrip(m0):
    parsed = parse_game(M0_DOC)
    assert parsed == m0
    assert parse_game(serialize_game(parsed)) == parsed


def test_serialize_is_fixpoint():
    once = serialize_game(parse_game(M0_DOC))
    assert serialize_game(parse_game(once)) == once


def test_rational_forms_accepted_and_normalized():
    doc = json.loads(M0_DOC)
    doc["payoffs"][0][0] = [4, "0.5"]
    doc["payoffs"][0][1] = ["-2/4", "11/2"]
    game = parse_game(json.dumps(doc))
    rendered = serialize_game(game)
    assert '"4"' in rendered and '"1/2"' in rendered and '"-1/2"' in rendered
    assert "0.5" not in rendered


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parse_serialize_identity_on_random_games(seed):
    game = random_game(random.Random(seed))
    assert parse_game(serialize_game(game)) == game
    rendered = serialize_game(game)
    assert serialize_game(parse_game(rendered)) == rendered


def test_parse_game_error_paths():
    with pytest.raises(ParseError) as info:
        parse_game("{", source="g.json")
    assert "g.json" in str(info.value)

    bad_dims = json.loads(M0_DOC)
    bad_dims["payoffs"][0] = bad_dims["payoffs"][0][:1]
    with pytest.raises(ParseError) as info:
        parse_game(json.dumps(bad_dims))
    assert "payoffs[0]" in str(info.value)

    bad_cell = json.loads(M0_DOC)
    bad_cell["payoffs"][1][1] = ["1", "x"]
    with pytest.raises(ParseError) as info:
        parse_game(json.dumps(bad_cell))
    assert "payoffs[1][1][1]" in str(info.value)

    bad_float = json.loads(M0_DOC)
    bad_float["payoffs"][0][0] = [0.5, "4"]
    with pytest.raises(ParseError):
        parse_game(json.dumps(bad_float))

    for version in (2, True, 1.0):
        with pytest.raises(ParseError) as info:
            parse_game(json.dumps({**json.loads(M0_DOC), "schema": version}))
        assert f"unsupported schema version {version!r}" in str(info.value)


# a frame whose names hold one fault
FRAME = '{"schema": 1, "players": %s, "strategies": %s, "payoffs": [[[0, 0]], [[0, 0]]]}'
ROWS = '[["a", "b"], ["c"]]'
SURROGATE = "string is not valid Unicode (lone surrogate)"


@pytest.mark.parametrize(
    "players, strategies, message",
    [
        ('["A", 3]', ROWS, "players[1]: expected a string, got int"),
        ('[null, "B"]', ROWS, "players[0]: expected a string, got NoneType"),
        ('["A", "\\ud800"]', ROWS, f"players[1]: {SURROGATE}"),
        ('["A", "B"]', '[["a", ["b"]], ["c"]]', "strategies[0][1]: expected a string, got list"),
        ('["A", "B"]', '[["a", "b"], [1.5]]', "strategies[1][0]: expected a string, got float"),
        ('["A", "B"]', '[["a", "b"], ["\\udfff"]]', f"strategies[1][0]: {SURROGATE}"),
    ],
)
def test_a_name_at_fault_keeps_its_location_and_message(players, strategies, message):
    with pytest.raises(ParseError) as exc:
        parse_game(FRAME % (players, strategies), source="doc")
    assert str(exc.value) == f"doc: {message}"


def test_an_offer_name_at_fault_keeps_its_location_and_message(m0):
    doc = '{"schema": 1, "offers": [{"payer": "I", "payee": 2, "strategy": "C", "amount": "1"}]}'
    with pytest.raises(ParseError) as exc:
        parse_offers(doc, m0.space, source="doc")
    assert str(exc.value) == "doc: offers[0].payee: expected a string, got int"


def test_parse_offers_validates(m0):
    offers = parse_offers(OFFER_DOC, m0.space)
    assert len(offers) == 1 and offers.offers[0].amount == 2
    doc = json.loads(OFFER_DOC)
    doc["offers"][0]["payee"] = "XX"
    with pytest.raises(ParseError) as info:
        parse_offers(json.dumps(doc), m0.space)
    assert "offers[0]" in str(info.value)
    doc = json.loads(OFFER_DOC)
    doc["offers"][0]["payee"] = "I"
    with pytest.raises(ParseError):
        parse_offers(json.dumps(doc), m0.space)


def test_parse_offers_strict_mode(m0):
    doc = json.loads(OFFER_DOC)
    doc["offers"][0]["amount"] = "-2"
    text = json.dumps(doc)
    parsed = parse_offers(text, m0.space)  # negative fine by default
    assert parsed.offers[0].amount == -2
    with pytest.raises(ParseError) as info:
        parse_offers(text, m0.space, strict=True)
    assert "strict" in str(info.value)


def test_offer_doc_roundtrip(m0):
    offers = parse_offers(OFFER_DOC, m0.space)
    assert parse_offers(serialize_offers(offers), m0.space) == offers


def test_parse_seed_assignments(m0):
    doc = json.loads(M0_DOC)
    doc["payoffs"][1][1] = None
    assignments = parse_seed_assignments(json.dumps(doc), m0)
    assert set(assignments) == {(0, 0), (0, 1), (1, 0)}
    assert assignments[(1, 0)] == (5, 0)

    doc["players"] = ["I", "III"]
    doc["strategies"] = [["C", "D"], ["C", "D"]]
    with pytest.raises(ParseError):
        parse_seed_assignments(json.dumps(doc), m0)


CUBE_DOC = {
    "schema": 1,
    "players": ["A", "B", "C"],
    "strategies": [["a1", "a2"], ["b1", "b2"], ["c1", "c2"]],
    "payoffs": [
        [[[str(i), str(j), str(k)] for k in range(2)] for j in range(2)] for i in range(2)
    ],
}

# (edit of the 2x2x2 document, the full message it must raise)
PAYOFF_ERRORS = [
    (lambda p: p[1].pop(), "{}: payoffs[1]: expected 2 elements, got 1"),
    (lambda p: p[0][1].append(["0", "0", "0"]), "{}: payoffs[0][1]: expected 2 elements, got 3"),
    (lambda p: p[1].__setitem__(0, "row"), "{}: payoffs[1][0]: expected an array, got str"),
    (lambda p: p[1][0][1].__setitem__(1, "x"), '{}: payoffs[1][0][1][1]: not a rational: "x"'),
    (
        lambda p: p[0][1][0].__setitem__(2, 0.5),
        "{}: payoffs[0][1][0][2]: expected an integer or a rational string, got 0.5",
    ),
    (lambda p: p[0][0][1].pop(), "{}: payoffs[0][0][1]: expected 3 elements, got 2"),
    (lambda p: p.clear(), "{}: payoffs: expected 2 elements, got 0"),
]


@pytest.mark.parametrize("edit, message", PAYOFF_ERRORS)
def test_payoff_errors_name_the_element_in_both_documents(edit, message):
    doc = copy.deepcopy(CUBE_DOC)
    edit(doc["payoffs"])
    with pytest.raises(ParseError) as info:
        parse_game(json.dumps(doc), source="g.json")
    assert str(info.value) == message.format("g.json")
    with pytest.raises(ParseError) as info:
        parse_seed_assignments(json.dumps(doc), parse_game(json.dumps(CUBE_DOC)), source="s.json")
    assert str(info.value) == message.format("s.json")


# ---------------------------------------------------------------------------
# commands and exit codes


def test_apply_command(files, capsys, m0, m1):
    code = run(["apply", files("m0.json", M0_DOC), files("o.json", OFFER_DOC)])
    assert code == 0
    assert parse_game(capsys.readouterr().out) == m1


def test_apply_writes_output_file(files, tmp_path, m1):
    out = tmp_path / "result.json"
    code = run(
        ["apply", files("m0.json", M0_DOC), files("o.json", OFFER_DOC), "-o", str(out)]
    )
    assert code == 0
    assert parse_game(out.read_text()) == m1


def test_check_command(files, capsys):
    m0 = files("m0.json", M0_DOC)
    m2 = files("m2.json", M2_DOC)
    assert run(["check", m0, m2]) == 0
    assert capsys.readouterr().out == "EQUIVALENT\n"

    bad = json.loads(M0_DOC)
    bad["payoffs"][1][1] = ["2", "0"]
    bad_path = files("bad.json", json.dumps(bad))
    assert run(["check", m0, bad_path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("NOT-EQUIVALENT: C2 at ")


def test_synth_command(files, capsys, m0, m2):
    code = run(["synth", files("m0.json", M0_DOC), files("m2.json", M2_DOC)])
    assert code == 0
    offers = parse_offers(capsys.readouterr().out, m0.space)
    assert apply_offer_set(m0, offers) == m2


def test_synth_unreachable_exits_1(files, capsys):
    bad = json.loads(M0_DOC)
    bad["payoffs"][1][1] = ["2", "0"]
    code = run(["synth", files("m0.json", M0_DOC), files("bad.json", json.dumps(bad))])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("NOT-EQUIVALENT: C2 at ")


WIDER_DOC = M0_DOC.replace('["C", "D"]]', '["C", "D", "E"]]').replace(
    '["4", "4"], ["0", "5"]]', '["4", "4"], ["0", "5"], ["0", "0"]]'
).replace('["5", "0"], ["1", "1"]]', '["5", "0"], ["1", "1"], ["0", "0"]]')


@pytest.mark.parametrize(
    "target, line",
    [
        (WIDER_DOC, "error: cannot compare shape (2, 2) with shape (2, 3)\n"),
        (M0_DOC.replace('"II"', '"III"'), "error: games disagree on player or strategy names\n"),
    ],
    ids=["shape", "names"],
)
@pytest.mark.parametrize("command", ["check", "synth"])
def test_a_frame_mismatch_exits_2_with_one_line(files, capsys, command, target, line):
    assert run([command, files("m0.json", M0_DOC), files("target.json", target)]) == 2
    assert capsys.readouterr() == ("", line)


def test_synth_nonnegative_flag(files, capsys, m0):
    # target needs a negative net offer unless decomposed
    negative = apply_offer_set(
        m0, parse_offers(OFFER_DOC, m0.space)
    )  # M1, reachable from m0; invert direction by swapping source/target
    m1_path = files("m1.json", serialize_game(negative))
    code = run(["synth", m1_path, files("m0.json", M0_DOC), "--nonnegative"])
    assert code == 0
    offers = parse_offers(capsys.readouterr().out, m0.space)
    assert all(o.amount >= 0 for o in offers)
    assert apply_offer_set(negative, offers) == m0


def test_complete_command(files, capsys, wide_source):
    seed_doc = {
        "schema": 1,
        "players": ["A", "B"],
        "strategies": [["A1", "A2", "A3", "A4"], ["B1", "B2", "B3"]],
        "payoffs": [
            [["1", "7"], ["4", "4"], ["2", "4"]],
            [["7", "1"], None, None],
            [["3", "2"], None, None],
            [["0", "0"], None, None],
        ],
    }
    game_path = files("wide.json", serialize_game(wide_source))
    seed_path = files("seed.json", json.dumps(seed_doc))
    assert run(["complete", game_path, seed_path]) == 0
    completed = parse_game(capsys.readouterr().out)
    assert completed.payoff((1, 2)) == (12, -8)

    # explicit base naming the same profile
    assert run(["complete", game_path, seed_path, "--base", "A1,B1"]) == 0
    assert parse_game(capsys.readouterr().out) == completed

    seed_doc["payoffs"][0][0] = ["2", "7"]
    bad_path = files("seed_bad.json", json.dumps(seed_doc))
    assert run(["complete", game_path, bad_path]) == 1
    assert "payoff total" in capsys.readouterr().err

    seed_doc["payoffs"][0][0] = None
    missing_path = files("seed_missing.json", json.dumps(seed_doc))
    assert run(["complete", game_path, missing_path]) == 2
    assert "star" in capsys.readouterr().err


def test_invert_command(files, capsys, m0):
    code = run(["invert", files("m0.json", M0_DOC), files("o.json", OFFER_DOC)])
    assert code == 0
    inverse = parse_offers(capsys.readouterr().out, m0.space)
    stepped = apply_offer_set(m0, parse_offers(OFFER_DOC, m0.space))
    assert apply_offer_set(stepped, inverse) == m0


def test_dominate_command(files, capsys, m0, m2):
    code = run(["dominate", files("m0.json", M0_DOC), "--profile", "C,C"])
    assert code == 0
    offers = parse_offers(capsys.readouterr().out, m0.space)
    assert apply_offer_set(m0, offers) == m2

    assert run(["dominate", files("m.json", M0_DOC), "--profile", "C,C", "--margin", "0"]) == 1
    capsys.readouterr()
    assert run(["dominate", files("m.json", M0_DOC), "--profile", "C,X"]) == 2
    capsys.readouterr()
    assert run(["dominate", files("m.json", M0_DOC), "--profile", "C,C", "--margin", "x"]) == 2
    capsys.readouterr()


def test_analyze_command(files, capsys):
    assert run(["analyze", files("m0.json", M0_DOC)]) == 0
    out = capsys.readouterr().out
    assert "pure Nash equilibria: (D,D)" in out
    assert "D strictly dominates C" in out
    assert "constant sum: none" in out
    assert "Pareto optimal: (C,C), (C,D), (D,C)" in out


def test_analyze_json(files, capsys):
    assert run(["analyze", files("m2.json", M2_DOC), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pure_nash"] == [["C", "C"]]
    assert doc["strictly_dominant_profile"] == ["C", "C"]
    assert doc["constant_sum"] is None
    assert {pair["kind"] for pair in doc["dominance"]["I"]} == {"strict", "weak"}


def test_format_report_names_a_weak_only_pair():
    # I's a ties b against x and beats it against y
    game = grid_game(("I", "II"), (("a", "b"), ("x", "y")), [(1, 0), (1, 1), (1, 0), (0, 1)])
    assert format_report(game) == (
        "players: I, II\n"
        "pure Nash equilibria: (a,y)\n"
        "dominance:\n"
        "  I: a weakly dominates b\n"
        "  II: y strictly dominates x\n"
        "constant sum: none\n"
        "Pareto optimal: (a,y)\n"
        "strictly dominant profile: none\n"
    )


def test_format_report_without_a_pure_equilibrium():
    assert format_report(matching_pennies()) == (
        "players: I, II\n"
        "pure Nash equilibria: none\n"
        "dominance:\n"
        "  I: none\n"
        "  II: none\n"
        "constant sum: 0\n"
        "Pareto optimal: (H,H), (H,T), (T,H), (T,T)\n"
        "strictly dominant profile: none\n"
    )


def test_demo_pd(capsys):
    assert run(["demo", "pd"]) == 0
    out = capsys.readouterr().out
    for row in ("4,4 | 0,5", "5,0 | 1,1", "2,6 | 0,5", "3,2 | 1,1", "4,4 | 2,3"):
        assert row in out
    for nash in ("(D,D)", "(D,C)", "(C,C)"):
        assert f"pure Nash equilibria: {nash}" in out


def test_demo_computes_no_pareto_set(monkeypatch, capsys):
    # demo prints only each matrix's pure Nash equilibria
    def unused(game):
        raise AssertionError("demo computed a Pareto set")

    monkeypatch.setattr(preplay.analyze, "pareto_optimal", unused)
    assert run(["demo", "pd"]) == 0
    assert "pure Nash equilibria: (C,C)" in capsys.readouterr().out


# M0 with its (D,D) cell left open: a seed on the star of (C,C)
SEED_DOC = M0_DOC.replace('["1", "1"]', "null")


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "m0.json", "o.json"],
        ["check", "m0.json", "m2.json"],
        ["synth", "m0.json", "m2.json"],
        ["complete", "m0.json", "seed.json"],
        ["invert", "m0.json", "o.json"],
        ["dominate", "m0.json", "--profile", "C,C"],
        ["analyze", "m0.json"],
        ["demo", "pd"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_2_with_one_line(files, capsys, monkeypatch, argv):
    docs = {"m0.json": M0_DOC, "m2.json": M2_DOC, "o.json": OFFER_DOC, "seed.json": SEED_DOC}
    paths = {name: files(name, text) for name, text in docs.items()}
    # as under `python -m preplay ... >&-`, where the interpreter sets no stdout
    monkeypatch.setattr(sys, "stdout", None)
    assert run([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == "error: standard output is closed\n"


def test_closed_stdout_does_not_stop_an_output_file(files, capsys, monkeypatch, tmp_path, m1):
    out = tmp_path / "result.json"
    monkeypatch.setattr(sys, "stdout", None)
    argv = ["apply", files("m0.json", M0_DOC), files("o.json", OFFER_DOC), "-o", str(out)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    assert parse_game(out.read_text()) == m1


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "m0.json", "o.json"],
        ["synth", "m0.json", "m2.json"],
        ["complete", "m0.json", "seed.json"],
        ["invert", "m0.json", "o.json"],
        ["dominate", "m0.json", "--profile", "C,C"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_output_file_holds_what_stdout_would(files, capsys, tmp_path, argv):
    docs = {"m0.json": M0_DOC, "m2.json": M2_DOC, "o.json": OFFER_DOC, "seed.json": SEED_DOC}
    paths = {name: files(name, text) for name, text in docs.items()}
    argv = [paths.get(arg, arg) for arg in argv]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "result.json"
    assert run([*argv, "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == printed.encode("utf-8")


# each as the command line or a document gives it, and as stderr writes it
LINE_BREAKS = [("\n", "\\n"), ("\r\n", "\\r\\n"), ("\u2028", "\\u2028")]


@pytest.mark.parametrize("brk, escaped", LINE_BREAKS, ids=["LF", "CRLF", "LS"])
def test_a_line_break_in_a_path_is_escaped(files, capsys, brk, escaped):
    path = files(f"bad{brk}name.json", '{"schema": 2}')
    assert run(["analyze", path]) == 2
    shown = path.replace(brk, escaped)
    assert capsys.readouterr().err == f"error: {shown}: schema: unsupported schema version 2\n"


@pytest.mark.parametrize("brk, escaped", LINE_BREAKS, ids=["LF", "CRLF", "LS"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["dominate", "m0.json", "--profile"], "--profile"),
        (["complete", "m0.json", "seed.json", "--base"], "--base"),
    ],
    ids=["dominate", "complete"],
)
def test_a_line_break_in_a_profile_option_is_escaped(files, capsys, argv, option, brk, escaped):
    paths = {"m0.json": files("m0.json", M0_DOC), "seed.json": files("seed.json", SEED_DOC)}
    assert run([*(paths.get(arg, arg) for arg in argv), f"C{brk}D"]) == 2
    assert capsys.readouterr().err == (
        f"error: command line: {option}: profile (C{escaped}D) has 1 entries for 2 players\n"
    )


@pytest.mark.parametrize("brk, escaped", LINE_BREAKS, ids=["LF", "CRLF", "LS"])
def test_a_line_break_in_a_strategy_name_is_escaped(files, capsys, brk, escaped):
    name = json.dumps(f"C{brk}X")
    game = M0_DOC.replace('[["C", "D"], ["C", "D"]]', f'[[{name}, "D"], ["C", "D"]]')
    # the (C,C) cell's total is 13 where the game's is 8
    seed = game.replace('["4", "4"]', '["4", "9"]').replace('["1", "1"]', "null")
    assert run(["complete", files("game.json", game), files("seed.json", seed)]) == 1
    assert capsys.readouterr().err == (
        f"error: seed at (C{escaped}X,C) has payoff total 13; offers preserve the source total 8\n"
    )


def test_every_character_that_splits_a_line_is_escaped(files, capsys):
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    breaks = "".join(line[-1] for line in everything.splitlines(keepends=True)[:-1])
    assert "\n" in breaks and "\u2028" in breaks
    path = files(f"bad{breaks}name.json", '{"schema": 2}')
    assert run(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    shown = path.replace(breaks, repr(breaks)[1:-1])
    assert err == f"error: {shown}: schema: unsupported schema version 2\n"


def test_a_value_error_other_than_the_digit_limit_propagates(monkeypatch):
    # only the int-to-str digit limit is bad input; any other ValueError is
    # a fault of the program and keeps its traceback
    def boom(args):
        raise ValueError("boom")

    monkeypatch.setattr(preplay.cli, "_cmd_demo", boom)
    with pytest.raises(ValueError, match="^boom$"):
        run(["demo", "pd"])


def test_missing_file_exits_2(capsys):
    assert run(["analyze", "does-not-exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_path_that_cannot_be_opened_is_named_as_given(files, capsys, monkeypatch, tmp_path):
    # files are opened with open(), which names a path as the command line
    # gives it, where pathlib would have written "./a.json" as "a.json"
    monkeypatch.chdir(tmp_path)
    for path in ("does-not-exist.json", "./does-not-exist.json"):
        assert run(["analyze", path]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {path!r}\n"
    game, offers = files("m0.json", M0_DOC), files("o.json", OFFER_DOC)
    out = "./missing/out.json"
    assert run(["apply", game, offers, "-o", out]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {out!r}\n"


@pytest.mark.parametrize(
    "text, where",
    [
        ("{nope", "line 1"),
        ('{"schema": ' + "7" * 5000 + "}", "document"),
        ("[" * 3000 + "]" * 3000, "document"),
        (b"\xff\xfe{", "not valid UTF-8"),
        (M0_DOC.replace('"4"', '"1e10000000"', 1), "payoffs[0][0][0]"),
        (M0_DOC.replace('"I"', '"\\ud800"', 1), "players[0]"),
    ],
    ids=["syntax", "huge-integer", "deep-nesting", "not-utf8", "exponent", "lone-surrogate"],
)
def test_malformed_json_exits_2(files, capsys, text, where):
    assert run(["analyze", files("broken.json", text)]) == 2
    err = capsys.readouterr().err
    assert "broken.json" in err and where in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_denominator_bits_at_and_past_the_limit():
    # player I's denominator 2^(limit-2) takes limit-1 bits, player II's
    # integers 1 bit: the limit exactly; one more doubling is past it
    at_limit = [(Fraction(1, 2 ** (_MAX_SCALE_BITS - 2)), Fraction(0))]
    _check_scales(at_limit, "doc")
    with pytest.raises(ParseError, match="denominators too varied"):
        _check_scales([(Fraction(1, 2 ** (_MAX_SCALE_BITS - 1)), Fraction(0))], "doc")
    # the bits add up across players
    with pytest.raises(ParseError, match="denominators too varied"):
        _check_scales(at_limit + [(Fraction(0), Fraction(1, 3))], "doc")


def hostile_denominator_doc(size: int, digits: int) -> str:
    """A 2-player size x size game whose every payoff is 1/d, for consecutive
    d of ``digits`` decimal digits: nearly coprime, so each player's common
    denominator takes about ``digits`` more digits per payoff."""
    d = iter(range(10 ** (digits - 1), 10**digits))
    names = [f"s{i}" for i in range(size)]
    payoffs = [[[f"1/{next(d)}", f"1/{next(d)}"] for _ in names] for _ in names]
    return json.dumps(
        {"schema": 1, "players": ["I", "II"], "strategies": [names, names], "payoffs": payoffs}
    )


def test_hostile_denominators_exit_2_within_deadline(files, capsys):
    # 256 payoffs per player over 1000-digit denominators: one common
    # denominator per player would take ~850k bits, and so would each of
    # the 512 payoffs scaled over it.  16,384 payoffs per player over
    # 6-digit denominators: a running lcm takes thousands of steps to pass
    # the limit, each on a longer lcm
    for doc in (hostile_denominator_doc(16, 1000), hostile_denominator_doc(128, 6)):
        path = files("wide.json", doc)
        for argv in (["analyze", path], ["dominate", path, "--profile", "s0,s0"]):
            start = time.perf_counter()
            assert run(argv) == 2
            assert time.perf_counter() - start < 2
            err = capsys.readouterr().err
            assert "wide.json: payoffs: denominators too varied" in err
            assert err.count("\n") == 1 and "Traceback" not in err


def padded_game_doc(player_count: int) -> str:
    """A game document of ``player_count`` single-strategy players."""
    payoffs = ["0"] * player_count
    for _ in range(player_count):
        payoffs = [payoffs]
    return json.dumps(
        {
            "schema": 1,
            "players": [f"P{i}" for i in range(player_count)],
            "strategies": [["s"]] * player_count,
            "payoffs": payoffs,
        }
    )


def test_player_count_at_and_past_the_limit(files, capsys):
    at_limit = files("at.json", padded_game_doc(_MAX_PLAYERS))
    assert run(["synth", at_limit, at_limit]) == 0
    assert json.loads(capsys.readouterr().out) == {"schema": 1, "offers": []}
    past = files("past.json", padded_game_doc(_MAX_PLAYERS + 1))
    assert run(["synth", past, past]) == 2
    err = capsys.readouterr().err
    limit = f"past.json: players: {_MAX_PLAYERS + 1} players; at most {_MAX_PLAYERS} are allowed"
    assert err.startswith("error: ") and limit in err
    assert err.count("\n") == 1 and "Traceback" not in err


def padded_frame_docs(two: int, one: int) -> tuple[str, str]:
    """A game document of ``two`` players with two strategies and ``one``
    with one, in that order, whose payoffs are small ints that vary by
    profile and player, and the seed document of its star at (s0,...,s0),
    which holds the game's own payoffs there."""
    counts = [2] * two + [1] * one
    n = len(counts)
    # the base, then one flip per two-strategy axis: the flat strides
    star = {0} | {1 << k for k in range(two)}

    def nest(depth: int, flat: int, fill):
        if depth == n:
            return fill(flat)
        stride = 1 << max(two - depth - 1, 0)
        return [nest(depth + 1, flat + i * stride, fill) for i in range(counts[depth])]

    def cell(flat: int) -> list:
        return [(flat * 7 + k * 3) % 11 - 5 for k in range(n)]

    frame = {
        "schema": 1,
        "players": [f"P{i}" for i in range(n)],
        "strategies": [[f"s{j}" for j in range(c)] for c in counts],
    }
    game = dict(frame, payoffs=nest(0, 0, cell))
    seed = dict(frame, payoffs=nest(0, 0, lambda f: cell(f) if f in star else None))
    return json.dumps(game), json.dumps(seed)


def test_worst_admitted_frame_is_served_within_deadline(files, capsys):
    # 16,384 profiles leave room for 14 players of two strategies; the rest
    # of the player limit is single-strategy padding, which multiplies the
    # payoff values without adding a choice
    two, one = 14, _MAX_PLAYERS - 14
    game_text, seed_text = padded_frame_docs(two, one)
    game, seed = files("game.json", game_text), files("seed.json", seed_text)
    offer_set = files("offers.json", json.dumps({"schema": 1, "offers": [
        {"payer": "P0", "payee": "P1", "strategy": "s0", "amount": "2"},
        {"payer": f"P{_MAX_PLAYERS - 1}", "payee": "P3", "strategy": "s1", "amount": "1/3"},
    ]}))
    base = ",".join(["s0"] * _MAX_PLAYERS)
    source = parse_game(game_text)
    assert source.shape.size == _MAX_CELLS and len(source.players) == _MAX_PLAYERS
    for argv in (["apply", game, offer_set], ["complete", game, seed, "--base", base], ["analyze", game]):
        start = time.perf_counter()
        assert run(argv) == 0
        assert time.perf_counter() - start < 2, argv[0]
        out = capsys.readouterr().out
        if argv[0] == "complete":
            # the seed is the game's own star, so completion gives the game back
            assert parse_game(out) == source
    # past the limit, the same frame is rejected before the payoff walk:
    # a document without a payoffs array is reported for its players
    past = json.loads(game_text)
    past["players"].append("extra")
    past["strategies"].append(["s0"])
    del past["payoffs"]
    path = files("past.json", json.dumps(past))
    start = time.perf_counter()
    assert run(["analyze", path]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert f"past.json: players: {_MAX_PLAYERS + 1} players; at most {_MAX_PLAYERS}" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    with pytest.raises(ParseError, match=rf"^doc: players: {_MAX_PLAYERS + 1} players"):
        _parse_frame(past, "doc")


def frame_doc(counts) -> dict:
    """A game document's frame alone: one player per strategy count."""
    return {
        "players": [f"P{i}" for i in range(len(counts))],
        "strategies": [[f"s{j}" for j in range(c)] for c in counts],
    }


def test_profile_count_at_and_past_the_limit(files, capsys):
    assert _MAX_CELLS == 128 * 128 and _MAX_CELLS + 1 == 5 * 29 * 113
    assert _parse_frame(frame_doc((128, 128)), "doc").shape.size == _MAX_CELLS
    with pytest.raises(ParseError, match=r"^doc: strategies: 16385 profiles; at most 16384"):
        _parse_frame(frame_doc((5, 29, 113)), "doc")
    # rejected before the payoff walk, so a missing payoffs array is never reported
    past = files("past.json", json.dumps({"schema": 1, **frame_doc((5, 29, 113))}))
    assert run(["analyze", past]) == 2
    err = capsys.readouterr().err
    assert "past.json: strategies: 16385 profiles" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_usage_error_exits_2(capsys):
    for argv in (["not-a-command"], ["analyze"], ["analyze", "g.json", "--bogus"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: command line: preplay")
        assert captured.err.count("\n") == 1


HELP = (
    ["-h", "--help"],
    "help",
    0,
    argparse.SUPPRESS,
    False,
    None,
    "show this help message and exit",
)
OUTPUT = (["-o", "--output"], "output", None, None, False, None, None)
STRICT = (["--strict"], "strict", 0, False, False, None, "reject negative amounts")


def positional(dest: str, choices=None) -> tuple:
    return ([], dest, None, None, True, choices, None)


# each subcommand in the order --help lists it: its help, its handler, and
# each of its actions as (option strings, dest, nargs, default, required,
# choices, help)
SURFACE = {
    "apply": (
        "apply an offer set to a game",
        "_cmd_apply",
        [HELP, positional("game"), positional("offers"), OUTPUT, STRICT],
    ),
    "check": (
        "decide whether a target is reachable by offers",
        "_cmd_check",
        [HELP, positional("game"), positional("target")],
    ),
    "synth": (
        "construct offers realizing a reachable target",
        "_cmd_synth",
        [
            HELP,
            positional("game"),
            positional("target"),
            (["--nonnegative"], "nonnegative", 0, False, False, None, "decompose negative amounts"),
            OUTPUT,
        ],
    ),
    "complete": (
        "extend a star seed to the unique reachable game",
        "_cmd_complete",
        [
            HELP,
            positional("game"),
            positional("seed"),
            (
                ["--base"],
                "base",
                None,
                None,
                False,
                None,
                "base profile as comma-separated strategy names",
            ),
            OUTPUT,
        ],
    ),
    "invert": (
        "construct the offer set undoing another",
        "_cmd_invert",
        [HELP, positional("game"), positional("offers"), OUTPUT, STRICT],
    ),
    "dominate": (
        "make a chosen profile strictly dominant",
        "_cmd_dominate",
        [
            HELP,
            positional("game"),
            (["--profile"], "profile", None, None, True, None, "comma-separated strategy names"),
            (
                ["--margin"],
                "margin",
                None,
                "1",
                False,
                None,
                "required dominance margin (positive rational)",
            ),
            OUTPUT,
        ],
    ),
    "analyze": (
        "pure-strategy analysis of a game",
        "_cmd_analyze",
        [HELP, positional("game"), (["--json"], "json", 0, False, False, None, None)],
    ),
    "demo": ("worked walkthrough", "_cmd_demo", [HELP, positional("topic", ["pd"])]),
}


def declared(action) -> tuple:
    return (
        action.option_strings,
        action.dest,
        action.nargs,
        action.default,
        action.required,
        action.choices,
        action.help,
    )


def test_the_parser_declares_its_surface():
    # what --help renders from; the rendering itself differs between Python
    # versions, the declarations do not
    parser = _build_parser()
    assert parser.prog == "preplay"
    assert parser.description == "Transform normal form games with binding preplay offers."
    help_action, commands = parser._actions
    assert declared(help_action) == HELP
    assert (commands.dest, commands.required, commands.nargs) == ("command", True, argparse.PARSER)
    helps = {action.dest: action.help for action in commands._choices_actions}
    surface = {
        name: (helps[name], p.get_default("func").__name__, [declared(a) for a in p._actions])
        for name, p in commands.choices.items()
    }
    assert list(surface.items()) == list(SURFACE.items())


def test_strict_flag_rejects_negative(files, capsys):
    doc = json.loads(OFFER_DOC)
    doc["offers"][0]["amount"] = "-1"
    code = run(
        ["apply", files("m0.json", M0_DOC), files("neg.json", json.dumps(doc)), "--strict"]
    )
    assert code == 2
    assert "strict" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input contract: exit 0/1/2, no traceback, at most one stderr line

SEED_DOC = M0_DOC.replace('["1", "1"]', "null")

VALID_DOCS = {
    "game": json.loads(M0_DOC),
    "target": json.loads(M2_DOC),
    "offers": json.loads(OFFER_DOC),
    "seed": json.loads(SEED_DOC),
}

# subcommand -> (documents it reads, in argv order; trailing options)
COMMANDS = {
    "analyze": (("game",), []),
    "analyze --json": (("game",), ["--json"]),
    "check": (("game", "target"), []),
    "synth": (("game", "target"), []),
    "apply": (("game", "offers"), []),
    "invert": (("game", "offers"), []),
    "complete": (("game", "seed"), []),
    "dominate": (("game",), ["--profile", "C,C"]),
}

BAD_RATIONALS = ("1e3", "1e10000000", "1_000", " 3 ", "\u0663", "1/0", "abc", "", "--3", 0.5)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated_document(draw, doc):
    """One edit at one place: drop it, retype it, put a bad rational there,
    or grow the array there by one element."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(json_paths(doc))))
    action = draw(st.sampled_from(("drop", "retype", "rational", "grow")))
    if not path:
        doc = draw(json_values)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "drop":
            del parent[key]
        elif action == "retype":
            parent[key] = draw(json_values)
        elif action == "rational":
            parent[key] = draw(st.sampled_from(BAD_RATIONALS))
        elif isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(parent[key][-1]) if parent[key] else None)
        else:
            parent[key] = [parent[key]]
    return json.dumps(doc).encode()


@st.composite
def cli_inputs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    roles, _ = COMMANDS[command]
    docs = {role: json.dumps(VALID_DOCS[role]).encode() for role in roles}
    role = draw(st.sampled_from(roles))
    text = docs[role]
    docs[role] = draw(
        st.one_of(
            mutated_document(VALID_DOCS[role]),
            st.integers(0, len(text) - 1).map(lambda cut: text[:cut]),
            st.binary(max_size=40),
        )
    )
    return command, docs


def run_on_documents(command, docs):
    """``run`` a subcommand on documents given as bytes, each in its own
    file; returns the exit code and stderr."""
    roles, options = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for role in roles:
            path = Path(tmp) / f"{role}.json"
            path.write_bytes(docs[role])
            paths.append(str(path))
        # encode as the real streams do, so text they cannot carry fails here too
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command.split()[0], *paths, *options])
        err.flush()
    return code, err.buffer.getvalue().decode("utf-8")


def test_contract_documents_are_valid():
    for command, (roles, _) in COMMANDS.items():
        docs = {role: json.dumps(VALID_DOCS[role]).encode() for role in roles}
        assert run_on_documents(command, docs) == (0, "")


# ---------------------------------------------------------------------------
# documents that pass every check but whose result has a number too long to
# print: str() refuses ints past sys.get_int_max_str_digits(), 4,300 digits

NINES = "9" * 4300
# 4,300 nines either side of the point: a numerator of 8,600 digits
LONG_DECIMAL = f"{NINES}.{NINES}"
# coprime 4,000-digit denominators: their product has about 8,000 digits
D1 = 10**3999 + 1
D2 = D1 + 1


def one_cell_doc(payoff_i, payoff_ii) -> bytes:
    """A game document in which each of two players has one strategy."""
    return json.dumps(
        {
            "schema": 1,
            "players": ["I", "II"],
            "strategies": [["a"], ["b"]],
            "payoffs": [[[payoff_i, payoff_ii]]],
        }
    ).encode()


def offers_doc(*amounts, strategy="C") -> bytes:
    """Offers from player I to player II if II plays ``strategy``."""
    offers = [{"payer": "I", "payee": "II", "strategy": strategy, "amount": a} for a in amounts]
    return json.dumps({"schema": 1, "offers": offers}).encode()


LONG_DOCS = {
    "long.json": one_cell_doc(LONG_DECIMAL, "0"),
    "none.json": offers_doc(),
    "coprime.json": one_cell_doc(f"1/{D1}", f"1/{D2}"),
    "over-d1.json": one_cell_doc(f"1/{D1}", "0"),
    "over-d2.json": offers_doc(f"1/{D2}", strategy="b"),
    "m0.json": M0_DOC.encode(),
    "negative.json": offers_doc("-" + LONG_DECIMAL),
    # the seed sum message prints the long total of (C,C)
    "seed.json": SEED_DOC.replace('["4", "4"]', f'["{LONG_DECIMAL}", "0"]').encode(),
}

# (command, its documents by role) as test_cli_input_contract takes them
LONG_CASES = [
    ("apply", {"game": LONG_DOCS["long.json"], "offers": LONG_DOCS["none.json"]}),
    ("analyze", {"game": LONG_DOCS["coprime.json"]}),
    ("analyze --json", {"game": LONG_DOCS["coprime.json"]}),
    ("apply", {"game": LONG_DOCS["over-d1.json"], "offers": LONG_DOCS["over-d2.json"]}),
    ("complete", {"game": LONG_DOCS["m0.json"], "seed": LONG_DOCS["seed.json"]}),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "long.json", "none.json"],
        ["apply", "over-d1.json", "over-d2.json"],
        ["analyze", "coprime.json"],
        ["analyze", "coprime.json", "--json"],
        ["dominate", "m0.json", "--profile", "C,C", "--margin", LONG_DECIMAL],
    ],
    ids=[
        "apply-long-payoff",
        "apply-long-denominator",
        "analyze-constant-sum",
        "analyze-json-constant-sum",
        "dominate-positive-margin",
    ],
)
def test_a_result_too_long_to_print_exits_2(files, capsys, argv):
    paths = {name: files(name, text) for name, text in LONG_DOCS.items()}
    assert run([paths.get(arg, arg) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: result: a number to print has more than 4300 digits\n"


# LONG_DECIMAL in lowest terms is (10^8600 - 1) / 10^4300: 28,569 bits over 14,285
LONG_BITS = "a number of 42854 bits"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["complete", "m0.json", "seed.json"],
            f"seed at (C,C) has payoff total {LONG_BITS}; offers preserve the source total 8",
        ),
        (
            ["dominate", "m0.json", "--profile", "C,C", "--margin", "-" + LONG_DECIMAL],
            f"margin must be positive, got {LONG_BITS}",
        ),
    ],
    ids=["complete-seed-sum-message", "dominate-negative-margin"],
)
def test_a_domain_failure_with_a_number_too_long_to_print_exits_1(files, capsys, argv, message):
    paths = {name: files(name, text) for name, text in LONG_DOCS.items()}
    assert run([paths.get(arg, arg) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_library_errors_name_a_number_too_long_to_print_by_its_length(m0):
    star = {(0, 0): (LONG_DECIMAL, 0), (0, 1): (0, 5), (1, 0): (5, 0)}
    with pytest.raises(SeedSumViolation) as info:
        complete_from_seed(m0, Seed((0, 0), star))
    assert str(info.value) == (
        f"seed at (C,C) has payoff total {LONG_BITS}; offers preserve the source total 8"
    )
    # 1/10^4300: a denominator of 4,301 digits and 14,285 bits over a 1-bit numerator
    tiny = Fraction(1, 10**4300)
    source = make_game(("I", "II"), (("a",), ("b",)), {("a", "b"): (tiny, 0)})
    with pytest.raises(SeedSumViolation) as info:
        complete_from_seed(source, Seed((0, 0), {(0, 0): (0, 0)}))
    assert str(info.value) == (
        "seed at (a,b) has payoff total 0; offers preserve the source total a number of 14286 bits"
    )
    for margin, shown in (("-" + LONG_DECIMAL, LONG_BITS), (-tiny, "a number of 14286 bits")):
        with pytest.raises(NonpositiveMargin) as info:
            make_profile_dominant(m0, (0, 0), margin)
        assert str(info.value) == f"margin must be positive, got {shown}"


# "-1." and 4,300 ones: 11...1 over 10^4300, 14,288 and 14,282 bits
SHORT_LONG_DECIMAL = "-1." + "1" * 4300


@pytest.mark.parametrize(
    "command, amount, shown",
    [
        ("apply", "-" + LONG_DECIMAL, LONG_BITS),
        ("invert", "-" + LONG_DECIMAL, LONG_BITS),
        ("apply", SHORT_LONG_DECIMAL, "a number of 28570 bits"),
        ("invert", SHORT_LONG_DECIMAL, "a number of 28570 bits"),
    ],
    ids=["apply-8600-digits", "invert-8600-digits", "apply-4301-digits", "invert-4301-digits"],
)
def test_strict_mode_names_a_long_negative_amount_by_its_bits(
    files, capsys, command, amount, shown
):
    # the fault is the offer document's, not the result's
    negative = files("negative.json", offers_doc(amount))
    assert run([command, "--strict", files("m0.json", M0_DOC), negative]) == 2
    line = f"{negative}: offers[0].amount: negative amount {shown} (strict mode)"
    assert capsys.readouterr() == ("", f"error: {line}\n")


def one_offer_doc(**fields) -> str:
    """An offer document holding I's offer of 2 to II on C, with ``fields``
    in its place."""
    offer = {"payer": "I", "payee": "II", "strategy": "C", "amount": "2", **fields}
    return json.dumps({"schema": 1, "offers": [offer]})


# a library call's fault that the CLI reports where it sits: the command, its
# documents by name, and the document (or "command line") at fault, with the
# location and detail of its line
APPLY = ["apply", "m0.json", "offers.json"]
LOCATED_FAULTS = {
    "duplicate-player": (
        ["analyze", "game.json"],
        {"game.json": M0_DOC.replace('["I", "II"]', '["I", "I"]')},
        "game.json",
        "players/strategies",
        "duplicate player name 'I'",
    ),
    "duplicate-strategy": (
        ["analyze", "game.json"],
        {"game.json": M0_DOC.replace('[["C", "D"], ["C", "D"]]', '[["C", "C"], ["C", "D"]]')},
        "game.json",
        "players/strategies",
        "duplicate strategy name 'C' for player 'I'",
    ),
    "non-rational-amount": (
        APPLY,
        {"offers.json": one_offer_doc(amount="2/x")},
        "offers.json",
        "offers[0].amount",
        'not a rational: "2/x"',
    ),
    "self-offer": (
        APPLY,
        {"offers.json": one_offer_doc(payee="I")},
        "offers.json",
        "offers[0]",
        "player 'I' cannot make an offer to itself",
    ),
    # the offer is built before its names are looked up
    "self-offer-by-an-unknown-player": (
        APPLY,
        {"offers.json": one_offer_doc(payer="III", payee="III")},
        "offers.json",
        "offers[0]",
        "player 'III' cannot make an offer to itself",
    ),
    "unknown-payer": (
        APPLY,
        {"offers.json": one_offer_doc(payer="III")},
        "offers.json",
        "offers[0]",
        "no player named 'III'",
    ),
    "unknown-payee": (
        APPLY,
        {"offers.json": one_offer_doc(payee="III")},
        "offers.json",
        "offers[0]",
        "no player named 'III'",
    ),
    "unknown-strategy": (
        APPLY,
        {"offers.json": one_offer_doc(strategy="X")},
        "offers.json",
        "offers[0]",
        "player 'II' has no strategy named 'X'",
    ),
    "profile-unknown-strategy": (
        ["dominate", "m0.json", "--profile", "C,X"],
        {},
        "command line",
        "--profile",
        "player 'II' has no strategy named 'X'",
    ),
    "profile-arity": (
        ["dominate", "m0.json", "--profile", "C"],
        {},
        "command line",
        "--profile",
        "profile (C) has 1 entries for 2 players",
    ),
    "base-unknown-strategy": (
        ["complete", "m0.json", "seed.json", "--base", "X,C"],
        {"seed.json": M0_DOC.replace('["1", "1"]', "null")},
        "command line",
        "--base",
        "player 'I' has no strategy named 'X'",
    ),
    "base-arity": (
        ["complete", "m0.json", "seed.json", "--base", "C,C,C"],
        {"seed.json": M0_DOC.replace('["1", "1"]', "null")},
        "command line",
        "--base",
        "profile (C,C,C) has 3 entries for 2 players",
    ),
    "margin-not-rational": (
        ["dominate", "m0.json", "--profile", "C,C", "--margin", "x"],
        {},
        "command line",
        "--margin",
        "not a rational value: 'x'",
    ),
}


@pytest.mark.parametrize(
    "argv, docs, source, location, detail", LOCATED_FAULTS.values(), ids=LOCATED_FAULTS
)
def test_a_located_fault_keeps_its_whole_line(files, capsys, argv, docs, source, location, detail):
    paths = {name: files(name, text) for name, text in {"m0.json": M0_DOC, **docs}.items()}
    argv = [paths.get(arg, arg) for arg in argv]
    line = f"{paths.get(source, source)}: {location}: {detail}"
    args = _build_parser().parse_args(argv)
    with pytest.raises(ParseError) as info:
        args.func(args)
    assert str(info.value) == line
    # the library's exception is no part of the report
    assert info.value.__cause__ is None and info.value.__suppress_context__
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@settings(max_examples=300, deadline=None)
@example(("analyze", {"game": b"\xff\xfe{"}))
@example(("analyze", {"game": M0_DOC.replace('"I"', '"\\ud800"', 1).encode()}))
@example(LONG_CASES[0])
@example(LONG_CASES[1])
@example(LONG_CASES[2])
@example(LONG_CASES[3])
@example(LONG_CASES[4])
@given(cli_inputs())
def test_cli_input_contract(case):
    code, err = run_on_documents(*case)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("\n") <= 1


def test_format_matrix_three_person_fallback():
    cube = make_game(
        ("a", "b", "c"),
        (("x", "y"), ("x", "y"), ("x", "y")),
        {
            (sa, sb, sc): (1, 2, 3)
            for sa in ("x", "y")
            for sb in ("x", "y")
            for sc in ("x", "y")
        },
    )
    text = format_matrix(cube)
    assert "(x,x,x): 1,2,3" in text


# ---------------------------------------------------------------------------
# byte-for-byte pins of the matrix printer

DEMO_PD_STDOUT = """\
Prisoner's Dilemma, transformed by two preplay offers

M0 (the Prisoner's Dilemma):
  |   C |   D
C | 4,4 | 0,5
D | 5,0 | 1,1
pure Nash equilibria: (D,D)

offer: I pays II 2 if II plays C
M1 = M0 after the offer:
  |   C |   D
C | 2,6 | 0,5
D | 3,2 | 1,1
pure Nash equilibria: (D,C)

offer: II pays I 2 if I plays C
M2 = M1 after the offer:
  |   C |   D
C | 4,4 | 2,3
D | 3,2 | 1,1
pure Nash equilibria: (C,C)
"""


def test_demo_pd_stdout_is_pinned(capsys):
    assert run(["demo", "pd"]) == 0
    assert capsys.readouterr().out == DEMO_PD_STDOUT


def test_format_matrix_widths_come_from_names_and_cells():
    # the row names set the first column; "a very wide name" sets its own
    # column; the cells "-17/3,2" and "10,-10" / "0,7/11" set the other two
    game = make_game(
        ("row", "col"),
        (("top", "middle", "b"), ("left", "a very wide name", "r")),
        {
            ("top", "left"): ("-17/3", 2),
            ("top", "a very wide name"): (0, 0),
            ("top", "r"): (1, 1),
            ("middle", "left"): (1, "1/2"),
            ("middle", "a very wide name"): ("12345", "-6"),
            ("middle", "r"): (10, -10),
            ("b", "left"): (0, 0),
            ("b", "a very wide name"): (3, 4),
            ("b", "r"): (0, "7/11"),
        },
    )
    assert format_matrix(game) == (
        "       |    left | a very wide name |      r\n"
        "   top | -17/3,2 |              0,0 |    1,1\n"
        "middle |   1,1/2 |         12345,-6 | 10,-10\n"
        "     b |     0,0 |              3,4 | 0,7/11"
    )


def test_format_matrix_three_person_listing_is_pinned(cube):
    assert format_matrix(cube) == "\n".join(
        [
            "(A_11,A_21,A_31): 1,2,0",
            "(A_11,A_21,A_32): 1,1,8",
            "(A_11,A_22,A_31): 2,3,1",
            "(A_11,A_22,A_32): 2,2,7",
            "(A_11,A_23,A_31): 3,1,2",
            "(A_11,A_23,A_32): 3,3,6",
            "(A_12,A_21,A_31): 2,3,3",
            "(A_12,A_21,A_32): 1,2,5",
            "(A_12,A_22,A_31): 3,4,4",
            "(A_12,A_22,A_32): 2,3,4",
            "(A_12,A_23,A_31): 4,2,5",
            "(A_12,A_23,A_32): 3,4,3",
            "(A_13,A_21,A_31): 6,5,6",
            "(A_13,A_21,A_32): 2,1,2",
            "(A_13,A_22,A_31): 7,6,7",
            "(A_13,A_22,A_32): 3,2,1",
            "(A_13,A_23,A_31): 5,7,8",
            "(A_13,A_23,A_32): 1,3,0",
        ]
    )


# ---------------------------------------------------------------------------
# entry points, each in its own interpreter process

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CHILD_TIMEOUT_S = 60


def declared_console_script():
    """The ``module:attr`` target of ``preplay`` under ``[project.scripts]``."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one line
        scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        match = re.search(r'^preplay\s*=\s*"([^"]+)"', scripts, re.M)
        assert match, "no preplay entry under [project.scripts]"
        return match.group(1)
    return tomllib.loads(text)["project"]["scripts"]["preplay"]


def run_child(argv, cwd, **env_overrides):
    """Run ``argv`` importing the same ``preplay`` package as this test."""
    env = dict(os.environ, **env_overrides)
    package_root = str(Path(preplay.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=CHILD_TIMEOUT_S
    )


def test_console_script_entry_point(tmp_path):
    # Runs the declared target the way the generated ``preplay`` wrapper does,
    # so no installed executable is needed.
    module, _, attr = declared_console_script().partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    result = run_child([sys.executable, "-c", wrapper, "demo", "pd"], tmp_path)
    assert result.returncode == 0
    assert "pure Nash equilibria: (C,C)" in result.stdout


@pytest.mark.skipif(shutil.which("preplay") is None, reason="preplay console script not installed")
def test_installed_console_script():
    result = subprocess.run(
        ["preplay", "demo", "pd"], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    assert result.returncode == 0
    assert "pure Nash equilibria: (C,C)" in result.stdout


def test_python_dash_m_entry_point(tmp_path):
    result = run_child([sys.executable, "-m", "preplay", "demo", "pd"], tmp_path)
    assert result.returncode == 0
    assert "pure Nash equilibria: (C,C)" in result.stdout


# The package loads its submodules lazily (a module whose body has not run is
# a lazy subclass of ModuleType in sys.modules), so a command runs only the
# submodules it calls, besides core and errors, which the CLI imports eagerly.
RAN_MODULES_CHILD = """
import sys, types
try:
    from preplay.cli import main; main()
finally:
    ran = [n for n, m in sys.modules.items() if type(m) is types.ModuleType]
    print(*sorted(n[len("preplay."):] for n in ran if n.startswith("preplay.")), file=sys.stderr)
"""

SUBCOMMAND_MODULES = [
    (["apply", "game.json", "offers.json"], 0, {"offers"}),
    (["check", "game.json", "target.json"], 0, {"characterize"}),
    (["synth", "game.json", "target.json"], 0, {"synth", "characterize", "offers"}),
    (["complete", "game.json", "seed.json"], 0, {"complete"}),
    (["invert", "game.json", "offers.json"], 0, {"offers"}),
    (["dominate", "game.json", "--profile", "C,C"], 0, {"synth", "offers"}),
    (["analyze", "game.json"], 0, {"analyze"}),
    (["demo", "pd"], 0, {"offers", "analyze"}),
    # rejected at parse, so the check never runs
    (["check", "hostile.json", "target.json"], 2, set()),
    (["apply", "hostile.json", "offers.json"], 2, set()),
    (["synth", "hostile.json", "target.json"], 2, set()),
    (["complete", "hostile.json", "seed.json"], 2, set()),
    (["invert", "hostile.json", "offers.json"], 2, set()),
    (["dominate", "hostile.json", "--profile", "C,C"], 2, set()),
    (["analyze", "hostile.json"], 2, set()),
]


@pytest.mark.parametrize(
    "argv, code, modules", SUBCOMMAND_MODULES, ids=[" ".join(case[0]) for case in SUBCOMMAND_MODULES]
)
def test_a_command_runs_only_the_modules_it_calls(tmp_path, argv, code, modules):
    docs = {"game": M0_DOC, "target": M2_DOC, "offers": OFFER_DOC, "seed": SEED_DOC}
    docs["hostile"] = padded_game_doc(_MAX_PLAYERS + 1)
    for name, text in docs.items():
        (tmp_path / f"{name}.json").write_text(text)
    result = run_child([sys.executable, "-c", RAN_MODULES_CHILD, *argv], tmp_path)
    assert result.returncode == code, result.stderr
    ran = set(result.stderr.splitlines()[-1].split())
    assert ran == {"cli", "core", "errors", *modules}


def test_pickles_load_in_a_child_that_imported_only_the_cli(tmp_path, m0):
    # a pickle names preplay.core.Game and preplay.offers.OfferSet; in a child
    # that imported only preplay.cli, offers is still lazy when it unpickles
    offer_set = preplay.OfferSet(m0.space, (preplay.Offer("I", "II", "C", 2),))
    (tmp_path / "m0.pickle").write_bytes(pickle.dumps((m0, offer_set)))
    (tmp_path / "m0.json").write_text(M0_DOC)
    (tmp_path / "offers.json").write_text(OFFER_DOC)
    child = """
import pickle
import preplay.cli as cli
with open("m0.pickle", "rb") as f:
    loaded = pickle.load(f)
with open("m0.json") as f:
    game = cli.parse_game(f.read())
with open("offers.json") as f:
    print(loaded == (game, cli.parse_offers(f.read(), game.space)))
"""
    result = run_child([sys.executable, "-c", child], tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "True\n", "")


# In a fresh interpreter no submodule has run yet.  Threads released at once
# by a barrier run each statement together, so each first read races; none
# may see a submodule half run.
THREADED_FIRST_READS_CHILD = """
import sys, threading
import preplay

THREADS = 8
barrier = threading.Barrier(THREADS)
failures = []
sys.setswitchinterval(1e-6)

def run_each():
    for statement in sys.argv[1:]:
        barrier.wait()
        try:
            exec(statement)
        except Exception as exc:
            failures.append(repr(exc))

threads = [threading.Thread(target=run_each, daemon=True) for _ in range(THREADS)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(failures + ["hung"] * sum(thread.is_alive() for thread in threads))
"""

LAZY_SUBMODULES = ["errors", "core", "offers", "characterize", "complete", "synth", "analyze"]


@pytest.mark.parametrize(
    "statements",
    [
        [f"preplay.{name}.__all__" for name in LAZY_SUBMODULES],
        ["from preplay import Game, report, synthesize_offers"],
        ["import preplay.cli as cli; cli.main", "preplay.analyze.report"],
    ],
    ids=["module attributes", "package names", "cli import"],
)
def test_first_reads_from_several_threads_see_whole_modules(tmp_path, statements):
    result = run_child([sys.executable, "-c", THREADED_FIRST_READS_CHILD, *statements], tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


CYRILLIC_DOC = M0_DOC.replace('"I", "II"', '"\u0416", "II"')


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_non_utf8_stdout_escapes_names(tmp_path, encoding):
    game = tmp_path / "g.json"
    game.write_text(CYRILLIC_DOC)
    target = tmp_path / "t.json"
    target.write_text(CYRILLIC_DOC.replace('["1", "1"]', '["2", "0"]'))
    escaped = "\u0416".encode(encoding, "backslashreplace").decode("ascii")
    for argv, code in ((["check", "g.json", "t.json"], 1), (["analyze", "g.json"], 0)):
        result = run_child(
            [sys.executable, "-m", "preplay", *argv], tmp_path, PYTHONIOENCODING=encoding
        )
        assert result.returncode == code
        assert escaped in result.stdout
        assert "Traceback" not in result.stdout + result.stderr


def test_utf8_stdout_keeps_names(tmp_path):
    (tmp_path / "g.json").write_text(CYRILLIC_DOC)
    result = run_child(
        [sys.executable, "-m", "preplay", "analyze", "g.json"], tmp_path, PYTHONIOENCODING="utf-8"
    )
    assert result.returncode == 0
    assert result.stdout.startswith("players: \u0416, II\n")


def test_strict_mode_admits_a_zero_and_a_fractional_amount(m0):
    doc = json.loads(OFFER_DOC)
    for amount in ("0", "1/2"):
        doc["offers"][0]["amount"] = amount
        parsed = parse_offers(json.dumps(doc), m0.space, strict=True)
        assert parsed.offers[0].amount == Fraction(amount)


def test_analyze_json_orders_dominance_pairs_by_dominator_first(files, capsys):
    # I's b beats c and c beats a, so by dominator b's pairs come before
    # (c, a), while by dominated strategy (c, a) would come before (b, c)
    game = grid_game(("I", "II"), (("a", "b", "c"), ("x",)), [(0, 0), (2, 0), (1, 0)])
    assert run(["analyze", files("g.json", serialize_game(game)), "--json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["dominance"]["I"]
    assert [(p["dominator"], p["dominated"], p["kind"]) for p in pairs] == [
        ("b", "a", "strict"),
        ("b", "a", "weak"),
        ("b", "c", "strict"),
        ("b", "c", "weak"),
        ("c", "a", "strict"),
        ("c", "a", "weak"),
    ]
