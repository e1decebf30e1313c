import contextlib
import copy
import io
import json
import os
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
from preplay import ParseError, apply_offer_set, make_game
from preplay.cli import (
    _MAX_PLAYERS,
    _MAX_SCALE_BITS,
    _check_scales,
    format_matrix,
    parse_game,
    parse_offers,
    parse_seed_assignments,
    run,
    serialize_game,
    serialize_offers,
)
from conftest import random_game

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

    with pytest.raises(ParseError):
        parse_game(json.dumps({**json.loads(M0_DOC), "schema": 2}))


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


def test_missing_file_exits_2(capsys):
    assert run(["analyze", "does-not-exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


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
    # the 512 payoffs scaled over it
    path = files("wide.json", hostile_denominator_doc(16, 1000))
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
    assert err.startswith("error: ") and "past.json: players: 65 players" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        run(["not-a-command"])
    assert info.value.code == 2


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


@settings(max_examples=300, deadline=None)
@example(("analyze", {"game": b"\xff\xfe{"}))
@example(("analyze", {"game": M0_DOC.replace('"I"', '"\\ud800"', 1).encode()}))
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
