"""The document layer against the code it replaced.

``cli`` reads a game's or seed's payoffs in one walk that parses each
distinct raw value once, and writes game and offer documents by hand rather
than through ``json.dumps(doc, indent=2)``.  The per-cell walker and the
``json.dumps`` writers it replaced live on below as references: the new code
must return equal games and seeds, raise the same ``ParseError`` messages,
and write byte-identical documents.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from preplay import Game, Offer, OfferSet, ParseError, as_rational, canonicalize
from preplay import invert_offer_set, nonnegative_decomposition
from preplay.cli import (
    SCHEMA_VERSION,
    _check_scales,
    _check_schema,
    _expect_object,
    _load_json,
    _parse_frame,
    parse_game,
    parse_seed_assignments,
    serialize_game,
    serialize_offers,
)
from conftest import (
    constant_sum_game,
    cube_game,
    prime_denominator_game,
    random_game,
    rational_game,
    tie_game,
)


# ---------------------------------------------------------------------------
# references: the per-cell walker and the json.dumps writers


def reference_location(location):
    if isinstance(location, str):
        return location
    return "payoffs" + "".join(f"[{i}]" for i in location)


def reference_list(node, source, location, length=None):
    if not isinstance(node, list):
        raise ParseError(
            source, reference_location(location), f"expected an array, got {type(node).__name__}"
        )
    if length is not None and len(node) != length:
        raise ParseError(
            source, reference_location(location), f"expected {length} elements, got {len(node)}"
        )
    return node


def reference_rational(node, source, location):
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise ParseError(
            source,
            reference_location(location),
            f"expected an integer or a rational string, got {json.dumps(node)}",
        )
    try:
        return as_rational(node)
    except ValueError:
        raise ParseError(
            source, reference_location(location), f"not a rational: {json.dumps(node)}"
        ) from None


def reference_walk(node, space, source, visit):
    counts = space.shape.strategy_counts

    def walk(node, prefix):
        depth = len(prefix)
        if depth == len(counts):
            visit(prefix, node)
            return
        children = reference_list(node, source, prefix, counts[depth])
        for i, child in enumerate(children):
            walk(child, prefix + (i,))

    walk(node, ())


def reference_parse_game(data, source="<game>"):
    doc = _expect_object(_load_json(data, source), source, "document")
    _check_schema(doc, source)
    space = _parse_frame(doc, source)
    n = len(space.players)
    cells = []

    def visit(profile, node):
        values = reference_list(node, source, profile, n)
        cells.append(
            tuple(reference_rational(v, source, (*profile, i)) for i, v in enumerate(values))
        )

    reference_walk(doc.get("payoffs"), space, source, visit)
    _check_scales(cells, source)
    return Game(space.players, space.strategies, tuple(cells))


def reference_parse_seed(data, game, source="<seed>"):
    doc = _expect_object(_load_json(data, source), source, "document")
    _check_schema(doc, source)
    space = _parse_frame(doc, source)
    if space != game.space:
        raise ParseError(
            source, "players/strategies", "seed document does not match the game's frame"
        )
    n = len(space.players)
    assignments = {}

    def visit(profile, node):
        if node is None:
            return
        values = reference_list(node, source, profile, n)
        assignments[profile] = tuple(
            reference_rational(v, source, (*profile, i)) for i, v in enumerate(values)
        )

    reference_walk(doc.get("payoffs"), space, source, visit)
    return assignments


def nested_payoffs(game, render=str):
    counts, strides = game.shape.strategy_counts, game.shape.strides

    def nest(axis, flat):
        if axis == len(counts):
            return [render(v) for v in game.payoffs[flat]]
        return [nest(axis + 1, flat + i * strides[axis]) for i in range(counts[axis])]

    return nest(0, 0)


def game_document(game, render=str):
    return {
        "schema": SCHEMA_VERSION,
        "players": list(game.players),
        "strategies": [list(row) for row in game.strategies],
        "payoffs": nested_payoffs(game, render),
    }


def reference_serialize_game(game):
    return json.dumps(game_document(game), indent=2) + "\n"


def reference_serialize_offers(offer_set):
    doc = {
        "schema": SCHEMA_VERSION,
        "offers": [
            {
                "payer": o.payer,
                "payee": o.payee,
                "strategy": o.payee_strategy,
                "amount": str(o.amount),
            }
            for o in offer_set
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def outcome(parse, *args, **kwargs):
    """What a parse returns, or the full message of the ParseError it raises."""
    try:
        return parse(*args, **kwargs)
    except ParseError as exc:
        return f"ParseError: {exc}"


# ---------------------------------------------------------------------------
# parse errors keep the order of a depth-first walk

PD_DOC = {
    "schema": 1,
    "players": ["I", "II"],
    "strategies": [["C", "D"], ["C", "D"]],
    "payoffs": [[["4", "4"], ["0", "5"]], [["5", "0"], ["1", "1"]]],
}

CUBE_DOC = {
    "schema": 1,
    "players": ["A", "B", "C"],
    "strategies": [["a1", "a2"], ["b1", "b2"], ["c1", "c2"]],
    "payoffs": [
        [[[str(i), str(j), str(k)] for k in range(2)] for j in range(2)] for i in range(2)
    ],
}


def with_payoffs(doc, payoffs):
    return json.dumps({**doc, "payoffs": payoffs})


# (game document, the full message parse_game raises)
GAME_FAULTS = [
    # a bad rational in the first row comes before a short second row
    (
        with_payoffs(PD_DOC, [[["4", "x"], ["0", "5"]], [["5", "0"]]]),
        'g.json: payoffs[0][0][1]: not a rational: "x"',
    ),
    (
        with_payoffs(PD_DOC, [[["4", "4"], ["0", "5"]], [["5", "0"]]]),
        "g.json: payoffs[1]: expected 2 elements, got 1",
    ),
    # true and 1.0 equal 1 and hash alike, but are no rationals
    (
        with_payoffs(PD_DOC, [[[1, 1], [True, 0]], [[5, 0], [1, 1]]]),
        "g.json: payoffs[0][1][0]: expected an integer or a rational string, got true",
    ),
    (
        with_payoffs(PD_DOC, [[[1, 1], [1, 0]], [[1.0, 0], [True, 1]]]),
        "g.json: payoffs[1][0][0]: expected an integer or a rational string, got 1.0",
    ),
    (
        with_payoffs(PD_DOC, [[[1, 1], [0, 5]], [[5, 0], [1, True]]]),
        "g.json: payoffs[1][1][1]: expected an integer or a rational string, got true",
    ),
    # a null cell is a fault in a game document
    (
        with_payoffs(PD_DOC, [[None, ["0", "5"]], [["5", "0"], ["x", "1"]]]),
        "g.json: payoffs[0][0]: expected an array, got NoneType",
    ),
    (
        with_payoffs(CUBE_DOC, [[[["0", "0", "0"], ["1", "1"]], "row"], []]),
        "g.json: payoffs[0][0][1]: expected 3 elements, got 2",
    ),
]


def located(faults):
    return [message.split(": ")[1] for _, message in faults]


@pytest.mark.parametrize("text, message", GAME_FAULTS, ids=located(GAME_FAULTS))
def test_game_document_faults_are_reported_depth_first(text, message):
    with pytest.raises(ParseError) as info:
        parse_game(text, source="g.json")
    assert str(info.value) == message


# (seed document for the 2x2x2 cube, the full message parse_seed_assignments raises)
SEED_FAULTS = [
    (
        with_payoffs(CUBE_DOC, [[[None, None], [None, ["1", "2"]]], [[None, None], None]]),
        "s.json: payoffs[0][1][1]: expected 3 elements, got 2",
    ),
    (
        with_payoffs(CUBE_DOC, [[[None, None], [None, None]], [[None, ["0", True, "0"]], None]]),
        "s.json: payoffs[1][0][1][1]: expected an integer or a rational string, got true",
    ),
    (
        with_payoffs(CUBE_DOC, [[[None, ["0", "0", "0"]], [None, None]], [None, [None, "x"]]]),
        "s.json: payoffs[1][0]: expected an array, got NoneType",
    ),
    (
        with_payoffs(
            CUBE_DOC, [[[None, [0, 0, 0]], [None, None]], [[None, None], [[0, 0, 0.0], 1]]]
        ),
        "s.json: payoffs[1][1][0][2]: expected an integer or a rational string, got 0.0",
    ),
]


@pytest.mark.parametrize("text, message", SEED_FAULTS, ids=located(SEED_FAULTS))
def test_seed_document_faults_are_reported_depth_first(text, message):
    cube = parse_game(json.dumps(CUBE_DOC))
    with pytest.raises(ParseError) as info:
        parse_seed_assignments(text, cube, source="s.json")
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the parser against the per-cell walker


def rational_forms(rng, value):
    """``value`` as an int, an integer string, a ratio not in lowest terms or
    a decimal string, whichever it can be written as."""
    forms = [str(value), f"{value.numerator * 3}/{value.denominator * 3}"]
    if value.denominator == 1:
        forms += [value.numerator, f"+{value.numerator}" if value >= 0 else str(value)]
    if 10**6 % value.denominator == 0:
        scaled = abs(value.numerator) * (10**6 // value.denominator)
        forms.append(f"{'-' if value < 0 else ''}{scaled // 10**6}.{scaled % 10**6:06d}")
    return rng.choice(forms)


def document_games():
    rng = random.Random(20120806)
    games = [random_game(rng) for _ in range(40)]
    games += [rational_game(rng) for _ in range(40)]
    games += [tie_game(rng) for _ in range(20)]
    games += [constant_sum_game(rng) for _ in range(20)]
    return games + [cube_game(), prime_denominator_game()]


def payoff_paths(payoffs, prefix=()):
    yield prefix
    if isinstance(payoffs, list):
        for i, child in enumerate(payoffs):
            yield from payoff_paths(child, prefix + (i,))


FAULTS = (True, False, 1.0, 0.5, None, "x", "1e3", "1/0", " 3", [], {}, "row", ["0"], 7)


def mutate(rng, doc):
    """Two to four edits at random places of a document's payoffs."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(2, 4)):
        path = rng.choice(list(payoff_paths(doc["payoffs"])))
        if not path:
            continue
        parent = doc["payoffs"]
        for i in path[:-1]:
            parent = parent[i]
        action = rng.randrange(3)
        if action == 0:
            parent[path[-1]] = copy.deepcopy(rng.choice(FAULTS))
        elif action == 1:
            del parent[path[-1]]
        else:
            parent.append(copy.deepcopy(parent[path[-1]]))
    return doc


def test_parser_matches_the_per_cell_walker_on_documents():
    rng = random.Random(1)
    for game in document_games():
        for doc in (
            game_document(game),
            game_document(game, lambda v: rational_forms(rng, v)),
        ):
            text = json.dumps(doc)
            parsed = parse_game(text)
            assert parsed == reference_parse_game(text) == game
            assert all(type(v) is Fraction for cell in parsed.payoffs for v in cell)
            seed = copy.deepcopy(doc)
            for path in payoff_paths(seed["payoffs"]):
                if len(path) == len(game.players) and rng.random() < 0.5:
                    parent = seed["payoffs"]
                    for i in path[:-1]:
                        parent = parent[i]
                    parent[path[-1]] = None
            seed_text = json.dumps(seed)
            assert parse_seed_assignments(seed_text, game) == reference_parse_seed(seed_text, game)


def test_parser_faults_match_the_per_cell_walker():
    rng = random.Random(2)
    raised = 0
    for game in document_games():
        for _ in range(5):
            text = json.dumps(mutate(rng, game_document(game, lambda v: rational_forms(rng, v))))
            expected = outcome(reference_parse_game, text, source="g.json")
            assert outcome(parse_game, text, source="g.json") == expected
            assert outcome(parse_seed_assignments, text, game, source="s.json") == outcome(
                reference_parse_seed, text, game, source="s.json"
            )
            raised += isinstance(expected, str)
    assert raised > 400


def test_parser_matches_the_per_cell_walker_on_the_corpus(corpus):
    for game, _ in corpus:
        text = serialize_game(game)
        assert parse_game(text) == reference_parse_game(text) == game


# ---------------------------------------------------------------------------
# the writers against json.dumps(doc, indent=2)

AWKWARD_NAMES = [
    'say "hi"',
    "back\\slash",
    "tab\tnew\nline\x00\x1f\x7f",
    "café 日本",
    "\U0001f600 astral \U00010348",
    "  ",
    "/",
    "",
]


def awkward_game(rng, names):
    game = rational_game(rng)
    players = tuple(f"{rng.choice(names)}#{i}" for i in range(len(game.players)))
    strategies = tuple(
        tuple(f"{rng.choice(names)}.{j}" for j in range(len(row))) for row in game.strategies
    )
    return Game(players, strategies, game.payoffs)


def writer_games(corpus):
    rng = random.Random(3)
    games = [game for game, _ in corpus] + document_games()
    games += [awkward_game(rng, AWKWARD_NAMES) for _ in range(40)]
    # single-strategy players, alone and next to wider ones
    games += [
        Game(("A", "B"), (("x",), ("y",)), ((Fraction(1, 2), -3),)),
        Game(("A", "B", "C"), (("x",), ("y", "z"), ("w",)), ((0, 1, 2), (-1, 3, Fraction(-5, 7)))),
    ]
    return games


def test_game_writer_matches_json_dumps(corpus):
    for game in writer_games(corpus):
        assert serialize_game(game) == reference_serialize_game(game)


def test_offer_writer_matches_json_dumps(corpus):
    rng = random.Random(4)
    sets = []
    for game, offers in corpus:
        sets += [offers, canonicalize(offers), invert_offer_set(offers)]
        sets.append(nonnegative_decomposition(offers))
    for game in writer_games(corpus)[-42:]:
        space = game.space
        players, strategies = space.players, space.strategies
        offers = []
        for _ in range(rng.randint(1, 6)):
            p, q = rng.sample(range(len(players)), 2)
            amount = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            offers.append(Offer(players[p], players[q], rng.choice(strategies[q]), amount))
        sets += [OfferSet(space, tuple(offers)), OfferSet(space, ())]
    assert any(len(s) == 0 for s in sets)
    for offer_set in sets:
        assert serialize_offers(offer_set) == reference_serialize_offers(offer_set)
    assert serialize_offers(sets[-1]).endswith('"offers": []\n}\n')
