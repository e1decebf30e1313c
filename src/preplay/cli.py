"""File-based command line interface.

Documents are JSON.  A game document looks like

    {
      "schema": 1,
      "players": ["I", "II"],
      "strategies": [["C", "D"], ["C", "D"]],
      "payoffs": [[["4", "4"], ["0", "5"]], [["5", "0"], ["1", "1"]]]
    }

with payoffs nested one level per player (player 1 outermost) and each
innermost list holding one rational per player.  Rationals may be written
as integers, integer strings, decimal strings ("0.5"), or ratio strings
("1/2"); they are always re-serialized as ratio strings in lowest terms
(integers without a denominator).  A game's payoff denominators may not
be too varied: each player's payoffs share one least common denominator,
and those denominators together may take at most 65,536 bits.  A game
may have at most 16 players and at most 16,384 profiles.  Seed documents
reuse the same grammar with ``null`` for unspecified cells, and the same
bounds on players and profiles; their denominators are not bounded.  An
offer document is

    {"schema": 1, "offers": [{"payer": "I", "payee": "II",
                              "strategy": "C", "amount": "2"}]}

Exit codes: 0 success, 1 domain failure (target unreachable, seed sum
violation, nonpositive margin), 2 malformed input, a closed standard output
where a result goes there, or a result too long to print: a number, in an
output or in the ``--strict`` amount message, whose numerator or denominator
has more digits than ``sys.get_int_max_str_digits()`` allows (4,300 by
default).  That limit stays as it is, since it keeps int-to-str conversion
of hostile numbers from taking quadratic time.  A seed sum or margin message
names such a number by its length in bits (``core._shown``), so those
failures exit 1 whatever the number.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii

# the other layers load lazily, when a command first calls into one of them
from . import analyze, characterize, complete, offers, synth
from .core import Game, Profile, StrategySpace, _scales, _text, as_rational, make_game
from .errors import NonpositiveMargin, NotEquivalent, ParseError, PreplayError, SeedSumViolation

SCHEMA_VERSION = 1

# Bits that the per-player common payoff denominators of one game document
# may take together.  Analysis holds every payoff as an int over its
# player's common denominator (``Game._scaled``), so this bounds each
# scaled outcome, whatever the denominators' count and length.
_MAX_SCALE_BITS = 1 << 16

# Players one game document may name.  A request costs in proportion to
# its payoff values, profiles times players, and 16,384 profiles leave room
# for at most 14 players with two strategies or more, so every player past
# 14 has one strategy: padding that multiplies the values without adding a
# choice.  With 14 players of two, ``apply`` took 0.40 s and 95 MB at 16
# players (``complete`` 0.37 s, ``analyze`` 0.20 s), 2.2 s and 432 MB at 32,
# and 12 s and 1.4 GB at 64, writing 15, 71 and 282 MB (2-vCPU VM, Python
# 3.11).
_MAX_PLAYERS = 16

# Profiles one game document may have (128 x 128).  Pareto optimality is
# quadratic in the profiles where most outcomes are optimal: with every
# outcome optimal it took 0.05 s on 128 x 128 and 0.9 s on 14 players of two
# strategies, against 0.5 s on 256 x 256 and 14 s on 16 players of two
# (2-vCPU VM, Python 3.11).
_MAX_CELLS = 1 << 14


# ---------------------------------------------------------------------------
# document parsing and serialization


def _load_json(data: str | bytes, source: str):
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(source, "document", f"not valid UTF-8: {exc}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(source, f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except (ValueError, RecursionError) as exc:
        # an integer past the int-to-str digit limit, or nesting past the
        # recursion limit
        raise ParseError(source, "document", str(exc)) from None


def _expect_object(node, source: str, location: str) -> dict:
    if not isinstance(node, dict):
        raise ParseError(source, location, f"expected an object, got {type(node).__name__}")
    return node


def _array_fault(node, length: int | None) -> str:
    """What is wrong with ``node`` where an array of ``length`` elements
    (of any length, where ``length`` is None) belongs."""
    if not isinstance(node, list):
        return f"expected an array, got {type(node).__name__}"
    return f"expected {length} elements, got {len(node)}"


def _expect_list(node, source: str, location: str, length: int | None = None) -> list:
    if not isinstance(node, list) or length is not None and len(node) != length:
        raise ParseError(source, location, _array_fault(node, length))
    return node


def _expect_string(node, source: str, location: str, *index: int) -> str:
    """``node``, a string that UTF-8 can encode.  ``location`` is formatted
    with ``index`` only to name a fault, so a name that is not at fault
    costs no location text."""
    # the detail, like the location, is formatted only at a fault
    fault = "expected a string, got {}"
    if isinstance(node, str):
        try:
            # json.loads turns "\ud800" into a lone surrogate, which UTF-8
            # cannot encode, so neither the output nor this detail may carry it
            node.encode("utf-8")
            return node
        except UnicodeEncodeError:
            fault = "string is not valid Unicode (lone surrogate)"
    raise ParseError(source, location.format(*index), fault.format(type(node).__name__))


def _rational(node) -> Fraction:
    """A rational as JSON gives it: an int or a string, never a bool or float.

    Raises ``ValueError`` with the message a ``ParseError`` shows; the caller,
    which knows where the value sits, builds the ``ParseError``."""
    if type(node) is not int and type(node) is not str:
        raise ValueError(f"expected an integer or a rational string, got {json.dumps(node)}")
    try:
        return as_rational(node)
    except ValueError:
        raise ValueError(f"not a rational: {json.dumps(node)}") from None


def _check_schema(doc: dict, source: str) -> None:
    version = doc.get("schema", SCHEMA_VERSION)
    # exact type: true and 1.0 compare equal to 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(source, "schema", f"unsupported schema version {version!r}")


def _open_document(data: str | bytes, source: str) -> dict:
    """A document's JSON object, once its schema version is checked."""
    doc = _expect_object(_load_json(data, source), source, "document")
    _check_schema(doc, source)
    return doc


def _parse_frame(doc: dict, source: str) -> StrategySpace:
    players = _expect_list(doc.get("players"), source, "players")
    if len(players) > _MAX_PLAYERS:
        raise ParseError(
            source, "players", f"{len(players)} players; at most {_MAX_PLAYERS} are allowed"
        )
    players = tuple(_expect_string(p, source, "players[{}]", i) for i, p in enumerate(players))
    strategy_rows = _expect_list(doc.get("strategies"), source, "strategies", len(players))
    strategies = tuple(
        tuple(
            _expect_string(s, source, "strategies[{}][{}]", i, j)
            for j, s in enumerate(_expect_list(row, source, f"strategies[{i}]"))
        )
        for i, row in enumerate(strategy_rows)
    )
    try:
        space = StrategySpace(players, strategies)
    except PreplayError as exc:
        raise ParseError(source, "players/strategies", str(exc)) from None
    if space.shape.size > _MAX_CELLS:
        raise ParseError(
            source, "strategies", f"{space.shape.size} profiles; at most {_MAX_CELLS} are allowed"
        )
    return space


def _read_payoffs(node, space: StrategySpace, source: str, nulls: bool = False) -> list:
    """The cells of a document's ``payoffs`` in row-major order: each a tuple
    of ``Fraction``s, or ``None`` for a ``null`` cell where ``nulls`` admits
    one.

    One depth-first walk checks each array's type and length before its
    elements, so the fault reported is the first in document order.  Each
    distinct raw value is parsed once, through a memo keyed by the value
    itself; only exact ints and strings reach it, since ``true`` and ``1.0``
    equal ``1`` and hash alike.  A fault is located from the cells read
    before it: the walk visits arrays in row-major order and every array
    before the faulty one is whole, so ``len(cells)`` is the flat index of
    the faulty array's first cell, and that profile's leading indices are
    the array's path under ``payoffs``.
    """
    counts = space.shape.strategy_counts
    n = len(counts)
    last = n - 1
    memo: dict = {}
    cells: list = []
    append = cells.append

    def fault(message: str, depth: int, *value: int) -> ParseError:
        """The ``ParseError`` for the array at ``depth`` that holds the next
        cell, or for the value at index ``value`` of that cell."""
        path = space.shape._profile_at(len(cells))[:depth] + value
        return ParseError(source, "payoffs" + "".join(f"[{i}]" for i in path), message)

    def walk(node, depth: int) -> None:
        if type(node) is not list or len(node) != counts[depth]:
            raise fault(_array_fault(node, counts[depth]), depth)
        if depth < last:
            for child in node:
                walk(child, depth + 1)
            return
        for cell in node:
            if type(cell) is list and len(cell) == n:
                values = []
                for v in cell:
                    r = memo.get(v) if type(v) is int or type(v) is str else None
                    if r is None:
                        try:
                            r = memo[v] = _rational(v)
                        except ValueError as exc:
                            raise fault(str(exc), n, len(values)) from None
                    values.append(r)
                append(tuple(values))
            elif cell is None and nulls:
                append(None)
            else:
                raise fault(_array_fault(cell, n), n)

    walk(node, 0)
    return cells


def parse_game(data: str | bytes, *, source: str = "<game>") -> Game:
    """Parse a game document; raises ParseError naming the offending element."""
    doc = _open_document(data, source)
    space = _parse_frame(doc, source)
    cells = tuple(_read_payoffs(doc.get("payoffs"), space, source))
    scales = _check_scales(cells, source)
    return Game(space.players, space.strategies, cells, _space=space, _known_scales=scales)


def _check_scales(cells: Sequence[tuple[Fraction, ...]], source: str) -> tuple[int, ...]:
    """The players' common payoff denominators (``core._scales``); rejects
    payoffs whose denominators take more than ``_MAX_SCALE_BITS`` together,
    as soon as a partial lcm shows it."""
    scales = _scales(cells, _MAX_SCALE_BITS)
    if scales is None:
        raise ParseError(
            source,
            "payoffs",
            f"denominators too varied: the players' common denominators "
            f"take more than {_MAX_SCALE_BITS} bits",
        )
    return scales


def _array(items: list[str], indent: int) -> str:
    """A JSON array of items already written, laid out as
    ``json.dumps(..., indent=2)`` lays out an array that opens ``indent``
    spaces in."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def serialize_game(game: Game) -> str:
    """Deterministic game document; parse(serialize(g)) == g and
    serialize(parse(serialize(...))) is a fixpoint.

    Written as ``json.dumps(doc, indent=2)`` writes it, without its
    pure-Python encoder: names through the C string escaper, payoffs as
    quoted ``str(Fraction)``, which holds only ``-``, digits and ``/``.
    """
    counts = game.shape.strategy_counts
    n = len(counts)
    # a cell opens 2n + 2 spaces in, one level per player below "payoffs"
    pad = "\n" + " " * (2 * n + 4)
    head, sep, tail = "[" + pad + '"', '",' + pad + '"', '"\n' + " " * (2 * n + 2) + "]"
    rows = [head + sep.join(map(_text, cell)) + tail for cell in game.payoffs]
    for axis in reversed(range(n)):
        m, indent = counts[axis], 2 * axis + 2
        rows = [_array(rows[i : i + m], indent) for i in range(0, len(rows), m)]
    name = encode_basestring_ascii
    strategies = [_array([name(s) for s in row], 4) for row in game.strategies]
    return (
        f'{{\n  "schema": {SCHEMA_VERSION},\n'
        f'  "players": {_array([name(p) for p in game.players], 2)},\n'
        f'  "strategies": {_array(strategies, 2)},\n'
        f'  "payoffs": {rows[0]}\n}}\n'
    )


def parse_offers(
    data: str | bytes,
    space: StrategySpace,
    *,
    source: str = "<offers>",
    strict: bool = False,
) -> offers.OfferSet:
    """Parse an offer document against a game's players and strategies.

    With ``strict`` set, negative amounts are rejected (offers as raw
    promises of payment); by default they are admitted as reverse transfers.
    """
    entries = _expect_list(_open_document(data, source).get("offers"), source, "offers")
    parsed = []
    for i, entry in enumerate(entries):
        location = f"offers[{i}]"
        entry = _expect_object(entry, source, location)
        payer = _expect_string(entry.get("payer"), source, f"{location}.payer")
        payee = _expect_string(entry.get("payee"), source, f"{location}.payee")
        strategy = _expect_string(entry.get("strategy"), source, f"{location}.strategy")
        try:
            amount = _rational(entry.get("amount"))
        except ValueError as exc:
            raise ParseError(source, f"{location}.amount", str(exc)) from None
        if strict and amount < 0:
            raise ParseError(
                source, f"{location}.amount", f"negative amount {amount} (strict mode)"
            )
        try:
            offer = offers.Offer(payer, payee, strategy, amount)
            space._offer_key(payer, payee, strategy)
        except PreplayError as exc:
            raise ParseError(source, location, str(exc)) from None
        parsed.append(offer)
    return offers.OfferSet(space, tuple(parsed))


def serialize_offers(offer_set: offers.OfferSet) -> str:
    """An offer document, written as ``serialize_game`` writes a game."""
    name = encode_basestring_ascii
    items = [
        f'{{\n      "payer": {name(o.payer)},\n      "payee": {name(o.payee)},\n'
        f'      "strategy": {name(o.payee_strategy)},\n      "amount": "{_text(o.amount)}"\n    }}'
        for o in offer_set
    ]
    return f'{{\n  "schema": {SCHEMA_VERSION},\n  "offers": {_array(items, 2)}\n}}\n'


def parse_seed_assignments(
    data: str | bytes, game: Game, *, source: str = "<seed>"
) -> dict[Profile, tuple[Fraction, ...]]:
    """Parse a seed document: the game document grammar with ``null`` in
    every unspecified cell.  Players and strategies must match the game."""
    doc = _open_document(data, source)
    space = _parse_frame(doc, source)
    if space != game.space:
        raise ParseError(
            source, "players/strategies", "seed document does not match the game's frame"
        )
    cells = _read_payoffs(doc.get("payoffs"), space, source, nulls=True)
    return {p: cell for p, cell in zip(space.shape.profiles(), cells) if cell is not None}


# ---------------------------------------------------------------------------
# rendering


def format_matrix(game: Game) -> str:
    """Two-person payoff matrix, row player first; generic outcome listing
    for other player counts."""
    cells = [",".join(map(str, cell)) for cell in game.payoffs]
    if game.shape.player_count != 2:
        # the profiles' names in row-major order
        names = product(*game.strategies)
        return "\n".join(f"({','.join(name)}): {cell}" for name, cell in zip(names, cells))
    rows, cols = game.strategies
    # the header is one more row of the table, under an empty row name
    m = len(cols)
    table = [("", *cols)] + [(r, *cells[i * m : (i + 1) * m]) for i, r in enumerate(rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join(
        " | ".join(text.rjust(width) for text, width in zip(line, widths)) for line in table
    )


def _named(game: Game, profiles) -> list[list[str]]:
    """Profiles the package computed for ``game``, in index order, each as
    its strategy names."""
    return [[row[i] for row, i in zip(game.strategies, p)] for p in sorted(profiles)]


def _profiles_text(profiles: list[list[str]]) -> str:
    """Named profiles as ``(C,D), (D,C)``, or ``none``."""
    return ", ".join("(" + ",".join(p) + ")" for p in profiles) or "none"


def _report(game: Game) -> dict:
    """``report(game)`` as the document ``analyze --json`` writes, in the
    order both formats write it: profiles in index order, and each player's
    dominance pairs by dominating strategy, dominated strategy, then kind
    ("strict" before "weak")."""
    analysis = analyze.report(game)
    dominance = {}
    for k, player in enumerate(game.players):
        index = {name: i for i, name in enumerate(game.strategies[k])}
        pairs = sorted(analysis.dominance[player], key=lambda p: (index[p[0]], index[p[1]], p[2]))
        dominance[player] = [{"dominator": s, "dominated": t, "kind": kind} for s, t, kind in pairs]
    dominant = analysis.strictly_dominant_profile
    return {
        "players": list(game.players),
        "pure_nash": _named(game, analysis.pure_nash),
        "dominance": dominance,
        "constant_sum": str(analysis.constant_sum) if analysis.constant_sum is not None else None,
        "pareto_optimal": _named(game, analysis.pareto_optimal),
        "strictly_dominant_profile": _named(game, [dominant])[0] if dominant is not None else None,
    }


def format_report(game: Game) -> str:
    doc = _report(game)
    lines = [
        f"players: {', '.join(doc['players'])}",
        f"pure Nash equilibria: {_profiles_text(doc['pure_nash'])}",
        "dominance:",
    ]
    for player, pairs in doc["dominance"].items():
        # "strict" sorts before "weak", so a pair's first kind is its strongest
        kinds = {}
        for p in pairs:
            kinds.setdefault((p["dominator"], p["dominated"]), p["kind"])
        phrases = "; ".join(f"{s} {kind}ly dominates {t}" for (s, t), kind in kinds.items())
        lines.append(f"  {player}: {phrases or 'none'}")
    lines.append(f"constant sum: {doc['constant_sum'] or 'none'}")
    lines.append(f"Pareto optimal: {_profiles_text(doc['pareto_optimal'])}")
    dominant = doc["strictly_dominant_profile"]
    lines.append(f"strictly dominant profile: {_profiles_text([dominant] if dominant else [])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _read_text(path: str) -> bytes:
    # undecoded, so that _load_json reports bad UTF-8 as a parse error
    with open(path, "rb") as file:
        return file.read()


def _read_game(path: str) -> Game:
    return parse_game(_read_text(path), source=path)


def _read_offers(path: str, space: StrategySpace, strict: bool) -> offers.OfferSet:
    return parse_offers(_read_text(path), space, source=path, strict=strict)


def _profile_option(game: Game, text: str, option: str) -> Profile:
    names = text.split(",")
    try:
        return game.space.profile_from_names(names)
    except PreplayError as exc:
        raise ParseError("command line", option, str(exc)) from None


def _emit(args, text: str) -> None:
    """Write a command's result to ``-o``'s file, or else to stdout."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(text)
    elif sys.stdout is None:
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _cmd_apply(args) -> int:
    game = _read_game(args.game)
    offer_set = _read_offers(args.offers, game.space, args.strict)
    _emit(args, serialize_game(offers.apply_offer_set(game, offer_set)))
    return 0


def _cmd_check(args) -> int:
    source = _read_game(args.game)
    target = _read_game(args.target)
    verdict = characterize.check_equivalence(source, target)
    _emit(args, verdict.describe() + "\n")
    return 0 if verdict.equivalent else 1


def _cmd_synth(args) -> int:
    source = _read_game(args.game)
    target = _read_game(args.target)
    offer_set = synth.synthesize_offers(source, target).offers
    if args.nonnegative:
        offer_set = synth.nonnegative_decomposition(offer_set)
    _emit(args, serialize_offers(offer_set))
    return 0


def _cmd_complete(args) -> int:
    game = _read_game(args.game)
    assignments = parse_seed_assignments(_read_text(args.seed), game, source=args.seed)
    if args.base is not None:
        base = _profile_option(game, args.base, "--base")
    else:
        base = (0,) * game.shape.player_count
    completed = complete.complete_from_seed(game, complete.Seed(base, assignments))
    _emit(args, serialize_game(completed))
    return 0


def _cmd_invert(args) -> int:
    game = _read_game(args.game)
    offer_set = _read_offers(args.offers, game.space, args.strict)
    _emit(args, serialize_offers(offers.invert_offer_set(offer_set)))
    return 0


def _cmd_dominate(args) -> int:
    game = _read_game(args.game)
    profile = _profile_option(game, args.profile, "--profile")
    try:
        margin = as_rational(args.margin)
    except ValueError:
        raise ParseError("command line", "--margin", f"not a rational: {args.margin!r}") from None
    _emit(args, serialize_offers(synth.make_profile_dominant(game, profile, margin)))
    return 0


def _cmd_analyze(args) -> int:
    game = _read_game(args.game)
    _emit(args, json.dumps(_report(game), indent=2) + "\n" if args.json else format_report(game))
    return 0


_PD_PAYOFFS = {
    ("C", "C"): ("4", "4"),
    ("C", "D"): ("0", "5"),
    ("D", "C"): ("5", "0"),
    ("D", "D"): ("1", "1"),
}


def _cmd_demo(args) -> int:
    game = make_game(("I", "II"), (("C", "D"), ("C", "D")), _PD_PAYOFFS)
    steps = [
        ("M0 (the Prisoner's Dilemma)", None),
        ("M1 = M0 after the offer", offers.Offer("I", "II", "C", Fraction(2))),
        ("M2 = M1 after the offer", offers.Offer("II", "I", "C", Fraction(2))),
    ]
    out = ["Prisoner's Dilemma, transformed by two preplay offers", ""]
    for title, offer in steps:
        if offer is not None:
            out.append(f"offer: {offer.describe()}")
            game = offers.apply_offer(game, offer)
        out.append(f"{title}:")
        out.append(format_matrix(game))
        out.append(f"pure Nash equilibria: {_profiles_text(_named(game, analyze.pure_nash(game)))}")
        out.append("")
    _emit(args, "\n".join(out))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``ParseError``, so it prints one line and
    exits 2 like any other malformed input; subcommand parsers inherit this."""

    def error(self, message):
        raise ParseError("command line", self.prog, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="preplay",
        description="Transform normal form games with binding preplay offers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("apply", _cmd_apply, "apply an offer set to a game")
    p.add_argument("game")
    p.add_argument("offers")
    p.add_argument("-o", "--output")
    p.add_argument("--strict", action="store_true", help="reject negative amounts")

    p = add("check", _cmd_check, "decide whether a target is reachable by offers")
    p.add_argument("game")
    p.add_argument("target")

    p = add("synth", _cmd_synth, "construct offers realizing a reachable target")
    p.add_argument("game")
    p.add_argument("target")
    p.add_argument("--nonnegative", action="store_true", help="decompose negative amounts")
    p.add_argument("-o", "--output")

    p = add("complete", _cmd_complete, "extend a star seed to the unique reachable game")
    p.add_argument("game")
    p.add_argument("seed")
    p.add_argument("--base", help="base profile as comma-separated strategy names")
    p.add_argument("-o", "--output")

    p = add("invert", _cmd_invert, "construct the offer set undoing another")
    p.add_argument("game")
    p.add_argument("offers")
    p.add_argument("-o", "--output")
    p.add_argument("--strict", action="store_true", help="reject negative amounts")

    p = add("dominate", _cmd_dominate, "make a chosen profile strictly dominant")
    p.add_argument("game")
    p.add_argument("--profile", required=True, help="comma-separated strategy names")
    p.add_argument("--margin", default="1", help="required dominance margin (positive rational)")
    p.add_argument("-o", "--output")

    p = add("analyze", _cmd_analyze, "pure-strategy analysis of a game")
    p.add_argument("game")
    p.add_argument("--json", action="store_true")

    p = add("demo", _cmd_demo, "worked walkthrough")
    p.add_argument("topic", choices=["pd"])

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (SeedSumViolation, NonpositiveMargin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotEquivalent as exc:
        print(exc.verdict.describe(), file=sys.stderr)
        return 1
    except (PreplayError, OSError) as exc:
        message = str(exc)
    except ValueError as exc:
        # str() of an int past the int-to-str digit limit, in an output or
        # in a message; any other ValueError is a fault of the program
        if "integer string conversion" not in str(exc):
            raise
        message = f"result: a number to print has more than {sys.get_int_max_str_digits()} digits"
    print(f"error: {message}", file=sys.stderr)
    return 2


def main() -> None:
    # stderr already escapes what its encoding cannot take; let stdout do the
    # same, so a name outside a non-UTF-8 locale's charset never ends in a
    # traceback (a caller's redirected stdout may have no reconfigure)
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(run())
