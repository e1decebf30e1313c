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
may have at most 64 players.  Seed
documents reuse the same grammar with ``null`` for unspecified cells.  An
offer document is

    {"schema": 1, "offers": [{"payer": "I", "payee": "II",
                              "strategy": "C", "amount": "2"}]}

Exit codes: 0 success, 1 domain failure (target unreachable, seed sum
violation, nonpositive margin), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Union

from .analyze import pure_nash, report
from .characterize import check_equivalence
from .complete import Seed, complete_from_seed
from .core import Game, Profile, StrategySpace, as_rational, make_game
from .errors import (
    NonpositiveMargin,
    NotEquivalent,
    ParseError,
    PreplayError,
    SeedSumViolation,
)
from .offers import Offer, OfferSet, apply_offer_set, invert_offer_set
from .synth import make_profile_dominant, nonnegative_decomposition, synthesize_offers

SCHEMA_VERSION = 1

# Bits that the per-player common payoff denominators of one game document
# may take together.  Analysis holds every payoff as an int over its
# player's common denominator (``Game._scaled``), so this bounds each
# scaled outcome, whatever the denominators' count and length.
_MAX_SCALE_BITS = 1 << 16

# Players one game document may name.  65 players with two strategies each
# would already make over 2^64 profiles, so only single-strategy padding can
# pass this, and synthesis makes n(n-1) offers for it.
_MAX_PLAYERS = 64


# ---------------------------------------------------------------------------
# document parsing and serialization


def _load_json(data: Union[str, bytes], source: str):
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


def _expect_list(node, source: str, location: str, length: Optional[int] = None) -> list:
    if not isinstance(node, list):
        raise ParseError(source, location, f"expected an array, got {type(node).__name__}")
    if length is not None and len(node) != length:
        raise ParseError(source, location, f"expected {length} elements, got {len(node)}")
    return node


def _expect_string(node, source: str, location: str) -> str:
    if not isinstance(node, str):
        raise ParseError(source, location, f"expected a string, got {type(node).__name__}")
    try:
        # json.loads turns "\ud800" into a lone surrogate, which UTF-8 cannot
        # encode, so neither the output nor this detail may carry it
        node.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(source, location, "string is not valid Unicode (lone surrogate)") from None
    return node


class _Fault(Exception):
    """A payoff or amount that is not what the grammar allows: the message a
    ``ParseError`` shows, and, for a payoff, its index path under
    ``payoffs``, collected innermost first while the walk unwinds."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.path: list[int] = []


def _rational(node) -> Fraction:
    """A rational as JSON gives it: an int or a string, never a bool or float."""
    if type(node) is not int and type(node) is not str:
        raise _Fault(f"expected an integer or a rational string, got {json.dumps(node)}")
    try:
        return as_rational(node)
    except ValueError:
        raise _Fault(f"not a rational: {json.dumps(node)}") from None


def _check_schema(doc: dict, source: str) -> None:
    version = doc.get("schema", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(source, "schema", f"unsupported schema version {version!r}")


def _parse_frame(doc: dict, source: str) -> StrategySpace:
    players = _expect_list(doc.get("players"), source, "players")
    if len(players) > _MAX_PLAYERS:
        raise ParseError(
            source, "players", f"{len(players)} players; at most {_MAX_PLAYERS} are allowed"
        )
    players = tuple(
        _expect_string(p, source, f"players[{i}]") for i, p in enumerate(players)
    )
    strategy_rows = _expect_list(doc.get("strategies"), source, "strategies", len(players))
    strategies = tuple(
        tuple(
            _expect_string(s, source, f"strategies[{i}][{j}]")
            for j, s in enumerate(_expect_list(row, source, f"strategies[{i}]"))
        )
        for i, row in enumerate(strategy_rows)
    )
    try:
        return StrategySpace(players, strategies)
    except PreplayError as exc:
        raise ParseError(source, "players/strategies", str(exc)) from None


def _array_fault(node, length: int) -> _Fault:
    if not isinstance(node, list):
        return _Fault(f"expected an array, got {type(node).__name__}")
    return _Fault(f"expected {length} elements, got {len(node)}")


def _read_payoffs(node, space: StrategySpace, source: str, nulls: bool = False) -> list:
    """The cells of a document's ``payoffs`` in row-major order: each a tuple
    of ``Fraction``s, or ``None`` for a ``null`` cell where ``nulls`` admits
    one.

    One depth-first walk checks each array's type and length before its
    elements, so the fault reported is the first in document order.  Each
    distinct raw value is parsed once, through a memo keyed by the value
    itself; only exact ints and strings reach it, since ``true`` and ``1.0``
    equal ``1`` and hash alike.  A fault's location is built only when it is
    raised, from the indices collected as the walk unwinds.
    """
    counts = space.shape.strategy_counts
    n = len(counts)
    last = n - 1
    memo: dict = {}
    cells: list = []
    append = cells.append

    def walk(node, depth: int) -> None:
        if type(node) is not list or len(node) != counts[depth]:
            raise _array_fault(node, counts[depth])
        try:
            if depth < last:
                for i, child in enumerate(node):
                    walk(child, depth + 1)
                return
            for i, cell in enumerate(node):
                if type(cell) is list and len(cell) == n:
                    values = []
                    for v in cell:
                        r = memo.get(v) if type(v) is int or type(v) is str else None
                        if r is None:
                            try:
                                r = memo[v] = _rational(v)
                            except _Fault as fault:
                                fault.path.append(len(values))
                                raise
                        values.append(r)
                    append(tuple(values))
                elif cell is None and nulls:
                    append(None)
                else:
                    raise _array_fault(cell, n)
        except _Fault as fault:
            fault.path.append(i)
            raise

    try:
        walk(node, 0)
    except _Fault as fault:
        location = "payoffs" + "".join(f"[{i}]" for i in reversed(fault.path))
        raise ParseError(source, location, fault.message) from None
    return cells


def parse_game(data: Union[str, bytes], *, source: str = "<game>") -> Game:
    """Parse a game document; raises ParseError naming the offending element."""
    doc = _expect_object(_load_json(data, source), source, "document")
    _check_schema(doc, source)
    space = _parse_frame(doc, source)
    cells = _read_payoffs(doc.get("payoffs"), space, source)
    _check_scales(cells, source)
    return Game(space.players, space.strategies, tuple(cells), _space=space)


def _check_scales(cells: list[tuple[Fraction, ...]], source: str) -> None:
    """Reject payoffs whose per-player common denominators take more than
    ``_MAX_SCALE_BITS`` together; each lcm stops growing past the limit."""
    bits = 0
    for column in zip(*cells):
        scale = 1
        for denominator in {v.denominator for v in column}:
            scale = math.lcm(scale, denominator)
            if bits + scale.bit_length() > _MAX_SCALE_BITS:
                raise ParseError(
                    source,
                    "payoffs",
                    f"denominators too varied: the players' common denominators "
                    f"take more than {_MAX_SCALE_BITS} bits",
                )
        bits += scale.bit_length()


def _render_rational(value: Fraction) -> str:
    return str(value)


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
    rows = [head + sep.join(map(str, cell)) + tail for cell in game.payoffs]
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
    data: Union[str, bytes],
    space: StrategySpace,
    *,
    source: str = "<offers>",
    strict: bool = False,
) -> OfferSet:
    """Parse an offer document against a game's players and strategies.

    With ``strict`` set, negative amounts are rejected (offers as raw
    promises of payment); by default they are admitted as reverse transfers.
    """
    doc = _expect_object(_load_json(data, source), source, "document")
    _check_schema(doc, source)
    entries = _expect_list(doc.get("offers"), source, "offers")
    offers = []
    for i, entry in enumerate(entries):
        location = f"offers[{i}]"
        entry = _expect_object(entry, source, location)
        payer = _expect_string(entry.get("payer"), source, f"{location}.payer")
        payee = _expect_string(entry.get("payee"), source, f"{location}.payee")
        strategy = _expect_string(entry.get("strategy"), source, f"{location}.strategy")
        try:
            amount = _rational(entry.get("amount"))
        except _Fault as fault:
            raise ParseError(source, f"{location}.amount", fault.message) from None
        if strict and amount < 0:
            raise ParseError(
                source, f"{location}.amount", f"negative amount {amount} (strict mode)"
            )
        try:
            offer = Offer(payer, payee, strategy, amount)
            space.player_index(payer)
            space.strategy_index(payee, strategy)
        except PreplayError as exc:
            raise ParseError(source, location, str(exc)) from None
        offers.append(offer)
    return OfferSet(space, tuple(offers))


def serialize_offers(offer_set: OfferSet) -> str:
    """An offer document, written as ``serialize_game`` writes a game."""
    name = encode_basestring_ascii
    offers = [
        f'{{\n      "payer": {name(o.payer)},\n      "payee": {name(o.payee)},\n'
        f'      "strategy": {name(o.payee_strategy)},\n      "amount": "{o.amount}"\n    }}'
        for o in offer_set
    ]
    return f'{{\n  "schema": {SCHEMA_VERSION},\n  "offers": {_array(offers, 2)}\n}}\n'


def parse_seed_assignments(
    data: Union[str, bytes], game: Game, *, source: str = "<seed>"
) -> dict[Profile, tuple[Fraction, ...]]:
    """Parse a seed document: the game document grammar with ``null`` in
    every unspecified cell.  Players and strategies must match the game."""
    doc = _expect_object(_load_json(data, source), source, "document")
    _check_schema(doc, source)
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
    shape = game.shape
    if shape.player_count != 2:
        lines = []
        for p in shape.profiles():
            cell = ",".join(_render_rational(v) for v in game.payoff(p))
            lines.append(f"{game.space.name_profile(p)}: {cell}")
        return "\n".join(lines)
    rows, cols = game.strategies
    cell_text = {
        (i, j): ",".join(_render_rational(v) for v in game.payoff((i, j)))
        for i in range(len(rows))
        for j in range(len(cols))
    }
    row_width = max(len(r) for r in rows)
    col_widths = [
        max(len(cols[j]), max(len(cell_text[(i, j)]) for i in range(len(rows))))
        for j in range(len(cols))
    ]
    header = " " * row_width + " | " + " | ".join(
        cols[j].rjust(col_widths[j]) for j in range(len(cols))
    )
    lines = [header]
    for i, r in enumerate(rows):
        lines.append(
            r.rjust(row_width)
            + " | "
            + " | ".join(cell_text[(i, j)].rjust(col_widths[j]) for j in range(len(cols)))
        )
    return "\n".join(lines)


def _format_profiles(game: Game, profiles) -> str:
    if not profiles:
        return "none"
    return ", ".join(game.space.name_profile(p) for p in sorted(profiles))


def _sorted_pairs(game: Game, player: str, pairs):
    index = {name: i for i, name in enumerate(game.strategies[game.space.player_index(player)])}
    return sorted(pairs, key=lambda pair: (index[pair[0]], index[pair[1]], pair[2]))


def format_report(game: Game) -> str:
    analysis = report(game)
    lines = [f"players: {', '.join(game.players)}"]
    lines.append(f"pure Nash equilibria: {_format_profiles(game, analysis.pure_nash)}")
    lines.append("dominance:")
    for player in game.players:
        pairs = analysis.dominance[player]
        strict = {(s, t) for s, t, kind in pairs if kind == "strict"}
        phrases = []
        for s, t, kind in _sorted_pairs(game, player, pairs):
            if kind == "strict":
                phrases.append(f"{s} strictly dominates {t}")
            elif (s, t) not in strict:
                phrases.append(f"{s} weakly dominates {t}")
        lines.append(f"  {player}: " + ("; ".join(phrases) if phrases else "none"))
    total = analysis.constant_sum
    lines.append(f"constant sum: {_render_rational(total) if total is not None else 'none'}")
    lines.append(f"Pareto optimal: {_format_profiles(game, analysis.pareto_optimal)}")
    dominant = analysis.strictly_dominant_profile
    lines.append(
        "strictly dominant profile: "
        + (game.space.name_profile(dominant) if dominant is not None else "none")
    )
    return "\n".join(lines) + "\n"


def _json_report(game: Game) -> str:
    analysis = report(game)
    names = game.space.profile_names
    doc = {
        "players": list(game.players),
        "pure_nash": [list(names(p)) for p in sorted(analysis.pure_nash)],
        "dominance": {
            player: [
                {"dominator": s, "dominated": t, "kind": kind}
                for s, t, kind in _sorted_pairs(game, player, analysis.dominance[player])
            ]
            for player in game.players
        },
        "constant_sum": (
            _render_rational(analysis.constant_sum)
            if analysis.constant_sum is not None
            else None
        ),
        "pareto_optimal": [list(names(p)) for p in sorted(analysis.pareto_optimal)],
        "strictly_dominant_profile": (
            list(names(analysis.strictly_dominant_profile))
            if analysis.strictly_dominant_profile is not None
            else None
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def _read_text(path: str) -> bytes:
    # undecoded, so that _load_json reports bad UTF-8 as a parse error
    return Path(path).read_bytes()


def _read_game(path: str) -> Game:
    return parse_game(_read_text(path), source=path)


def _read_offers(path: str, space: StrategySpace, strict: bool) -> OfferSet:
    return parse_offers(_read_text(path), space, source=path, strict=strict)


def _profile_option(game: Game, text: str, option: str) -> Profile:
    names = text.split(",")
    try:
        return game.space.profile_from_names(names)
    except PreplayError as exc:
        raise ParseError("command line", option, str(exc)) from None


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_apply(args) -> int:
    game = _read_game(args.game)
    offers = _read_offers(args.offers, game.space, args.strict)
    _emit(args, serialize_game(apply_offer_set(game, offers)))
    return 0


def _cmd_check(args) -> int:
    source = _read_game(args.game)
    target = _read_game(args.target)
    verdict = check_equivalence(source, target)
    print(verdict.describe())
    return 0 if verdict.equivalent else 1


def _cmd_synth(args) -> int:
    source = _read_game(args.game)
    target = _read_game(args.target)
    try:
        result = synthesize_offers(source, target)
    except NotEquivalent as exc:
        print(exc.verdict.describe(), file=sys.stderr)
        return 1
    offers = result.offers
    if args.nonnegative:
        offers = nonnegative_decomposition(offers)
    _emit(args, serialize_offers(offers))
    return 0


def _cmd_complete(args) -> int:
    game = _read_game(args.game)
    assignments = parse_seed_assignments(_read_text(args.seed), game, source=args.seed)
    if args.base is not None:
        base = _profile_option(game, args.base, "--base")
    else:
        base = (0,) * game.shape.player_count
    completed = complete_from_seed(game, Seed(base, assignments))
    _emit(args, serialize_game(completed))
    return 0


def _cmd_invert(args) -> int:
    game = _read_game(args.game)
    offers = _read_offers(args.offers, game.space, args.strict)
    _emit(args, serialize_offers(invert_offer_set(offers)))
    return 0


def _cmd_dominate(args) -> int:
    game = _read_game(args.game)
    profile = _profile_option(game, args.profile, "--profile")
    try:
        margin = as_rational(args.margin)
    except ValueError:
        raise ParseError("command line", "--margin", f"not a rational: {args.margin!r}") from None
    _emit(args, serialize_offers(make_profile_dominant(game, profile, margin)))
    return 0


def _cmd_analyze(args) -> int:
    game = _read_game(args.game)
    sys.stdout.write(_json_report(game) if args.json else format_report(game))
    return 0


_PD_PAYOFFS = {
    ("C", "C"): ("4", "4"),
    ("C", "D"): ("0", "5"),
    ("D", "C"): ("5", "0"),
    ("D", "D"): ("1", "1"),
}


def _cmd_demo(args) -> int:
    game = make_game(("I", "II"), (("C", "D"), ("C", "D")), _PD_PAYOFFS)
    space = game.space
    steps = [
        ("M0 (the Prisoner's Dilemma)", None),
        ("M1 = M0 after the offer", Offer("I", "II", "C", Fraction(2))),
        ("M2 = M1 after the offer", Offer("II", "I", "C", Fraction(2))),
    ]
    out = ["Prisoner's Dilemma, transformed by two preplay offers", ""]
    for title, offer in steps:
        if offer is not None:
            out.append(f"offer: {offer.describe()}")
            game = apply_offer_set(game, OfferSet(space, (offer,)))
        out.append(f"{title}:")
        out.append(format_matrix(game))
        nash = _format_profiles(game, pure_nash(game))
        out.append(f"pure Nash equilibria: {nash}")
        out.append("")
    sys.stdout.write("\n".join(out))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeedSumViolation, NonpositiveMargin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotEquivalent as exc:
        print(exc.verdict.describe(), file=sys.stderr)
        return 1
    except PreplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # stderr already escapes what its encoding cannot take; let stdout do the
    # same, so a name outside a non-UTF-8 locale's charset never ends in a
    # traceback (a caller's redirected stdout may have no reconfigure)
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(run())
