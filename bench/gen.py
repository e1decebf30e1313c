"""Seeded request generators for the three workloads.

Nothing here imports preplay: inputs are built from the standard library and
the reference oracle, and preplay receives only the documents and values made
here.  A request is a pure function of (workload, seed, block, slot), so a
seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import oracle

# Hostile CLI input classes; every one of them must be rejected with exit 2.
HOSTILE_CLASSES = (
    "invalid_json",
    "wrong_arity",
    "unknown_names",
    "bad_rational",
    "huge_int",
    "deep_nesting",
    "huge_exponent",
)
SUBCOMMANDS = ("apply", "check", "synth", "complete", "invert", "dominate", "analyze", "demo")


@dataclass
class Request:
    kind: str
    counts: tuple
    data: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The request's class, e.g. ``synth:40x40``."""
        return f"{self.kind}:{'x'.join(map(str, self.counts))}"


def rng_for(*parts) -> random.Random:
    # str seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def block_order(layout, workload, seed, block):
    """The block's layout entries in a seeded order.  Every block holds the
    exact layout, so class shares never drift with the seed."""
    order = list(range(len(layout)))
    rng_for(workload, seed, block, "order").shuffle(order)
    return order


def occurrence(layout, slot):
    """How many earlier layout entries share this entry's class."""
    return sum(1 for entry in layout[:slot] if entry == layout[slot])


# ---------------------------------------------------------------------------
# games and offers as plain data


def frame(counts):
    players = tuple(f"P{i + 1}" for i in range(len(counts)))
    strategies = tuple(
        tuple(f"{'abcdefgh'[i]}{j + 1}" for j in range(count)) for i, count in enumerate(counts)
    )
    return players, strategies


def amount(rng, rational, low, high):
    den = rng.randint(2, 7) if rational else 1
    value = Fraction(0)
    while value == 0:
        value = Fraction(rng.randint(low, high), den)
    return value


def random_cells(rng, counts, rational):
    n = len(counts)
    if rational:
        return [
            tuple(Fraction(rng.randint(-40, 40), rng.randint(2, 7)) for _ in range(n))
            for _ in range(prod(counts))
        ]
    return [tuple(Fraction(rng.randint(-20, 20)) for _ in range(n)) for _ in range(prod(counts))]


def random_offers(rng, counts, k, rational, low=-9, high=9):
    offers = []
    for _ in range(k):
        payer, payee = rng.sample(range(len(counts)), 2)
        offers.append(
            (payer, payee, rng.randrange(counts[payee]), amount(rng, rational, low, high))
        )
    return offers


def perturb_one_cell(rng, cells, rational):
    """Change one outcome's payoffs, keeping its total: C1 still holds, C2
    fails, so the target becomes unreachable."""
    cells = list(cells)
    i = rng.randrange(len(cells))
    j, k = rng.sample(range(len(cells[i])), 2)
    delta = amount(rng, rational, 1, 5)
    cell = list(cells[i])
    cell[j] += delta
    cell[k] -= delta
    cells[i] = tuple(cell)
    return cells


def render(value):
    return value.numerator if value.denominator == 1 else str(value)


def nest(counts, cells, leaf):
    strides = [prod(counts[k + 1 :]) for k in range(len(counts))]

    def walk(axis, flat):
        if axis == len(counts):
            return leaf(flat)
        return [walk(axis + 1, flat + i * strides[axis]) for i in range(counts[axis])]

    return walk(0, 0)


def game_doc(counts, cells):
    players, strategies = frame(counts)
    doc = {
        "schema": 1,
        "players": list(players),
        "strategies": [list(r) for r in strategies],
        "payoffs": nest(counts, cells, lambda flat: [render(v) for v in cells[flat]]),
    }
    return json.dumps(doc)


def seed_doc(counts, cells, base):
    players, strategies = frame(counts)
    flat_of = {p: i for i, p in enumerate(oracle.profiles(counts))}
    on_star = {flat_of[p] for p in oracle.star(counts, base)}
    doc = {
        "schema": 1,
        "players": list(players),
        "strategies": [list(r) for r in strategies],
        "payoffs": nest(
            counts, cells, lambda flat: [render(v) for v in cells[flat]] if flat in on_star else None
        ),
    }
    return json.dumps(doc)


def offers_doc(counts, offers):
    players, strategies = frame(counts)
    doc = {
        "schema": 1,
        "offers": [
            {
                "payer": players[payer],
                "payee": players[payee],
                "strategy": strategies[payee][s],
                "amount": str(a),
            }
            for payer, payee, s, a in offers
        ],
    }
    return json.dumps(doc)


def names(counts, profile):
    _, strategies = frame(counts)
    return ",".join(strategies[k][i] for k, i in enumerate(profile))


def reachable_pair(rng, counts, rational):
    source = random_cells(rng, counts, rational)
    offers = random_offers(rng, counts, 3 * len(counts), rational)
    return source, oracle.apply_offers(counts, source, offers)


# ---------------------------------------------------------------------------
# reach: JSON documents for synthesis and completion


def reach_request(kind, counts, rng, rational):
    source, target = reachable_pair(rng, counts, rational)
    req = Request(kind, counts, {"source": source, "target": target})
    req.data["game_text"] = game_doc(counts, source)
    if kind == "complete":
        base = tuple(rng.randrange(c) for c in counts)
        req.data["base"] = base
        req.data["seed_text"] = seed_doc(counts, target, base)
    else:
        if kind == "unreachable":
            target = perturb_one_cell(rng, target, rational)
            req.data["target"] = target
        req.data["target_text"] = game_doc(counts, target)
    return req


# ---------------------------------------------------------------------------
# transform: raw cell tuples through the library API


def transform_request(counts, rng, rational, offers):
    """``offers`` (10-40) is the size of the first offer set."""
    cells = random_cells(rng, counts, rational)
    offers = random_offers(rng, counts, offers, rational)
    profile = tuple(rng.randrange(c) for c in counts)
    margin = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    raw = tuple(tuple(v if v.denominator != 1 else v.numerator for v in cell) for cell in cells)
    players, strategies = frame(counts)
    return Request(
        "transform",
        counts,
        {
            "players": players,
            "strategies": strategies,
            "raw": raw,
            "cells": cells,
            "offers": offers,
            "profile": profile,
            "margin": margin,
        },
    )


# ---------------------------------------------------------------------------
# cli: documents on disk plus an argv


DESK_SHAPES = ((2, 2), (3, 3), (4, 3), (5, 5), (6, 4), (8, 8), (10, 10), (3, 3, 3), (2, 2, 2, 2))


def cli_request(kind, rng, rational, files):
    """``kind`` is a subcommand or ``hostile:<class>``.  ``files`` maps a
    document name to the path it is written to."""
    if kind == "demo":
        return Request("demo", (), {"argv": ["demo", "pd"], "docs": {}})
    if kind.startswith("hostile:"):
        return hostile_request(kind.split(":", 1)[1], rng, rational, files)
    counts = rng.choice(DESK_SHAPES)
    req = Request(kind, counts)
    d = req.data
    source, target = reachable_pair(rng, counts, rational)
    d["source"] = source
    docs = {"game": game_doc(counts, source)}
    argv = [kind, files["game"]]
    if kind in ("apply", "invert"):
        d["offers"] = random_offers(rng, counts, rng.randint(1, 8), rational)
        docs["offers"] = offers_doc(counts, d["offers"])
        argv.append(files["offers"])
    elif kind in ("check", "synth"):
        d["reachable"] = kind == "synth" or rng.random() < 0.5
        if not d["reachable"]:
            target = perturb_one_cell(rng, target, rational)
        d["target"] = target
        docs["target"] = game_doc(counts, target)
        argv.append(files["target"])
        if kind == "synth" and rng.random() < 0.5:
            argv.append("--nonnegative")
    elif kind == "complete":
        base = tuple(rng.randrange(c) for c in counts)
        if rng.random() < 0.5:
            argv += ["--base", names(counts, base)]
        else:
            base = (0,) * len(counts)
        d["target"] = target
        docs["seed"] = seed_doc(counts, target, base)
        argv.append(files["seed"])
    elif kind == "dominate":
        d["profile"] = tuple(rng.randrange(c) for c in counts)
        d["margin"] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        argv += ["--profile", names(counts, d["profile"]), "--margin", str(d["margin"])]
    elif kind == "analyze":
        argv.append("--json")
    d["argv"] = argv
    d["docs"] = docs
    return req


def hostile_request(cls, rng, rational, files):
    """A valid request with one fixed mutation.  Mutations are never filtered:
    each must end in exit 2 with a one-line message."""
    counts = rng.choice(DESK_SHAPES[:7])
    source = random_cells(rng, counts, rational)
    doc = json.loads(game_doc(counts, source))
    argv = ["analyze", files["game"]]
    docs = {}

    def first_leaf(node):
        while isinstance(node[0], list):
            node = node[0]
        return node

    if cls == "invalid_json":
        text = json.dumps(doc)
        cut = rng.randrange(1, len(text) - 1)
        docs["game"] = text[:cut] + rng.choice(("", "}", ",", "]]", "{"))
    elif cls == "wrong_arity":
        leaf = first_leaf(doc["payoffs"])
        if rng.random() < 0.5:
            leaf.append(render(amount(rng, rational, -9, 9)))
        else:
            leaf.pop()
        docs["game"] = json.dumps(doc)
    elif cls == "unknown_names":
        mode = rng.choice(("offer", "profile", "base"))
        docs["game"] = json.dumps(doc)
        if mode == "offer":
            offers = random_offers(rng, counts, 3, rational)
            bad = json.loads(offers_doc(counts, offers))
            bad["offers"][rng.randrange(3)]["payer"] = "Nobody"
            docs["offers"] = json.dumps(bad)
            argv = [rng.choice(("apply", "invert")), files["game"], files["offers"]]
        elif mode == "profile":
            profile = names(counts, tuple(rng.randrange(c) for c in counts)).split(",")
            profile[rng.randrange(len(profile))] = "zz"
            argv = ["dominate", files["game"], "--profile", ",".join(profile)]
        else:
            docs["seed"] = seed_doc(counts, source, (0,) * len(counts))
            argv = ["complete", files["game"], files["seed"], "--base", "zz," * (len(counts) - 1) + "zz"]
    elif cls == "bad_rational":
        leaf = first_leaf(doc["payoffs"])
        leaf[rng.randrange(len(leaf))] = rng.choice(("1/0", "abc", "1.2.3", "", "--3", 0.5))
        docs["game"] = json.dumps(doc)
    elif cls == "huge_int":
        leaf = first_leaf(doc["payoffs"])
        leaf[0] = "@HUGE@"
        digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(4999))
        docs["game"] = json.dumps(doc).replace('"@HUGE@"', digits)
    elif cls == "deep_nesting":
        depth = 3000
        docs["game"] = json.dumps(doc).replace(
            '"payoffs": ', '"payoffs": ' + "[" * depth + "0" + "]" * depth + ", \"x\": "
        )
    elif cls == "huge_exponent":
        leaf = first_leaf(doc["payoffs"])
        leaf[0] = "1e10000000"
        docs["game"] = json.dumps(doc)
    else:
        raise ValueError(f"unknown hostile class {cls!r}")
    return Request(f"hostile:{cls}", counts, {"argv": argv, "docs": docs})

