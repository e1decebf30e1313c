"""Reference checks that do not use preplay.

Games here are plain data: ``counts`` (strategies per player) and ``cells``
(one tuple of Fractions per profile, row-major, last coordinate fastest).
Offers are ``(payer, payee, strategy, amount)`` index tuples.  Everything is
written the slow, obvious way, so that a fast path in the library can be
checked against it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product


def profiles(counts):
    return list(product(*(range(c) for c in counts)))


def star(counts, base):
    """The base profile, then every profile differing from it in one coordinate."""
    out = [tuple(base)]
    for k, count in enumerate(counts):
        for v in range(count):
            if v != base[k]:
                out.append(tuple(base[:k]) + (v,) + tuple(base[k + 1 :]))
    return out


def apply_offers(counts, cells, offers):
    """Per-cell application: at each profile where the payee plays the named
    strategy, the payer loses the amount and the payee gains it."""
    out = []
    for p, cell in zip(profiles(counts), cells):
        cell = list(cell)
        for payer, payee, strategy, amount in offers:
            if p[payee] == strategy:
                cell[payer] -= amount
                cell[payee] += amount
        out.append(tuple(cell))
    return out


def witness_falsifies(counts, source, target, kind, witness, player=None):
    """True when a reported violation really falsifies C1 or C2.

    C1 at (p,): the players' differences at p do not sum to zero.
    C2 at (p, p', q, q') for player j: p' and q' step the same axis of p and q
    up by one, and the two steps change j's difference by different amounts.
    """
    index = {p: i for i, p in enumerate(profiles(counts))}

    def diff(p):
        i = index[tuple(p)]
        return [t - s for s, t in zip(source[i], target[i])]

    if kind == "C1":
        return sum(diff(witness[0])) != 0
    p, p_step, q, q_step = (tuple(x) for x in witness)
    axes = [k for k in range(len(counts)) if p[k] != p_step[k]]
    if len(axes) != 1:
        return False
    k = axes[0]
    if p_step[k] != p[k] + 1 or q[k] != p[k] or q_step != q[:k] + (q[k] + 1,) + q[k + 1 :]:
        return False
    return diff(p_step)[player] - diff(p)[player] != diff(q_step)[player] - diff(q)[player]


def dominant_by_margin(counts, cells, profile, margin):
    """Every player's designated strategy beats each alternative by at least
    ``margin`` against every opposing profile."""
    index = {p: i for i, p in enumerate(profiles(counts))}
    for p, i in index.items():
        for k, designated in enumerate(profile):
            if p[k] == designated:
                continue
            q = p[:k] + (designated,) + p[k + 1 :]
            if cells[index[q]][k] - cells[i][k] < margin:
                return False
    return True


def pure_nash(counts, cells):
    index = {p: i for i, p in enumerate(profiles(counts))}
    found = set()
    for p, i in index.items():
        if all(
            cells[index[p[:k] + (t,) + p[k + 1 :]]][k] <= cells[i][k]
            for k in range(len(counts))
            for t in range(counts[k])
        ):
            found.add(p)
    return found


def _dominates(a, b):
    return a != b and all(x >= y for x, y in zip(a, b))


def _scaled(cells):
    """The cells over one common denominator, as integer tuples: comparisons
    between them agree with the Fraction comparisons and run faster."""
    scale = math.lcm(*(v.denominator for cell in cells for v in cell))
    return [tuple(v.numerator * (scale // v.denominator) for v in cell) for cell in cells]


def pareto(counts, cells):
    """Brute force: profiles no other profile strongly dominates."""
    cells = _scaled(cells)
    return {
        p
        for p, mine in zip(profiles(counts), cells)
        if not any(_dominates(other, mine) for other in cells)
    }


def pareto_confirms(counts, cells, claimed):
    """Check a claimed Pareto set in O(cells * |claimed|): every other profile
    is dominated by a claimed one (a finite strict order always has a maximal
    dominator), and no claimed profile is dominated.  A dominator has a
    larger payoff total, so only those are compared."""
    cells = _scaled(cells)
    index = {p: i for i, p in enumerate(profiles(counts))}
    best = [cells[index[p]] for p in claimed]
    for p, i in index.items():
        if p not in claimed and not any(_dominates(b, cells[i]) for b in best):
            return False
    by_total = sorted(cells, key=sum, reverse=True)
    for b in best:
        total = sum(b)
        for c in by_total:
            if sum(c) <= total:
                break
            if _dominates(c, b):
                return False
    return True


def constant_sum(cells):
    totals = {sum(cell, Fraction(0)) for cell in cells}
    return totals.pop() if len(totals) == 1 else None


def dominance_pairs(counts, cells, k):
    """(s, t, kind) index triples among player k's strategies, labelled as the
    library documents: "strict" pairs also appear as "weak"."""
    index = {p: i for i, p in enumerate(profiles(counts))}
    opposing = [p for p in index if p[k] == 0]
    pairs = set()
    for s in range(counts[k]):
        for t in range(counts[k]):
            if s == t:
                continue
            a = [cells[index[p[:k] + (s,) + p[k + 1 :]]][k] for p in opposing]
            b = [cells[index[p[:k] + (t,) + p[k + 1 :]]][k] for p in opposing]
            if all(x > y for x, y in zip(a, b)):
                pairs.add((s, t, "strict"))
            if all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b)):
                pairs.add((s, t, "weak"))
    return pairs


# ---------------------------------------------------------------------------
# reading documents the CLI writes


def rational(node):
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise ValueError(f"not a rational: {node!r}")
    return Fraction(node)


def read_game(text):
    """(players, strategies, counts, cells) from a game document."""
    doc = json.loads(text)
    players = tuple(doc["players"])
    strategies = tuple(tuple(row) for row in doc["strategies"])
    counts = tuple(len(row) for row in strategies)
    cells = []

    def walk(node, depth):
        if depth == len(counts):
            if len(node) != len(players):
                raise ValueError("payoff vector of the wrong length")
            cells.append(tuple(rational(v) for v in node))
            return
        if len(node) != counts[depth]:
            raise ValueError("payoff nesting of the wrong length")
        for child in node:
            walk(child, depth + 1)

    walk(doc["payoffs"], 0)
    return players, strategies, counts, cells


def read_offers(text, players, strategies):
    """Offer index tuples from an offer document."""
    offers = []
    for entry in json.loads(text)["offers"]:
        payer = players.index(entry["payer"])
        payee = players.index(entry["payee"])
        strategy = strategies[payee].index(entry["strategy"])
        offers.append((payer, payee, strategy, rational(entry["amount"])))
    return offers


def max_bits(values):
    """Largest numerator or denominator bit length among Fractions."""
    best = 0
    for v in values:
        best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best
