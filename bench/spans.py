"""Spans recorded around calls into preplay's layers, from outside the library.

``instrument`` wraps each layer function named in ``LAYERS`` wherever a
preplay module holds a reference to it, so calls between modules (synthesis
calling the reachability check, a transformation building a ``Game``) become
child spans too.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional


def _nbytes(text) -> int:
    return len(text) if isinstance(text, bytes) else len(text.encode("utf-8"))


def _star_rows(game) -> int:
    counts = [len(row) for row in game.strategies]
    return len(counts) * (1 + sum(c - 1 for c in counts))


def _cell_updates(game, offer_set) -> int:
    cells = len(game.payoffs)
    return sum(cells // len(game.strategies[game.players.index(o.payee)]) for o in offer_set)


# layer name -> counts(args, result), computed after the span has closed
LAYERS = {
    "core.Game": lambda args, game: {"cells": len(game.payoffs)},
    "offers.apply_offer_set": lambda args, out: {"cell_updates": _cell_updates(*args[:2])},
    "characterize.check_equivalence": lambda args, verdict: {
        "cells": len(args[0].payoffs),
        "accepted": int(verdict.equivalent),
    },
    "synth.synthesize_offers": lambda args, result: {
        "star_rows": _star_rows(args[0]),
        "pinned": len(result.pinned_variables),
    },
    "synth.nonnegative_decomposition": lambda args, out: {
        "offers_in": len(args[0]),
        "offers_out": len(out),
    },
    "synth.make_profile_dominant": None,
    "complete.complete_from_seed": lambda args, game: {"cells": len(args[0].payoffs)},
    "analyze.pure_nash": None,
    "analyze.dominance": None,
    "analyze.pareto_optimal": None,
    "cli.parse_game": lambda args, game: {"bytes": _nbytes(args[0])},
    "cli.parse_seed_assignments": lambda args, seed: {"bytes": _nbytes(args[0])},
    "cli.serialize_game": lambda args, text: {"bytes": _nbytes(text)},
    "cli.serialize_offers": lambda args, text: {"bytes": _nbytes(text)},
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    request: Optional[int]
    name: str
    start_ns: int
    end_ns: int = 0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.request: Optional[int] = None

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.request, name, time.perf_counter_ns())
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end_ns = time.perf_counter_ns()
        span.error = error
        self._open.pop()

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Add spans recorded in a child process under ``parent``.  The
        monotonic clock is shared between processes, so times line up."""
        offset = len(self.spans)
        for rec in records:
            rec = dict(rec)
            rec["id"] += offset
            rec["parent"] = parent.id if rec["parent"] is None else rec["parent"] + offset
            rec["request"] = parent.request
            self.spans.append(Span(**rec))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _traced(tracer: Tracer, name: str, fn, counter, expected):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except expected:
            tracer.close(span)
            raise
        except BaseException:
            tracer.close(span, error=True)
            raise
        tracer.close(span)
        if counter is not None:
            span.counts = counter(args, result)
        return result

    return call


def _traced_init(tracer: Tracer, init, counter):
    @functools.wraps(init)
    def call(self, *args, **kwargs):
        span = tracer.open("core.Game")
        try:
            init(self, *args, **kwargs)
        except BaseException:
            tracer.close(span, error=True)
            raise
        tracer.close(span)
        span.counts = counter(args, self)

    return call


@contextmanager
def instrument(tracer: Tracer):
    """Route every call into a layer through a span for the duration."""
    from preplay import core
    from preplay.errors import NotEquivalent

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "preplay"]
    saved = [(core.Game, "__init__", core.Game.__init__)]
    core.Game.__init__ = _traced_init(tracer, core.Game.__init__, LAYERS["core.Game"])
    try:
        for name, counter in LAYERS.items():
            if name == "core.Game":
                continue
            module, attr = name.split(".")
            original = getattr(sys.modules[f"preplay.{module}"], attr)
            # a rejected unreachable target is an answer, not a failed call
            wrapper = _traced(tracer, name, original, counter, NotEquivalent)
            for m in modules:
                if getattr(m, attr, None) is original:
                    saved.append((m, attr, original))
                    setattr(m, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
