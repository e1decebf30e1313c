"""The three workloads: how a request runs, and how its output is checked.

Each workload serves a stream of blocks.  A block holds every entry of the
workload's ``layout`` exactly once, in a seeded order, so class shares are
exact and p50/p90 land in the class the layout puts them in.  ``execute``
is the only code inside the timed region; ``check`` verifies the output
against the reference oracle afterwards and returns the canonical text that
feeds the golden digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gen
import oracle
import preplay
import preplay.cli

P = preplay
C = preplay.cli
BENCH_DIR = Path(__file__).resolve().parent

# a request that runs longer than this counts as a timeout
IN_PROCESS_DEADLINE_S = 60.0
CLI_DEADLINE_S = 2.0


@dataclass
class Outcome:
    failure: Optional[str] = None  # None, "wrong", "contract" or "timeout"
    canon: str = ""  # canonical output text for the digest
    bits: int = 0  # largest numerator/denominator bit length in the output


def wrong(reason: str) -> Outcome:
    return Outcome("wrong", reason)


def canon(value) -> str:
    """Order-independent text for library results."""
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(canon(v) for v in value)) + "}"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{canon(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    if isinstance(value, P.Offer):
        return f"{value.payer}>{value.payee}/{value.payee_strategy}={value.amount}"
    return str(value)


def cells_bits(cells) -> int:
    return max((oracle.max_bits(cell) for cell in cells), default=0)


class Workload:
    name = ""
    layout: tuple = ()
    calibration = "kernel"  # how run.Clock measures the machine's speed

    def __init__(self, root: Path):
        self.root = root

    def make(self, seed: int, block: int, slot: int) -> gen.Request:
        order = gen.block_order(self.layout, self.name, seed, block)
        entry = order[slot]
        occurrence = gen.occurrence(self.layout, entry)
        rational = (occurrence + block) % 2 == 1
        # a point spread evenly over [0, 1) across the class's occurrences and
        # blocks, for request sizes that should cover their range evenly
        spread = ((occurrence + 0.5) / self.layout.count(self.layout[entry]) + 0.618 * block) % 1
        rng = gen.rng_for(self.name, seed, block, slot)
        return self.build(self.layout[entry], rng, rational, spread)

    def setup_request(self, seed: int) -> gen.Request:
        raise NotImplementedError

    def build(self, entry, rng, rational, spread) -> gen.Request:
        raise NotImplementedError

    def execute(self, req: gen.Request, traced: bool = False):
        raise NotImplementedError

    def execute_inline(self, req: gen.Request):
        """Run the request in this process (the set-up probe's path)."""
        return self.execute(req)

    def check(self, req: gen.Request, out) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Reach(Workload):
    """JSON text in, JSON text out, through the functions the subcommands call."""

    name = "reach"
    # One block, grouped by latency.  p50 sits in the middle of the
    # complete:20x20 group and p90 in the middle of the synth:20x20 group;
    # see README.md.
    layout = (
        *[("unreachable", (10, 10))] * 3,
        *[("unreachable", (3, 3, 3, 3))] * 3,
        *[("unreachable", (6, 6, 6))] * 2,
        *[("complete", (10, 10))] * 3,
        *[("complete", (3, 3, 3, 3))] * 3,
        *[("complete", (20, 20))] * 23,
        *[("unreachable", (40, 40))] * 2,
        ("complete", (5, 5, 5, 5)),
        ("complete", (40, 40)),
        ("synth", (6, 6, 6)),
        *[("synth", (20, 20))] * 6,
        ("synth", (12, 12, 12)),
        ("synth", (40, 40)),
    )

    def setup_request(self, seed):
        return gen.reach_request("synth", (10, 10), gen.rng_for(self.name, seed, "setup"), False)

    def build(self, entry, rng, rational, spread):
        kind, counts = entry
        return gen.reach_request(kind, counts, rng, rational)

    def execute(self, req, traced=False):
        d = req.data
        if req.kind == "complete":
            game = C.parse_game(d["game_text"])
            assignments = C.parse_seed_assignments(d["seed_text"], game)
            return C.serialize_game(P.complete_from_seed(game, P.Seed(d["base"], assignments)))
        source = C.parse_game(d["game_text"])
        target = C.parse_game(d["target_text"])
        verdict = P.check_equivalence(source, target)
        try:
            result = P.synthesize_offers(source, target)
        except P.NotEquivalent as exc:
            v = exc.verdict.violation
            witness = {
                "kind": v.kind,
                "profiles": [list(p) for p in v.profiles],
                "player": v.player,
                "axis": v.axis,
            }
            return verdict.describe(), exc.verdict.describe(), json.dumps(witness)
        nonneg = P.nonnegative_decomposition(result.offers)
        return verdict.describe(), C.serialize_offers(result.offers), C.serialize_offers(nonneg)

    def check(self, req, out):
        d, counts = req.data, req.counts
        players, strategies = gen.frame(counts)
        if req.kind == "complete":
            got = oracle.read_game(out)
            if got != (players, strategies, counts, d["target"]):
                return wrong("completion differs from the generating target")
            return Outcome(None, out, cells_bits(got[3]))
        checked, second, third = out
        if req.kind == "unreachable":
            w = json.loads(third)
            if not checked.startswith("NOT-EQUIVALENT") or checked != second:
                return wrong("unreachable target accepted, or verdicts disagree")
            player = players.index(w["player"]) if w["player"] is not None else None
            if not oracle.witness_falsifies(
                counts, d["source"], d["target"], w["kind"], w["profiles"], player
            ):
                return wrong("reported witness does not falsify C1/C2")
            return Outcome(None, "\n".join(out))
        if checked != "EQUIVALENT":
            return wrong("reachable target rejected")
        bits = 0
        for text, nonnegative in ((second, False), (third, True)):
            offers = oracle.read_offers(text, players, strategies)
            if nonnegative and any(a < 0 for *_, a in offers):
                return wrong("nonnegative decomposition has a negative amount")
            if oracle.apply_offers(counts, d["source"], offers) != d["target"]:
                return wrong("offers do not reproduce the target")
            bits = max(bits, oracle.max_bits(a for *_, a in offers))
        return Outcome(None, "\n".join(out), bits)


# ---------------------------------------------------------------------------


class Transform(Workload):
    """Library API on raw cell tuples: build, apply, dominate, apply, analyze."""

    name = "transform"
    # One block, grouped by latency: p50 sits inside the 3^4 group and p90
    # in the middle of the 5^4 group; see README.md.
    layout = (
        *[(3, 3, 3, 3)] * 37,
        *[(6, 6, 6)] * 2,
        *[(20, 20)] * 2,
        *[(5, 5, 5, 5)] * 8,
        (12, 12, 12),
    )

    def setup_request(self, seed):
        return gen.transform_request((3, 3, 3, 3), gen.rng_for(self.name, seed, "setup"), False, 25)

    def build(self, counts, rng, rational, spread):
        return gen.transform_request(counts, rng, rational, offers=10 + round(30 * spread))

    def execute(self, req, traced=False):
        d = req.data
        players, strategies = d["players"], d["strategies"]
        game = P.Game(players, strategies, d["raw"])
        offers = P.OfferSet(
            game.space,
            tuple(
                P.Offer(players[a], players[b], strategies[b][s], amount)
                for a, b, s, amount in d["offers"]
            ),
        )
        moved = P.apply_offer_set(game, offers)
        dominating = P.make_profile_dominant(moved, d["profile"], d["margin"])
        final = P.apply_offer_set(moved, dominating)
        return (
            moved.payoffs,
            tuple(dominating),
            final.payoffs,
            P.pure_nash(final),
            {player: P.dominance(final, player) for player in players},
            P.constant_sum(final),
            P.pareto_optimal(final),
            P.strictly_dominant_profile(final),
        )

    def check(self, req, out):
        d, counts = req.data, req.counts
        moved, dominating, final, nash, dominance, total, pareto, dominant = out
        players, strategies = d["players"], d["strategies"]
        expected = oracle.apply_offers(counts, d["cells"], d["offers"])
        if list(moved) != expected:
            return wrong("offer application differs from the oracle")
        offers = [
            (players.index(o.payer), players.index(o.payee),
             strategies[players.index(o.payee)].index(o.payee_strategy), o.amount)
            for o in dominating
        ]
        if any(a < 0 for *_, a in offers):
            return wrong("dominance offer with a negative amount")
        expected = oracle.apply_offers(counts, expected, offers)
        if list(final) != expected:
            return wrong("dominance offers applied differently from the oracle")
        profile = d["profile"]
        if not oracle.dominant_by_margin(counts, expected, profile, d["margin"]):
            return wrong("profile is not strictly dominant by the margin")
        if nash != {profile} or dominant != profile:
            return wrong("profile is not the unique Nash equilibrium and dominant profile")
        for k, player in enumerate(players):
            names = strategies[k]
            want = {(names[s], names[t], kind) for s, t, kind in oracle.dominance_pairs(counts, expected, k)}
            if dominance[player] != want:
                return wrong(f"dominance pairs for {player} differ from the oracle")
        if total != oracle.constant_sum(expected):
            return wrong("constant-sum verdict differs from the oracle")
        if not oracle.pareto_confirms(counts, expected, set(pareto)):
            return wrong("Pareto set is wrong")
        bits = max(cells_bits(moved), cells_bits(final), oracle.max_bits(a for *_, a in offers))
        return Outcome(None, canon(out), bits)


# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: Optional[int]
    stdout: str
    stderr: str
    timed_out: bool = False
    spans: tuple = ()


_C1 = re.compile(r"C1 at \(([\d,]+)\)$")
_C2 = re.compile(r"C2 at \(([\d,]+)\)->\(([\d,]+)\) vs \(([\d,]+)\)->\(([\d,]+)\) \(player (\S+)\)$")
_BOOT = "from preplay.cli import main; main()"


def _profile(text):
    return tuple(int(i) - 1 for i in text.split(","))


class Cli(Workload):
    """One subprocess per request, entering ``preplay.cli:main``."""

    name = "cli"
    calibration = "interpreter"
    # 7 requests of each subcommand and one of each hostile class: 11% hostile
    layout = (*[s for s in gen.SUBCOMMANDS for _ in range(7)], *[f"hostile:{h}" for h in gen.HOSTILE_CLASSES])

    def __init__(self, root):
        super().__init__(root)
        self.work = root / ".bench_work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.files = {name: str(self.work / f"{name}.json") for name in ("game", "target", "offers", "seed")}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def close(self):
        for path in self.work.iterdir():
            path.unlink()
        self.work.rmdir()
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def setup_request(self, seed):
        return self._written(gen.cli_request("check", gen.rng_for(self.name, seed, "setup"), False, self.files))

    def build(self, kind, rng, rational, spread):
        return self._written(gen.cli_request(kind, rng, rational, self.files))

    def _written(self, req):
        for name, text in req.data["docs"].items():
            Path(self.files[name]).write_text(text, encoding="utf-8")
        return req

    def execute(self, req, traced=False):
        if traced:
            spans_path = self.work / "spans.jsonl"
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), *req.data["argv"]]
            env = dict(self.env, BENCH_SPANS=str(spans_path))
        else:
            argv = [sys.executable, "-c", _BOOT, *req.data["argv"]]
            env = self.env
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=self.root, text=True
        )
        try:
            out, err = proc.communicate(timeout=CLI_DEADLINE_S)
            result = CliResult(proc.returncode, out, err)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            result = CliResult(None, out, err, timed_out=True)
        if traced and spans_path.exists():
            with open(spans_path, encoding="utf-8") as f:
                result.spans = tuple(json.loads(line) for line in f)
            spans_path.unlink()
        return result

    def execute_inline(self, req):
        out, err = io.StringIO(), io.StringIO()
        sys.argv = ["preplay", *req.data["argv"]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                C.main()
                code = 0
            except SystemExit as exc:
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    def check(self, req, res):
        if res.timed_out:
            return Outcome("timeout")
        err_lines = res.stderr.strip("\n").split("\n") if res.stderr.strip() else []
        broken = "Traceback" in res.stderr or len(err_lines) > 1 or res.code not in (0, 1, 2)
        if req.kind.startswith("hostile:"):
            if broken or res.code != 2 or not err_lines or res.stdout:
                return Outcome("contract")
            return Outcome(None)
        if broken:
            return Outcome("contract")
        kind = req.kind
        try:
            outcome = getattr(self, f"_check_{kind}")(req, res)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return wrong(f"{kind}: unreadable output ({exc})")
        if outcome.failure is None:
            outcome.canon = f"{kind} {res.code}\n{res.stdout}{res.stderr}"
        return outcome

    # per-subcommand checks; each returns an Outcome
    def _game_out(self, req, res, cells):
        players, strategies = gen.frame(req.counts)
        if res.code != 0 or oracle.read_game(res.stdout) != (players, strategies, req.counts, cells):
            return wrong(f"{req.kind}: game differs from the oracle")
        return Outcome(None, bits=cells_bits(cells))

    def _offers_out(self, req, res):
        players, strategies = gen.frame(req.counts)
        return oracle.read_offers(res.stdout, players, strategies)

    def _check_apply(self, req, res):
        d = req.data
        return self._game_out(req, res, oracle.apply_offers(req.counts, d["source"], d["offers"]))

    def _check_complete(self, req, res):
        return self._game_out(req, res, req.data["target"])

    def _check_check(self, req, res):
        d = req.data
        text = res.stdout.strip()
        if d["reachable"]:
            ok = res.code == 0 and text == "EQUIVALENT"
        else:
            ok = res.code == 1 and text.startswith("NOT-EQUIVALENT: ") and self._witness_holds(req, text)
        return Outcome(None) if ok else wrong("check: wrong verdict or witness")

    def _witness_holds(self, req, text):
        players, _ = gen.frame(req.counts)
        d = req.data
        body = text[len("NOT-EQUIVALENT: "):]
        m = _C1.match(body)
        if m:
            return oracle.witness_falsifies(req.counts, d["source"], d["target"], "C1", [_profile(m[1])])
        m = _C2.match(body)
        return bool(m) and oracle.witness_falsifies(
            req.counts, d["source"], d["target"], "C2",
            [_profile(m[i]) for i in range(1, 5)], players.index(m[5]),
        )

    def _check_synth(self, req, res):
        offers = self._offers_out(req, res)
        if res.code != 0 or oracle.apply_offers(req.counts, req.data["source"], offers) != req.data["target"]:
            return wrong("synth: offers do not reproduce the target")
        if "--nonnegative" in req.data["argv"] and any(a < 0 for *_, a in offers):
            return wrong("synth: negative amount under --nonnegative")
        return Outcome(None, bits=oracle.max_bits(a for *_, a in offers))

    def _check_invert(self, req, res):
        d = req.data
        undo = self._offers_out(req, res)
        moved = oracle.apply_offers(req.counts, d["source"], d["offers"])
        if res.code != 0 or oracle.apply_offers(req.counts, moved, undo) != d["source"]:
            return wrong("invert: inverse does not undo the offers")
        return Outcome(None, bits=oracle.max_bits(a for *_, a in undo))

    def _check_dominate(self, req, res):
        d = req.data
        offers = self._offers_out(req, res)
        final = oracle.apply_offers(req.counts, d["source"], offers)
        if (
            res.code != 0
            or any(a < 0 for *_, a in offers)
            or not oracle.dominant_by_margin(req.counts, final, d["profile"], d["margin"])
        ):
            return wrong("dominate: profile not strictly dominant by the margin")
        return Outcome(None, bits=oracle.max_bits(a for *_, a in offers))

    def _check_analyze(self, req, res):
        counts, cells = req.counts, req.data["source"]
        players, strategies = gen.frame(counts)
        doc = json.loads(res.stdout)

        def named(profiles):
            return sorted([strategies[k][i] for k, i in enumerate(p)] for p in profiles)

        pairs = {
            player: sorted(
                (strategies[k][s], strategies[k][t], kind)
                for s, t, kind in oracle.dominance_pairs(counts, cells, k)
            )
            for k, player in enumerate(players)
        }
        winners = []
        for k in range(len(counts)):
            strict = {(s, t) for s, t, kind in oracle.dominance_pairs(counts, cells, k) if kind == "strict"}
            won = [s for s in range(counts[k]) if all((s, t) in strict for t in range(counts[k]) if t != s)]
            winners.append(won[0] if len(won) == 1 else None)
        dominant = None if None in winners else [strategies[k][i] for k, i in enumerate(winners)]
        total = oracle.constant_sum(cells)
        got_pairs = {
            player: sorted((e["dominator"], e["dominated"], e["kind"]) for e in entries)
            for player, entries in doc["dominance"].items()
        }
        ok = (
            res.code == 0
            and sorted(doc["pure_nash"]) == named(oracle.pure_nash(counts, cells))
            and sorted(doc["pareto_optimal"]) == named(oracle.pareto(counts, cells))
            and doc["constant_sum"] == (None if total is None else str(total))
            and doc["strictly_dominant_profile"] == dominant
            and got_pairs == pairs
        )
        return Outcome(None) if ok else wrong("analyze: report differs from the oracle")

    def _check_demo(self, req, res):
        lines = [l for l in res.stdout.splitlines() if l.startswith("pure Nash equilibria:")]
        expected = ["pure Nash equilibria: (D,D)", "pure Nash equilibria: (D,C)", "pure Nash equilibria: (C,C)"]
        return Outcome(None) if res.code == 0 and lines == expected else wrong("demo: wrong walkthrough")


WORKLOADS = {w.name: w for w in (Reach, Transform, Cli)}

