"""Compare the benchmark's end-to-end metrics between a base revision and
the working tree, over alternating runs.

    python tools/ab.py --base REV --workload W --seed S --pairs N --seconds 25

The base is REV's ``src/``, extracted with ``git archive`` into a temporary
root; the change is the working tree's ``src/``, copied into another
without its bytecode caches, so both sides start from source alike.  Both
are measured by the working tree's ``bench/run.py``, run with each root as
its working directory (it imports ``preplay`` from ``./src``), in ABBA
order: base then change in even pairs, change then base in odd ones, so a
drift of the machine weighs on both sides alike.

For each end-to-end metric of ``BENCHMARK.json`` it prints both medians,
the base's quartiles, the change's wins out of N pairs, the relative change
(positive where the change is worse) against the metric's bound, and a
verdict:

- ``unresolved``: fewer than 3 pairs, or either side's interquartile range,
  relative to the base's median, is wider than the bound, so the runs
  cannot tell a change of the bound's size from noise;
- ``claimed``: the change is better in at least nine of ten pairs, and its
  median beats the base's by more than the base's interquartile range;
- ``worse than bound``: the change's median is worse by more than the bound;
- ``within bound``: none of these.

The last line is one JSON object with every number printed above and each
run's values.  Only the standard library and local git are used.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = REPO / "bench" / "run.py"
# fewer pairs than this leave the quartiles meaningless, so no verdict
MIN_PAIRS = 3
# the printed table's columns and their widths; the verdict follows them
COLUMNS = {
    "metric": 18, "base": 12, "change": 12, "base q1..q3": 24, "wins": 7, "worse": 9, "bound": 7
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of the values, by linear interpolation between
    order statistics (``statistics.quantiles``' inclusive method, which
    takes one value only from Python 3.13 on)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(change: float, base: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a fraction of ``base``:
    positive where the change is worse, negative where it is better."""
    sign = 1 if better == "lower" else -1
    if base == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, sign * change)
    # + 0.0 writes no change as 0, not -0
    return sign * (change - base) / abs(base) + 0.0


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The statistics and the verdict of one metric over paired runs:
    ``base[i]`` and ``change[i]`` are the two runs of pair i."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change run per pair, and at least one pair")
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = -1 if better == "higher" else 1
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    worse = relative(c_med, b_med, better)
    scale = abs(b_med) or 1.0
    spread = max(b_q3 - b_q1, c_q3 - c_q1) / scale
    gain = sign * (b_med - c_med)
    if len(base) < MIN_PAIRS or spread > bound:
        verdict = "unresolved"
    elif wins >= 0.9 * len(base) and gain > b_q3 - b_q1:
        verdict = "claimed"
    elif worse > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "base": b_med,
        "change": c_med,
        "base_q1": b_q1,
        "base_q3": b_q3,
        "wins": wins,
        "pairs": len(base),
        "worse": worse,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def line(cells, verdict: str) -> str:
    """One line of the printed table: the cells in ``COLUMNS``' widths, the
    metric's name aligned left and the numbers right, then the verdict."""
    (name, *numbers), (first, *widths) = cells, COLUMNS.values()
    right = "".join(f"{cell:>{width}}" for cell, width in zip(numbers, widths))
    return f"{name:<{first}}{right}  {verdict}"


def order(pairs: int) -> list[str]:
    """The sides in the order they run: ABBA, pair by pair."""
    return [side for i in range(pairs) for side in (("base", "change"), ("change", "base"))[i % 2]]


def extract(rev: str, root: Path) -> str:
    """Write ``rev``'s ``src/`` under ``root``; return the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src"], cwd=REPO, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it, which later ones require
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(root, **kwargs)
    return commit


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run from ``root``: its result line, parsed."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{done.stderr}")
    return json.loads([line for line in done.stdout.splitlines() if line.startswith("{")][-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, choices=("reach", "transform", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        roots = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        commit = extract(args.base, roots["base"])
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(REPO / "src", roots["change"] / "src", ignore=skip)
        for k, side in enumerate(order(args.pairs)):
            print(f"run {k + 1}/{2 * args.pairs}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_once(roots[side], args.workload, args.seed, args.seconds))

    rows = {}
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s")
    print(f"base {commit}")
    print(line(COLUMNS, "verdict"))
    for metric in metrics:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in runs["base"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        row = compare(base, change, metric["better"], metric["bound"])
        rows[name] = {**row, "base_runs": base, "change_runs": change}
        cells = (
            name,
            f"{row['base']:.5g}",
            f"{row['change']:.5g}",
            f"{row['base_q1']:.4g}..{row['base_q3']:.4g}",
            f"{row['wins']}/{row['pairs']}",
            f"{row['worse']:+.1%}",
            f"{row['bound']:.0%}",
        )
        print(line(cells, row["verdict"]))
    correct = all(run["correct"] and run["failed"] == 0 for side in runs.values() for run in side)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "pairs": args.pairs,
                "seconds": args.seconds,
                "base": commit,
                "correct": correct,
                "metrics": rows,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
