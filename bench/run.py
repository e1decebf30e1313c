"""preplay benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py --workload reach --seed 0 --seconds 25 --trace 0

``--workload all`` runs reach, transform and cli in turn.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` repeats block 0 with spans
around every layer call and reports the per-layer metrics.  Every output is
checked against the reference oracle and, for seeds with a stored golden,
against the golden digest.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 5
MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

LAYER_EXTRAS = {
    "core.Game": {"cells_per_s": "1/s"},
    "offers.apply_offer_set": {"cell_updates": "count"},
    "characterize.check_equivalence": {"accept_ratio": "ratio", "cells_per_s": "1/s"},
    "synth.synthesize_offers": {"star_rows": "count", "pinned": "count"},
    "synth.nonnegative_decomposition": {"offers_out_per_in": "ratio"},
    "synth.make_profile_dominant": {},
    "complete.complete_from_seed": {"cells_per_s": "1/s"},
    "analyze.pure_nash": {},
    "analyze.dominance": {},
    "analyze.pareto_optimal": {},
    "cli.parse_game": {"bytes_per_s": "B/s"},
    "cli.parse_seed_assignments": {"bytes_per_s": "B/s"},
    "cli.serialize_game": {"bytes_per_s": "B/s"},
    "cli.serialize_offers": {"bytes_per_s": "B/s"},
}
LAYER_STATS = {"calls": "count", "busy_ms": "ms", "p50_ms": "ms", "errors": "count"}


def per_layer_units() -> dict:
    units = {}
    for layer, extras in LAYER_EXTRAS.items():
        for stat, unit in {**LAYER_STATS, **extras}.items():
            units[f"{layer}.{stat}"] = unit
    for sub in (*gen.SUBCOMMANDS, "reject"):
        units[f"cli.{sub}.p50_ms"] = "ms"
    units["cli.contract_violations"] = "count"
    units["cli.bare_interpreter_ms"] = "ms"
    units["out.max_bits"] = "bits"
    units["bench.self_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# serving one request


def _kernel_ms() -> float:
    t0 = time.perf_counter_ns()
    total = Fraction(0)
    seen = {}
    for i in range(1, 410):
        total += Fraction(i % 13 - 6, i % 7 + 1)
        seen[(i, i % 11)] = (total, i)
    return (time.perf_counter_ns() - t0) / 1e6


def _interpreter_ms(env) -> float:
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
    return (time.perf_counter_ns() - t0) / 1e6


class Clock:
    """Scales measured times to a reference speed.

    The VMs this benchmark was built on slow down by up to 2x for stretches
    of 5-30 s when neighbours load the host.  So each time is measured
    between two calibrations and scaled by the reference over their mean.
    ``kernel`` times a fixed stdlib kernel of Fraction, tuple and dict work,
    like the library's own: about 1 ms at full speed on a 2-vCPU Xeon VM.
    ``interpreter`` times a bare ``python3 -c pass``, about 50 ms there; it
    suits work done in fresh interpreters.  One calibration closes a
    measurement and opens the next.
    """

    REFERENCE_MS = {"kernel": 1.0, "interpreter": 50.0}

    def __init__(self, kind: str, env: dict):
        self.kind = kind
        self.env = env
        self.samples: list[float] = []  # raw calibration times, ms
        self._last = None

    def calibrate(self) -> float:
        if self.kind == "kernel":
            ms = statistics.median(_kernel_ms() for _ in range(3))
        else:
            ms = _interpreter_ms(self.env)
        self.samples.append(ms)
        self._last = ms
        return ms

    def start(self) -> float:
        return self._last if self._last is not None else self.calibrate()

    def scale(self, before: float) -> float:
        return self.REFERENCE_MS[self.kind] * 2 / (before + self.calibrate())


def serve(workload, req, clock, tracer=None):
    """Run one request; returns (latency_ns, Outcome, output), the latency
    scaled to reference speed.  Only ``execute`` is timed (as the request's
    "op" span when traced); the calibrations and the oracle check run outside
    it."""
    import workloads

    gc.collect()  # leave no garbage from generation or checks to this request
    before = clock.start()
    op = tracer.open("op") if tracer else None
    t0 = time.perf_counter_ns()
    try:
        out = workload.execute(req, traced=tracer is not None)
    except Exception as exc:  # the library failed the request
        out = None
        outcome = workloads.wrong(f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter_ns() - t0
    if op:
        tracer.close(op)
        if out is not None and workload.name == "cli":
            tracer.adopt(list(out.spans), op)
    scale = clock.scale(before)
    if out is None:
        return latency * scale, outcome, None
    try:
        outcome = workload.check(req, out)
    except Exception as exc:  # output the oracle cannot read
        outcome = workloads.wrong(f"unreadable output: {type(exc).__name__}: {exc}")
    if outcome.failure is None and latency > workloads.IN_PROCESS_DEADLINE_S * 1e9:
        outcome.failure = "timeout"
    # a deadline is wall-clock time, so a request cut off by it costs the
    # deadline as measured
    return (latency if outcome.failure == "timeout" else latency * scale), outcome, out


def probe(name: str, seed: int, env: dict, clock: Clock):
    """Seconds from spawning a fresh interpreter to the end of its first
    request, at reference speed, and the failure found by checking that
    request."""
    before = clock.start()
    t0 = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, "timeout"
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"probe failed: {proc.stderr.strip()[-300:]}"
    return (report["ready_ns"] - t0) / 1e9 * clock.scale(before), report["failure"]


class Tally:
    """Counts, latencies and digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.reasons: list[str] = []
        self.ok_ms: list[tuple[float, str]] = []
        self.total_ns = 0
        self.by_class: dict[str, list[int]] = {}
        self.bits = 0
        self.canons: list[str] = []

    def add(self, req, latency_ns, outcome, keep_canon=False):
        self.attempted += 1
        self.total_ns += latency_ns
        self.by_class.setdefault(req.label, []).append(latency_ns)
        if keep_canon:
            self.canons.append(outcome.canon if outcome.failure is None else "")
        if outcome.failure is None:
            self.ok_ms.append((latency_ns / 1e6, req.label))
            self.bits = max(self.bits, outcome.bits)
        else:
            self.fail(outcome.failure, f"{req.label}: {outcome.canon}")

    def fail(self, kind, reason):
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{kind} {reason}")

    def class_time_s(self) -> float:
        """Request time of the run, counting each request at its class's
        median latency.  Classes recur in every block, so this matches the
        summed latencies on a quiet machine but does not swing with a
        contended stretch of a shared one."""
        return sum(len(v) * statistics.median(v) for v in self.by_class.values()) / 1e9

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check_golden(self, name: str, seed: int) -> None:
        """Compare block 0's outputs with the stored golden digests; each
        mismatch among otherwise correct requests is a wrong output."""
        golden = json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))
        if golden is None:
            return
        got = [digest(c) for c in self.canons]
        for i, (a, b) in enumerate(zip(got, golden)):
            if a != b and self.canons[i]:
                self.fail("wrong", f"block 0 slot {i}: digest {a} differs from golden {b}")
        if len(got) != len(golden):
            self.fail("wrong", f"block 0 has {len(got)} requests, golden {len(golden)}")


# ---------------------------------------------------------------------------
# the end-to-end run


def timed_run(workload, seed, seconds, env):
    tally = Tally()
    setups = []
    probes = 0
    clock = Clock(workload.calibration, env)
    probe_clock = Clock("interpreter", env)

    def set_up():
        nonlocal probes
        probes += 1
        took, failure = probe(workload.name, seed, env, probe_clock)
        tally.attempted += 1
        if failure:
            kind = failure if failure in ("wrong", "contract", "timeout") else "wrong"
            tally.fail(kind, f"set-up: {failure}")
        if took is not None:
            setups.append(took)

    # probes are spread over the run, so a contended stretch of a shared
    # machine cannot skew all of them at once
    set_up()
    start = time.perf_counter()
    block = 0
    while (
        block == 0
        or tally.attempted - probes < MIN_REQUESTS
        or time.perf_counter() - start < seconds
    ):
        for slot in range(len(workload.layout)):
            req = workload.make(seed, block, slot)
            latency, outcome, _ = serve(workload, req, clock)
            tally.add(req, latency, outcome, keep_canon=block == 0)
        block += 1
        if probes < SETUP_PROBES:
            set_up()
    while probes < SETUP_PROBES:
        set_up()
    tally.check_golden(workload.name, seed)

    ok = sorted(ms for ms, _ in tally.ok_ms)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "throughput_ops_s": len(ok) / tally.class_time_s(),
        "latency_p50_ms": median(ok),
        "latency_p90_ms": statistics.quantiles(ok, n=10)[8] if len(ok) > 1 else 0.0,
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = [
        f"error_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f} "
        f"{tally.failures or ''}",
        f"latency samples {len(ok)} in {block} blocks; set-up probes {len(setups)}; "
        f"request time {tally.total_ns / 1e9:.2f} s",
        f"p50 class {percentile_class(tally.ok_ms, 0.5)}; p90 class {percentile_class(tally.ok_ms, 0.9)}",
        *tally.reasons,
    ]
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def percentile_class(samples, q, margin=0.04):
    """The class labels found within ``margin`` of rank ``q``: one label
    means the percentile sits inside one class."""
    ordered = [label for _, label in sorted(samples)]
    n = len(ordered)
    lo, hi = int((q - margin) * n), min(n - 1, int((q + margin) * n))
    return "/".join(sorted(set(ordered[lo : hi + 1])))


# ---------------------------------------------------------------------------
# the traced run


def traced_run(workload, seed, seconds, env):
    """Repeat block 0, serving each request once untraced and once traced.

    Per-layer numbers come from the traced copies; the untraced copies give
    the tracing overhead and the CLI per-subcommand latencies.  Counts are
    reported per pass over block 0, so they repeat exactly for a seed.
    """
    import spans

    tracer = spans.Tracer()
    tally = Tally()
    untraced_ns = traced_ns = 0
    by_kind: dict[str, list[float]] = {}
    contract = 0
    clock = Clock(workload.calibration, env)
    in_process = workload.name != "cli"
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for slot in range(len(workload.layout)):
            req = workload.make(seed, 0, slot)
            tracer.request = passes * len(workload.layout) + slot
            # alternate which copy goes first, so neither gains from order
            for traced in (slot % 2, 1 - slot % 2):
                if traced:
                    with spans.instrument(tracer) if in_process else contextlib.nullcontext():
                        latency, outcome, _ = serve(workload, req, clock, tracer)
                    traced_ns += latency
                    tally.add(req, latency, outcome)
                    continue
                latency, outcome, _ = serve(workload, req, clock)
                untraced_ns += latency
                tally.add(req, latency, outcome)
                if outcome.failure in ("contract", "timeout") and not in_process:
                    contract += 1
                key = "reject" if req.kind.startswith("hostile:") else req.kind
                by_kind.setdefault(key, []).append(latency / 1e6)
        passes += 1

    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"{workload.name}-seed{seed}.jsonl")

    metrics = layer_metrics(tracer.spans, passes)
    for sub in (*gen.SUBCOMMANDS, "reject"):
        metrics[f"cli.{sub}.p50_ms"] = median(by_kind.get(sub, [])) if not in_process else 0.0
    metrics["cli.contract_violations"] = contract / passes
    # the CLI's clock is calibrated by a bare interpreter between requests
    metrics["cli.bare_interpreter_ms"] = median(clock.samples) if not in_process else 0.0
    metrics["out.max_bits"] = tally.bits
    metrics["bench.self_ms"] = self_time_p50(tracer.spans)
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    units = per_layer_units()
    notes = [
        f"error_ratio {tally.failed}/{tally.attempted} {tally.failures or ''}",
        f"{passes} passes over block 0 ({len(workload.layout)} requests), {len(tracer.spans)} spans",
        *tally.reasons,
    ]
    return tally, {k: (metrics[k], units[k]) for k in units}, notes


def layer_metrics(all_spans, passes) -> dict:
    metrics = {}
    for layer, extras in LAYER_EXTRAS.items():
        mine = [s for s in all_spans if s.name == layer]
        ms = [s.ms for s in mine]
        busy_s = sum(ms) / 1e3

        def total(key):
            return sum(s.counts.get(key, 0) for s in mine)

        def rate(key):
            return total(key) / busy_s if busy_s else 0.0

        metrics[f"{layer}.calls"] = len(mine) / passes
        metrics[f"{layer}.busy_ms"] = sum(ms) / passes
        metrics[f"{layer}.p50_ms"] = median(ms)
        metrics[f"{layer}.errors"] = sum(s.error for s in mine) / passes
        for stat in extras:
            if stat == "cells_per_s":
                metrics[f"{layer}.{stat}"] = rate("cells")
            elif stat == "bytes_per_s":
                metrics[f"{layer}.{stat}"] = rate("bytes")
            elif stat == "accept_ratio":
                metrics[f"{layer}.{stat}"] = total("accepted") / len(mine) if mine else 0.0
            elif stat == "offers_out_per_in":
                metrics[f"{layer}.{stat}"] = (
                    total("offers_out") / total("offers_in") if total("offers_in") else 0.0
                )
            else:  # exact counts: cell_updates, star_rows, pinned
                metrics[f"{layer}.{stat}"] = total(stat) / passes
    return metrics


def self_time_p50(all_spans) -> float:
    """Median over requests of the op span minus its direct child spans."""
    children: dict[int, float] = {}
    for s in all_spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.ms
    return median([s.ms - children.get(s.id, 0.0) for s in all_spans if s.name == "op"])


# ---------------------------------------------------------------------------


def write_golden(workload, seeds, env) -> None:
    """Store block 0's output digests for the given seeds."""
    clock = Clock(workload.calibration, env)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for seed in seeds:
        digests = []
        for slot in range(len(workload.layout)):
            req = workload.make(seed, 0, slot)
            _, outcome, _ = serve(workload, req, clock)
            digests.append(digest(outcome.canon if outcome.failure is None else ""))
        golden.setdefault(workload.name, {})[str(seed)] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("reach", "transform", "cli", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden", type=int, nargs="*", metavar="SEED",
        help="store block 0's digests for these seeds instead of measuring",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "preplay" / "__init__.py").is_file():
        print(f"error: no preplay sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import preplay

    if Path(preplay.__file__).resolve().parent != (src / "preplay").resolve():
        print(f"error: preplay imported from {preplay.__file__}, not {src}", file=sys.stderr)
        return 2
    import os

    import workloads

    env = dict(os.environ, PYTHONPATH=str(src))
    # one client: keep it, its calibrations and its child processes on one
    # CPU, so the calibration sees the contention the request sees
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = workloads.WORKLOADS[name](ROOT)
        try:
            if args.write_golden is not None:
                write_golden(workload, args.write_golden or [args.seed], env)
                continue
            run = traced_run if args.trace else timed_run
            tally, metrics, notes = run(workload, args.seed, args.seconds, env)
        finally:
            workload.close()
        print(f"== {name} seed {args.seed} trace {args.trace}")
        for note in notes:
            print(f"  {note}")
        for key, (value, unit) in metrics.items():
            print(f"  {name} {key} {value:.6g} {unit}")
        print(
            json.dumps(
                {
                    "correct": tally.failures.get("wrong", 0) == 0,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
