#!/usr/bin/env python3
"""riq benchmark: closed-loop, single-client runs of one workload.

    python3 perfbench/run.py --workload subsume-random --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a checkout; the library is imported from ``src/``.
One client sends request i+1 only after request i's verdict returned.
Requests come from the seeded generators in ``workloads.py`` and reach the
library as text.  A run walks its workload's catalogue in whole passes
until ``--seconds`` of service time are spent; every answer goes through
the correctness gate in ``service.py``.

The CPU this runs on may be shared, and its speed then changes from second
to second and from minute to minute.  Every latency is therefore scaled to
a reference speed read just before and after the request, and every
0.1 s while it runs (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written under ``perfbench/out/``).  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an answer is wrong or the run is invalid, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SELF = str(Path(__file__).resolve())

WORKLOADS = ("subsume-random", "rbox-chain", "interp-define")
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: speed readings per pass at most, spread evenly over its requests
SPEED_READINGS = 25
#: Whole passes a run makes at least.  Each interp-define pass renames its
#: ontologies, so the model oracle enumerates their models afresh, and that
#: cost (about 1.3 s per ontology) lands on whichever goal of the pass comes
#: first.  Over one pass of 33 goals, verdict_p90_ms then depends on the
#: pass order: replaying measured latencies in 20 seeded orders gave a
#: spread (interquartile range over median) of 0.12 over one pass and 0.03
#: over two.
MIN_PASSES = {"interp-define": 2}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="service time the timed loop spends, rounded up to whole passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--goals", type=int, default=0,
                   help="run exactly this many requests instead of timing the loop")
    p.add_argument("--no-setup", action="store_true",
                   help="skip the set-up measurement (setup_s is not reported)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library() -> None:
    """Import riq from this checkout's sources, never from anywhere else."""
    if not (SRC / "riq" / "__init__.py").is_file():
        print(f"error: no riq sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import riq

    if Path(riq.__file__).resolve().parent != (SRC / "riq").resolve():
        print(f"error: imported riq from {riq.__file__}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in this (fresh) process: import the library, generate the
    first pass and parse every input of it once.  Seconds at the reference
    speed."""
    before = speed.reading()
    start = time.perf_counter()
    import_library()
    from riq import parser
    from workloads import CATALOGUES, GENERATORS

    for i in range(len(CATALOGUES[workload])):
        goal = GENERATORS[workload](seed, i)
        parser.parse_ontology(goal.ontology)
        if goal.ontology2:
            parser.parse_ontology(goal.ontology2)
        parser.parse_concept(goal.sub)
        if goal.sup:
            parser.parse_concept(goal.sup)
    seconds = time.perf_counter() - start
    return speed.scaled(seconds, (before, speed.reading()))


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, SELF, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What a closed-loop run keeps: one light record per request and the
    correctness gate's findings.  Answers are dropped once checked, so the
    benchmark's memory does not grow with the number of requests."""

    #: (gid, verdict, detail, seconds, index of the reading before it,
    #: readings taken while it ran)
    records: list = field(default_factory=list)
    wrong: list = field(default_factory=list)  # wrong answers, by the gate
    errors: list = field(default_factory=list)  # the known defect, see service.py
    failed: int = 0  # requests with a wrong answer or an error
    proved: dict = field(default_factory=dict)  # gid -> goal, left for the spot check
    readings: list = field(default_factory=list)  # speed readings, see speed.py
    passes: int = 0
    wall: float = 0.0
    gate_s: float = 0.0  # checking answers, inside the loop but not timed
    spot_s: float = 0.0

    @property
    def service(self) -> float:
        return sum(r[3] for r in self.records)

    def scaled(self) -> list[float]:
        """Each request's latency in seconds at the reference speed, from
        the speed readings just before and after it and those taken while it
        ran."""
        return [speed.scaled(dt, self.readings[k:k + 2] + list(inside))
                for _, _, _, dt, k, inside in self.records]


def closed_loop(workload: str, seed: int, seconds: float, goals: int,
                tracer=None, sample: bool = True) -> Run:
    """Send requests one at a time until ``seconds`` of service time are
    spent and the pass is complete, and at least the workload's
    ``MIN_PASSES`` passes are made (or exactly ``goals`` of them), checking
    each answer as it returns.  Generating a request and checking its answer
    are the client's work and are not timed.  With ``sample``, the speed is
    also read while long requests run (see ``speed.Sampler``); the readings'
    own time is taken out of the request's latency."""
    from service import check, serve_safely
    from workloads import CATALOGUES, GENERATORS

    generate = GENERATORS[workload]
    size = len(CATALOGUES[workload])
    least = size * MIN_PASSES.get(workload, 1)
    stride = max(1, size // SPEED_READINGS)
    serve = serve_safely if tracer is None else tracer.span("service.goal", serve_safely)
    sampler = speed.Sampler(speed.SAMPLE_S if sample else None)
    run = Run()
    first: dict[int, tuple[str, str]] = {}  # verdict of each goal's first pass
    clock = time.perf_counter
    start = clock()
    busy = 0.0
    i = 0
    while True:
        goal = generate(seed, i)
        if i % stride == 0:
            run.readings.append(speed.reading())
        if tracer is not None:
            tracer.goal, tracer.recording = i, True
        sampler.start()
        t0 = clock()
        answer = serve(goal)
        sampler.stop()
        dt = clock() - t0 - sampler.cost
        if tracer is not None:
            tracer.recording = False
        busy += dt
        run.records.append((goal.gid, answer.verdict, answer.detail, dt,
                            len(run.readings) - 1, tuple(sampler.readings)))
        label = f"goal {goal.gid} (request {i})"
        wrong = []
        why = check(goal, answer)
        if why is not None:
            wrong.append(f"{label}: {why}")
        if first.setdefault(goal.gid, (answer.verdict, answer.detail)) != \
                (answer.verdict, answer.detail):
            wrong.append(f"{label}: {answer.verdict} {answer.detail!r}, "
                         f"but {first[goal.gid]} on the first pass")
        run.wrong += wrong
        if answer.verdict == "error" and not wrong:
            run.errors.append(f"{label}: {answer.detail}")
        elif answer.verdict == "Proved" and goal.expect is None and not wrong:
            run.proved.setdefault(goal.gid, goal)
        run.failed += bool(wrong) or answer.verdict == "error"
        run.gate_s += clock() - t0 - dt - sampler.cost
        i += 1
        if goals and i >= goals or \
                not goals and busy >= seconds and i % size == 0 and i >= least:
            break
    run.readings.append(speed.reading())
    run.passes = -(-i // size)
    run.wall = clock() - start
    return run


def spot_check(run: Run) -> None:
    """Counter-model search on every proved goal whose answer is not known
    by construction, once per goal.  It runs after peak memory was read,
    because the oracle caches what it enumerates."""
    from service import oracle_disagrees

    start = time.perf_counter()
    for gid, goal in sorted(run.proved.items()):
        why = oracle_disagrees(goal)
        if why is not None:
            run.wrong.append(f"goal {gid}: {why}")
            run.failed += sum(1 for r in run.records if r[0] == gid)
    run.spot_s = time.perf_counter() - start


def verdict_digest(run: Run) -> str:
    h = hashlib.sha256()
    for gid, verdict, detail, *_ in run.records:
        h.update(f"{gid}:{verdict}:{detail}\n".encode())
    return h.hexdigest()[:16]


def time_limit_hits(run: Run) -> int:
    return sum(1 for _, verdict, detail, *_ in run.records
               if verdict in ("Unknown", "unknown") and "time limit" in detail)


# ---------------------------------------------------------------------------
# metrics and reports
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "goals_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, the i-th of n weighted by the mass that the Beta(p(n+1),
    (1-p)(n+1)) density puts on [(i-1)/n, i/n], found with the midpoint rule
    and normalised.  It averages the requests near the quantile instead of
    reading one or two, which matters where a run has few requests (see
    "Estimators" in README.md for the spreads it gave)."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0]
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1  # the density's exponents
    steps = 16  # midpoints per order statistic
    logs = [[a * math.log(x) + b * math.log1p(-x)
             for x in ((i + (j + 0.5) / steps) / n for j in range(steps))]
            for i in range(n)]
    top = max(map(max, logs))  # keeps exp() from underflowing
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(run: Run, setup_times, rss_mb: float) -> dict[str, float]:
    from service import DECIDED

    scaled = run.scaled()
    latencies = [dt * 1000.0 for dt in scaled]
    metrics = {
        "goals_per_s": len(scaled) / sum(scaled),
        "verdict_p50_ms": quantile(latencies, 0.5),
        "verdict_p90_ms": quantile(latencies, 0.9),
        "decided_share": sum(r[1] in DECIDED for r in run.records) / len(run.records),
        "peak_rss_mb": rss_mb,
    }
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(workload: str, seed: int, run: Run, metrics, units) -> None:
    n = len(run.records)
    print(f"== {workload}  seed {seed}  requests {n} ({run.passes} passes)"
          f"  service {run.service:.2f} s"
          f"  loop {run.wall:.2f} s  checks {run.gate_s:.2f} s"
          f"  spot check {run.spot_s:.2f} s ({len(run.proved)} goals)")
    inside = sum(len(r[5]) for r in run.records)
    print(f"  {len(run.readings)} speed readings between and {inside} during requests,"
          f" median {statistics.median(run.readings) * 1000:.3f} ms (reference"
          f" {speed.REFERENCE_S * 1000:g} ms); unscaled goals_per_s {n / run.service:.6g}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    verdicts = Counter(verdict + (f" ({detail})" if verdict in ("Unknown", "unknown")
                                  and detail else "")
                       for _, verdict, detail, *_ in run.records)
    print("  verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(verdicts.items())))
    print(f"  failed_share {run.failed / n:.4f} ({len(run.errors)} known-defect"
          f" errors, {len(run.wrong)} wrong answers, {n} requests)")
    for line in run.errors[:5] + run.wrong[:5]:
        print("    " + line)
    cuts = statistics.quantiles([dt * 1000.0 for dt in run.scaled()], n=10) if n > 1 else [0] * 9
    print(f"  sample quantiles (statistics.quantiles) p50 {cuts[4]:.6g} ms, p90 {cuts[8]:.6g} ms")
    print(f"  verdict digest {verdict_digest(run)} over {n} requests")


def result_line(run: Run, metrics, units) -> dict:
    hits = time_limit_hits(run)
    if hits:
        print(f"  INVALID RUN: {hits} verdicts decided by the time limit")
    return {
        "correct": not run.wrong and not hits,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_untraced(args) -> dict:
    import_library()
    setup_times = [] if args.no_setup else measure_setup(args.workload, args.seed)
    run = closed_loop(args.workload, args.seed, args.seconds, args.goals)
    rss = peak_rss_mb()
    spot_check(run)
    metrics = end_to_end(run, setup_times, rss)
    report(args.workload, args.seed, run, metrics, END_TO_END_UNITS)
    return result_line(run, metrics, END_TO_END_UNITS)


def run_traced(args) -> dict:
    """Half the time traced; then the same goals replay untraced in a fresh
    process, which gives the tracing overhead."""
    import_library()
    from layers import install, per_layer, print_layers
    from spans import Tracer

    tracer = Tracer()
    install(tracer)
    try:
        run = closed_loop(args.workload, args.seed, args.seconds / 2, args.goals, tracer,
                          sample=False)
    finally:
        tracer.uninstall()
    untraced = replay_untraced(args.workload, args.seed, len(run.records))
    spot_check(run)
    metrics, units = per_layer(tracer, run, untraced)
    report(args.workload, args.seed, run, metrics, units)
    print_layers(tracer, run)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_path)
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return result_line(run, metrics, units)


def replay_untraced(workload: str, seed: int, goals: int) -> float:
    """Scaled service seconds (see ``speed.py``) of the first ``goals``
    requests in a fresh untraced process."""
    proc = subprocess.run(
        [sys.executable, SELF, "--replay", "--workload", workload, "--seed", str(seed),
         "--goals", str(goals), "--no-setup", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> dict:
    """Each workload in its own process, so caches do not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, SELF, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.goals:
            cmd += ["--goals", str(args.goals)]
        if args.no_setup:
            cmd.append("--no-setup")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode or 1)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    if args.replay:
        import_library()
        run = closed_loop(args.workload, args.seed, 0, args.goals, sample=False)
        print(repr(sum(run.scaled())))
        return 0
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = run_traced(args)
    else:
        result = run_untraced(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
