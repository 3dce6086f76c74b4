"""Query latency and throughput of branchpairs on three instance families.

    python3 bench/run.py --workload large_random --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --out bench/results/run.json

One query follows the library flow: `decide_good_pair`; on a yes
`construct_good_pair` then `verify_good_pair`, on a no `verify_certificate`;
the answer makes a JSON round trip between the two, as the CLI writes and
reads it.  Each instance arrives as edge-list text and is parsed once inside
the timed run.  One thread, closed loop.  Every answer is checked outside the
timed region; see README.md.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics, every time corrected for the machine's speed (speed.py); set-up
time and peak memory are measured in fresh child processes.
`--trace 1` reports per-layer calls, self times and outcome counts over a
fixed number of rounds, plus the tracing overhead against as many untraced
rounds, alternating with them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from check import certificate_problem, pair_problem  # noqa: E402
from spans import OVERHEAD, Tracer, metric_units  # noqa: E402
from speed import Ticker  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

SETUP_REPEATS = 11

# Rough wall time of one untraced round; fixes how many rounds a traced run
# covers, so that its counts depend only on --seed and --seconds.
ROUND_SECONDS = {"large_random": 1.5, "adversarial": 0.9, "small_sweep": 8.5}

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "decide_p50_ms": "ms",
    "construct_p50_ms": "ms",
    "verify_p50_ms": "ms",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}


class NoPackage(Exception):
    pass


def import_package():
    """Import the package from this checkout's source tree."""
    if not (SRC / "branchpairs" / "__init__.py").is_file():
        raise NoPackage(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("branchpairs")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise NoPackage(f"branchpairs was imported from {package.__file__}, not {SRC}")
    return package, importlib.import_module("branchpairs.io")


def child(*args: str, **kwargs) -> subprocess.Popen:
    """This script in a fresh interpreter, standard output piped."""
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *args],
                            stdout=subprocess.PIPE, text=True, **kwargs)


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over SETUP_REPEATS fresh processes, of the wall time from
    launching the interpreter until it has imported the package, drawn the
    first round and serialised it: what a run does before its first query.
    Each time is less the child's speed probes and corrected by their
    mean, as the query times are (speed.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with child("--workload", workload, "--seed", str(seed), "--probe", "setup") as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        word, *figures = line.split()
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        probes_s, factor = map(float, figures)
        times.append((elapsed - probes_s) * factor)
    return statistics.median(times)


def peak_memory_mb(workload: str, seed: int) -> float:
    """Peak resident set, in MB, of a fresh process that imports the package,
    reads the first round as edge-list texts and root pairs, and answers
    every query of it; the benchmark's own generators and checks are not in
    that process."""
    batch = next(rounds(workload, seed))
    with child("--workload", workload, "--probe", "memory", stdin=subprocess.PIPE) as proc:
        out, _ = proc.communicate(json.dumps([[text, inst.pairs] for inst, text in batch]))
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe exited {proc.returncode}")
    return float(out.strip().splitlines()[-1])


def probe(kind: str, workload: str, seed: int) -> int:
    """The child side of setup_seconds and peak_memory_mb."""
    if kind == "setup":
        with Ticker() as ticker:
            import_package()
            next(rounds(workload, seed))
        print("ready", ticker.spent, ticker.factor(0.0, ticker.now()), flush=True)
        return 0
    bp, bio = import_package()
    run = Run()
    for text, pairs in json.load(sys.stdin):
        digraph = bio.parse_digraph(text)
        for u, v in pairs:
            with contextlib.suppress(Exception):  # the timed run counts failures
                query(bp, bio, digraph, u, v, run)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


class Run:
    """Timings and tallies of one run.  A timing is a (start, end) pair of
    `clock` readings, so that it can be corrected for the machine's speed
    at that time (speed.py)."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.timed_s = 0.0
        self.parse: list[tuple[float, float]] = []
        self.query: list[tuple[float, float]] = []
        self.decide: list[tuple[float, float]] = []
        self.construct: list[tuple[float, float]] = []
        self.verify: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        # Failed queries other than a known fault: an answer a check rejects
        # or an unexpected error.  Any of these makes the run incorrect.
        self.wrong = 0


def query(bp, bio, digraph, u, v, run: Run):
    """One timed query; returns the answer as JSON data and the verifier's
    verdict on the round-tripped answer.  A query that raises still counts
    its time."""
    clock = run.clock
    t0 = clock()
    try:
        certificate = bp.decide_good_pair(digraph, u, v)
        t1 = clock()
        if certificate is None:
            pair = bp.construct_good_pair(digraph, u, v)
            t2 = clock()
            if not isinstance(pair, bp.GoodPair):
                raise RuntimeError(f"construct refused after decide said yes: {pair!r}")
            data = json.loads(json.dumps(bio.pair_to_dict(u, v, pair)))
            _, _, back = bio.pair_from_dict(data)
            t3 = clock()
            verdict = bp.verify_good_pair(digraph, u, v, back)
        else:
            t2 = t1
            data = json.loads(json.dumps(bio.certificate_to_dict(certificate)))
            back = bio.certificate_from_dict(data)
            t3 = clock()
            verdict = bp.verify_certificate(digraph, u, v, back)
    finally:
        t4 = clock()
        run.query.append((t0, t4))
        run.timed_s += t4 - t0
    run.decide.append((t0, t1))
    if certificate is None:
        run.construct.append((t1, t2))
        run.verify.append((t3, t4))
    return data, verdict


def answer_problem(inst, u, v, data, verdict, oracle_yes) -> str | None:
    """Why an answer is wrong, or None; see README.md for the checks."""
    ok, reason = verdict
    if not ok:
        return f"the package's own verifier rejects the answer: {reason}"
    if data["result"] == "yes":
        kind = "yes"
        problem = pair_problem(inst.n, inst.arcs, u, v, data)
    else:
        kind = data["certificate"]["kind"]
        problem = None
        if kind in ("root-misplaced", "cut-arc"):
            problem = certificate_problem(inst.n, inst.arcs, u, v, data["certificate"])
    if problem:
        return problem
    expected = inst.expect.get((u, v))
    if expected is not None and kind != expected:
        return f"planted answer is {expected}, got {kind}"
    if oracle_yes is not None and (kind == "yes") != oracle_yes:
        return f"oracle says {'yes' if oracle_yes else 'no'}, got {kind}"
    return None


def run_round(bp, bio, batch, run: Run, tracer: Tracer | None) -> None:
    quiet = tracer.paused if tracer else contextlib.nullcontext
    for inst, text in batch:
        t0 = run.clock()
        digraph = bio.parse_digraph(text)
        t1 = run.clock()
        run.parse.append((t0, t1))
        run.timed_s += t1 - t0
        oracle_targets = {}
        if inst.oracle:
            reference = bp.Digraph.from_arcs(inst.n, inst.arcs)
            with quiet():
                for u in {u for u, _ in inst.pairs}:
                    oracle_targets[u] = set(bp.oracle_good_pair_targets(reference, u))
        for u, v in inst.pairs:
            run.attempted += 1
            known = False
            try:
                data, verdict = query(bp, bio, digraph, u, v, run)
                oracle_yes = v in oracle_targets[u] if inst.oracle else None
                problem = answer_problem(inst, u, v, data, verdict, oracle_yes)
            except Exception as exc:  # the query failed; the run goes on
                problem = f"{type(exc).__name__}: {exc}"
                known = problem == inst.known_fault.get((u, v))
            if problem:
                run.failed += 1
                run.wrong += not known
                label = "KNOWN FAULT" if known else "FAILED"
                print(f"{label} {inst.family} n={inst.n} u={u} v={v}: {problem}", file=sys.stderr)
            elif tracer:
                kind = "yes" if data["result"] == "yes" else data["certificate"]["kind"]
                tracer.counts[f"goodpair.answer.{kind}"] += 1


def measure(bp, bio, source, seconds: float, n_rounds: int | None = None) -> tuple[Run, Ticker]:
    """Whole rounds from `source` until `n_rounds` are done or `seconds` of
    timed work have passed, with the machine's speed probed throughout;
    generating the next round is not timed."""
    with Ticker() as ticker:
        run = Run(ticker.now)
        for done, batch in enumerate(source, 1):
            run_round(bp, bio, batch, run, None)
            if done >= n_rounds if n_rounds else run.timed_s >= seconds:
                return run, ticker
    raise RuntimeError("the workload ran out of rounds")


def timed_seconds(run: Run, ticker: Ticker) -> float:
    """The run's parse and query time, corrected."""
    return sum(ticker.corrected(run.parse)) + sum(ticker.corrected(run.query))


def end_to_end(run: Run, ticker: Ticker, setup_s: float, memory_mb: float) -> dict[str, float]:
    """The end-to-end metrics, every time corrected for the machine's speed."""
    def p50_ms(intervals):
        return statistics.median(ticker.corrected(intervals)) * 1000.0

    return {
        "queries_per_s": len(run.query) / timed_seconds(run, ticker),
        "query_p50_ms": p50_ms(run.query),
        "decide_p50_ms": p50_ms(run.decide),
        "construct_p50_ms": p50_ms(run.construct),
        "verify_p50_ms": p50_ms(run.verify),
        "setup_s": setup_s,
        "peak_mem_mb": memory_mb,
    }


def raw_note(run: Run, ticker: Ticker) -> str:
    """The uncorrected figures, for the standard error stream."""
    def p50_ms(intervals):
        return statistics.median(end - start for start, end in intervals) * 1000.0

    return (f"uncorrected: {len(run.query) / run.timed_s:.4g} queries/s, query p50 "
            f"{p50_ms(run.query):.4g} ms, decide p50 {p50_ms(run.decide):.4g} ms; "
            f"{len(ticker.probes_ms)} speed probes, median "
            f"{statistics.median(ticker.probes_ms):.4g} ms")


def trace_rounds(workload: str, seconds: float) -> int:
    """Rounds of each half of a traced run (untraced and traced rounds
    alternate): together they take about `seconds`."""
    return max(1, math.floor(seconds / 2 / ROUND_SECONDS[workload]))


def result_line(runs: list[Run], values: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": all(run.wrong == 0 for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def run_workload(args) -> int:
    os.environ.pop("BRANCHPAIRS_NEXH", None)
    os.environ.pop("BRANCHPAIRS_SEARCH_BUDGET", None)
    try:
        bp, bio = import_package()
    except NoPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    source = rounds(args.workload, args.seed)
    if not args.trace:
        run, ticker = measure(bp, bio, source, args.seconds, args.rounds)
        print(raw_note(run, ticker), file=sys.stderr)
        values = end_to_end(run, ticker, setup_seconds(args.workload, args.seed),
                            peak_memory_mb(args.workload, args.seed))
        print(result_line([run], values, END_TO_END))
        return 0
    # Untraced and traced rounds alternate, for the overhead: rounds have the
    # same make-up and never repeat an instance, and alternating spreads the
    # machine's drift over both halves.  A first round is left out of the
    # comparison: it pays for the process's cold start, and small_sweep's
    # fixed instance meets the package's cache only from its second round.
    # Self times leave the speed probes out but are not corrected; the
    # overhead compares corrected times.
    n_rounds = args.rounds or trace_rounds(args.workload, args.seconds)
    with Ticker() as ticker:
        warm_up, plain, run = Run(ticker.now), Run(ticker.now), Run(ticker.now)
        tracer = Tracer(ticker.now)
        run_round(bp, bio, next(source), warm_up, None)
        for _ in range(n_rounds):
            run_round(bp, bio, next(source), plain, None)
            with tracer:
                run_round(bp, bio, next(source), run, tracer)
    values = tracer.metrics()
    per_query = [timed_seconds(r, ticker) / len(r.query) for r in (plain, run)]
    values[OVERHEAD] = (per_query[1] / per_query[0] - 1.0) * 100.0
    print(result_line([warm_up, plain, run], values, metric_units()))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; prints a
    table and writes the results to --out."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                print(f"error: {workload} --trace {trace} exited {child.returncode}", file=sys.stderr)
                return child.returncode or 1
            results.setdefault(workload, {})["traced" if trace else "untraced"] = json.loads(
                child.stdout.strip().splitlines()[-1]
            )
    for workload, both in results.items():
        plain = both["untraced"]
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']}")
        for name, metric in plain["metrics"].items():
            print(f"  {name:<18} {metric['value']:>12.4f} {metric['unit']}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results}, indent=1) + "\n")
    ok = all(r["correct"] for both in results.values() for r in both.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(b["untraced"]["attempted"] for b in results.values()),
                      "failed": sum(b["untraced"]["failed"] for b in results.values())}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds instead")
    parser.add_argument("--out", help="with --workload all: write the results here")
    parser.add_argument("--probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args.probe, args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
