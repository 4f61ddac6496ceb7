"""Run the benchmark in alternating pairs on two checkouts and compare them.

Pair i (from 0) runs ``perfbench/run.py --workload W --seed N+i --seconds S``
in each checkout, each in its own process. N is ``--first-seed`` (default 1),
so a claim can be checked again on seeds not used while writing the change.
Even pairs run the parent first, odd pairs the change first, so neither side
always meets a warmer or a busier machine. Each run prints one JSON line: pair,
side, seed, ``correct``, ``failed``, ``attempted``, the BLAS fields of the
benchmark's info line (``blas``, ``blas_threads`` as set, and
``blas_threads_reported`` as read after the run) and the end-to-end metrics.
The last line is the summary: per end-to-end metric of ``BENCHMARK.json``,
both sides' median and quartiles, the median and quartiles of change / parent
taken pair by pair (``change_over_parent``, as the two runs of a pair share
the machine's state; a pair without a value, or with a parent of 0, is left
out), the pairs in which the change was better and their number (a tie counts
for neither side), the verdicts ``claim_met`` and ``within_bound``, and per
side each run's ``correct``, ``failed`` and ``attempted`` operations, its BLAS
fields and its ``test_acc``, pair by pair, so the accuracies compare seed for
seed and both sides show the BLAS settings they ran with, and that the
program left the thread count as it found it.
With ``--bench PATH`` the same summary is also written to PATH as one JSON
object, with the arguments, every run, each side's machine as its first run's
benchmark info line gives it (nproc, BLAS name, version and threads, numpy,
Python) and each checkout's git commit before the first run, with ``dirty``
true when its tracked files differed from it (both null outside a git
checkout).
An unknown ``--workload``, a ``--seconds`` that is not positive or a negative
``--first-seed`` exits 2 before any run.

``claim_met``: the change won at least 9 of 10 pairs, and its median is better
than the parent's by more than the parent's q3 - q1. ``within_bound``: the
change's median is no worse than the parent's by more than the metric's
``BENCHMARK.json`` bound, as a fraction of the parent's median. Both are null
when a side has no value for the metric.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload text-train --pairs 8 --seconds 20 [--first-seed 11] \\
        [--bench BENCH_<n>.json]
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
BLAS_FIELDS = ("blas", "blas_threads", "blas_threads_reported")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process: its result line with its info line's BLAS fields, or
    ``correct: false`` with the error."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "attempted": None,
                **dict.fromkeys(BLAS_FIELDS), "metrics": {}, "machine": None,
                "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    result = json.loads(lines[-1])
    info = next((json.loads(line)["info"] for line in reversed(lines[:-1])
                 if line.startswith('{"info"')), {})
    machine = info.get("machine", {})
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            **{key: machine.get(key) for key in BLAS_FIELDS},
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "machine": machine}


def git_commit(checkout: Path) -> dict:
    """The checkout's commit, and whether its tracked files differ from it;
    both None outside a git checkout."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]) if values else [None] * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], workload: str, pairs: int) -> dict:
    """Per metric: median and quartiles per side and of change / parent pair by
    pair, the pairs the change won, and the verdicts ``claim_met`` and
    ``within_bound``."""
    by = {(r["pair"], r["side"]): r for r in runs}
    metrics = {}
    for spec in BENCHMARK["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        stats = {}
        for side in SIDES:
            values = [by[p, side]["metrics"][name] for p in range(pairs)
                      if name in by[p, side]["metrics"]]
            stats[side] = {**quartiles(values), "runs": len(values)}
        paired = [(p, *(by[p, side]["metrics"].get(name) for side in SIDES))
                  for p in range(pairs)]
        paired = [(p, a, b) for p, a, b in paired if a is not None and b is not None]
        better = [p for p, a, b in paired if (b < a if lower else b > a)]
        ratios = [b / a for _, a, b in paired if a != 0]
        parent, change = stats["parent"], stats["change"]
        claim_met = within_bound = None
        if parent["median"] is not None and change["median"] is not None:
            gain = (parent["median"] - change["median"]) * (1 if lower else -1)
            claim_met = bool(10 * len(better) >= 9 * pairs
                             and gain > parent["q3"] - parent["q1"])
            within_bound = bool(-gain <= spec["bound"] * abs(parent["median"]))
        metrics[name] = {"better": spec["better"], **stats,
                         "change_over_parent": {**quartiles(ratios), "pairs": len(ratios)},
                         "change_better_pairs": better,
                         "change_won": len(better), "claim_met": claim_met,
                         "within_bound": within_bound}
    return {"summary": {"workload": workload, "pairs": pairs, "metrics": metrics,
                        **{key: {side: [by[p, side].get(key) for p in range(pairs)]
                                 for side in SIDES}
                           for key in ("correct", "failed", "attempted", *BLAS_FIELDS)},
                        "test_acc": {side: [by[p, side]["metrics"].get("test_acc")
                                            for p in range(pairs)] for side in SIDES}}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--bench", type=Path, default=None,
                        help="also write the summary, the runs, the machine and the "
                             "commits here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not 0 < args.seconds < math.inf:  # nan fails both comparisons
        parser.error(f"--seconds must be positive and finite, got {args.seconds}")
    if args.first_seed < 0:
        parser.error(f"--first-seed must be at least 0, got {args.first_seed}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: git_commit(checkouts[side]) for side in SIDES}  # as the runs find them
    runs = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            run = {"pair": pair, "side": side, "seed": seed,
                   **run_once(checkouts[side], args.workload, seed, args.seconds)}
            print(json.dumps(run), flush=True)
            runs.append(run)
    summary = summarize(runs, args.workload, args.pairs)
    print(json.dumps(summary))
    if args.bench is not None:
        args.bench.write_text(json.dumps({
            "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
            "first_seed": args.first_seed,
            "commits": commits,
            "machine": {side: next((r["machine"] for r in runs
                                    if r["side"] == side and r["machine"]), None)
                        for side in SIDES},
            **summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
