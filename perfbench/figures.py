"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/figures.py inputs --seeds 1,2,3
        corpus make-up: records, split sizes, token lengths, vocabulary size
    python3 perfbench/figures.py spread --workload text-train --seeds 1,...,10
        median and quartile spread of each end-to-end metric over the seeds
    python3 perfbench/figures.py trace --workload attribute --seed 1
        self time per layer and tracing overhead (traced vs untraced run)
    python3 perfbench/figures.py phases --seeds 1,2,3
        time share of an architecture-9 repetition: rating towers, text
        tower, fusion head, evaluation (in this process, at the benchmark's
        budgets and BLAS threads)

Each run of the benchmark is a separate ``run.py`` process, one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def inputs(seeds: list[int]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np
    from pcbnet import data, experiment, text
    from workloads import FULL, SPLIT
    for seed in seeds:
        records = data.generate_synthetic(data.SyntheticGeneratorConfig(), seed)
        split = data.split_records(len(records), SPLIT, seed)
        vocab = experiment.build_vocab_for_split(records, split)
        lengths = np.array([len(text.tokenize(r.text)) for r in records])
        print(json.dumps({
            "seed": seed, "records": len(records),
            "split": [len(split.train), len(split.validation), len(split.test)],
            "tokens_mean": float(lengths.mean()), "tokens_min": int(lengths.min()),
            "tokens_max": int(lengths.max()),
            "share_over_256": float((lengths > 256).mean()), "vocab": len(vocab),
            "budgets": {k: getattr(FULL, k) for k in (
                "lr", "text_epochs", "fusion_text_epochs", "rating_epochs", "ig_steps")}}))


def phases(seeds: list[int]) -> None:
    import os
    from time import perf_counter
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from run import BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    from pcbnet import data, experiment
    from workloads import FULL, SPLIT, experiment_config

    train_single = experiment._train_single
    spent: dict[str, float] = {}

    def timed(model, *args, **kwargs):
        modalities = model.spec.input_modalities
        phase = ("fusion head" if model.components else
                 "text tower" if "Text" in modalities else "rating towers")
        start = perf_counter()
        try:
            return train_single(model, *args, **kwargs)
        finally:
            spent[phase] = spent.get(phase, 0.0) + perf_counter() - start

    experiment._train_single = timed
    for seed in seeds:
        records = data.generate_synthetic(data.SyntheticGeneratorConfig(), seed)
        split = data.split_records(len(records), SPLIT, seed)
        dataset = experiment.featurize(
            records, experiment.build_vocab_for_split(records, split), 256)
        cfg = experiment_config("rating-fusion", FULL, seed)
        spent.clear()
        start = perf_counter()
        experiment.run_repetition(records, dataset, split, cfg, 0)
        total = perf_counter() - start
        spent["evaluation and the rest"] = total - sum(spent.values())
        shares = ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in spent.items())
        print(f"rating-fusion seed {seed}: {total:.2f} s; {shares}")


def spread(workload: str, seeds: list[int], seconds: int) -> None:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        result, info = run(workload, seed, seconds, 0)
        print(json.dumps({"seed": seed, "attempted": result["attempted"],
                          "failed": result["failed"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{workload} {name}: median {statistics.median(vals):.6g} "
              f"IQR/median {(q3 - q1) / statistics.median(vals):.4f}")


def trace(workload: str, seed: int, seconds: int) -> None:
    plain, _ = run(workload, seed, seconds, 0)
    traced, info = run(workload, seed, seconds, 1)
    own = info["self_ms_per_request"]
    total = sum(own.values())
    for name, ms in own.items():
        print(f"{workload} {name:36s} {ms:10.2f} ms/request {100 * ms / total:6.1f}%")
    base = plain["metrics"]["request_ms_p50"]["value"]
    with_spans = traced["metrics"]["trace.request_ms_p50"]["value"]
    print(f"{workload} tracing overhead: {base:.1f} -> {with_spans:.1f} ms/request "
          f"({100 * (with_spans / base - 1):+.1f}%)")
    if "relative_gap" in info:
        print(f"{workload} relative completeness gap: {json.dumps(info['relative_gap'])}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figure", choices=("inputs", "spread", "trace", "phases"))
    parser.add_argument("--workload", default="text-train")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.figure == "inputs":
        inputs(seeds)
    elif args.figure == "phases":
        phases(seeds)
    elif args.figure == "spread":
        spread(args.workload, seeds, args.seconds)
    else:
        trace(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
