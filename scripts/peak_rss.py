"""Print the process's peak and current RSS after each set-up phase.

Runs the benchmark's text-train set-up in one process, taking its corpus,
split and configuration from ``perfbench/workloads.py``: imports, generate,
write, ingest, vocab, featurize, then one repetition. After each phase it
prints one JSON line: the phase, its wall time, ``ru_maxrss`` (the
high-water mark so far) and the current RSS, both in MB. The last phase whose ``maxrss_mb`` rises is the one that sets
the peak.

    python3 scripts/peak_rss.py --records 1400 --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pcbnet import data, experiment  # noqa: E402
from workloads import FULL, SPLIT, experiment_config  # noqa: E402


def current_rss_mb() -> float | None:
    """Resident set size now, from /proc/self/statm; None where there is none."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * resource.getpagesize() / 2**20


def report(phase: str, start: float) -> float:
    print(json.dumps({
        "phase": phase,
        "seconds": round(time.perf_counter() - start, 4),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_mb": current_rss_mb(),
    }), flush=True)
    return time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=FULL.records)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    scale = replace(FULL, records=args.records)
    cfg = experiment_config("text-train", scale, args.seed)

    start = report("imports", T0)
    gen = data.SyntheticGeneratorConfig(record_count=scale.records,
                                        mean_review_length=scale.review_length)
    records = data.generate_synthetic(gen, args.seed)
    start = report("generate", start)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        data.write_jsonl(records, corpus)
        del records
        start = report("write", start)
        records = data.ingest(corpus)
        start = report("ingest", start)
    split = data.split_records(len(records), SPLIT, args.seed)
    vocab = experiment.build_vocab_for_split(records, split)
    start = report("vocab", start)
    dataset = experiment.featurize(records, vocab, cfg.max_sequence_length)
    start = report("featurize", start)
    experiment.run_repetition(records, dataset, split, cfg, 0)
    report("repetition", start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
