"""Print the process's peak and current RSS after each set-up phase of a workload.

Runs one benchmark workload's set-up in one process, taking its corpus,
split and configuration from ``perfbench/workloads.py``: imports, generate,
write, ingest, vocab, featurize, then one repetition; the ``attribute``
workload then saves and reloads its checkpoint (``checkpoint``) and runs
integrated gradients on its round of test records (``attribute``). After
each phase it prints one JSON line: the phase, its wall time, ``ru_maxrss``
(the high-water mark so far) and the current RSS, both in MB, and ``minflt``,
the minor page faults since the previous line (``ru_minflt``). Each training
call (``experiment._train_single``) also prints one line when it returns:
its architecture, the number of values it trained, its wall time and the same
three figures. The last line whose ``maxrss_mb`` rises is the one that sets
the peak.

    python3 scripts/peak_rss.py --workload rating-fusion --records 1400 --seed 1
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

from pcbnet import attribution, data, experiment, models  # noqa: E402
from workloads import FULL, SPLIT, TARGET, experiment_config  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def current_rss_mb() -> float | None:
    """Resident set size now, from /proc/self/statm; None where there is none."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * resource.getpagesize() / 2**20


last_minflt = 0  # ru_minflt as of the last line printed


def report(start: float, **fields) -> float:
    global last_minflt
    seconds = round(time.perf_counter() - start, 4)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        **fields,
        "seconds": seconds,
        "maxrss_mb": usage.ru_maxrss / 1024,
        "rss_mb": current_rss_mb(),
        "minflt": usage.ru_minflt - last_minflt,
    }), flush=True)
    last_minflt = usage.ru_minflt
    return time.perf_counter()


def report_training_calls() -> None:
    """Make every ``experiment._train_single`` call print its line as it returns."""
    train_single = experiment._train_single

    def reported(model, *args, **kwargs):
        trained = sum(p.data.size for p in model.parameters().values() if p.requires_grad)
        start = time.perf_counter()
        try:
            return train_single(model, *args, **kwargs)
        finally:
            report(start, architecture=model.spec.id, trained_values=trained)

    experiment._train_single = reported


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="text-train", choices=WORKLOADS)
    parser.add_argument("--records", type=int, default=FULL.records)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    scale = replace(FULL, records=args.records)
    cfg = experiment_config(args.workload, scale, args.seed)
    report_training_calls()

    start = report(T0, phase="imports")
    gen = data.SyntheticGeneratorConfig(record_count=scale.records,
                                        mean_review_length=scale.review_length)
    records = data.generate_synthetic(gen, args.seed)
    start = report(start, phase="generate")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        data.write_jsonl(records, corpus)
        del records
        start = report(start, phase="write")
        records = data.ingest(corpus)
        start = report(start, phase="ingest")
        split = data.split_records(len(records), SPLIT, args.seed)
        vocab = experiment.build_vocab_for_split(records, split)
        start = report(start, phase="vocab")
        dataset = experiment.featurize(records, vocab, cfg.max_sequence_length)
        start = report(start, phase="featurize")
        _, model = experiment.run_repetition(records, dataset, split, cfg, 0)
        start = report(start, phase="repetition")
        if args.workload != "attribute":
            return 0
        checkpoint = Path(tmp) / "checkpoint.params"
        models.save_model(checkpoint, model, meta={"pcb_target": TARGET})
        model, _ = models.load_model(checkpoint)
        start = report(start, phase="checkpoint")
    for i in split.test[:scale.round_records]:
        attribution.integrated_gradients(model, records[i], pcb_target=TARGET,
                                         steps=scale.ig_steps)
    report(start, phase="attribute")
    return 0


if __name__ == "__main__":
    sys.exit(main())
