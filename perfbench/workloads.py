"""The three workloads: set-up, one closed-loop client, checks and metrics.

Every workload builds its corpus from the seed with the synthetic
generator's defaults, writes it as JSONL and ingests it back, so the
program sees only generated inputs. Set-up runs once, cold, followed by
one warm-up request; ``setup_s`` is the time from process start to the
first timed request. The timed phase then runs whole rounds of identical
requests, one at a time, until ``seconds`` have passed. Each output, the
warm-up's too, is checked against ``checks`` right after it returns,
outside its timer.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from pcbnet import attribution, data, experiment, models
from spans import Tracer, per_layer_metrics

TARGET = "promote"
SPLIT = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class Scale:
    """Corpus size and budgets. ``FULL`` is what the benchmark measures."""

    records: int = 1400
    review_length: int = 190
    lr: float = 3e-3
    # Two epochs bring architecture 12 to about 0.88 test accuracy; after one,
    # it ranges from 0.54 to 0.76 across seeds, too wide for a steady test_acc.
    text_epochs: int = 2        # architecture 12: text-train and the checkpoint
    fusion_text_epochs: int = 1  # architecture 9: text tower and fusion head
    # 30 full-batch epochs per rating tower for each text epoch: the ratio of
    # scripts/run_full_sweep.py's default budgets (300 rating : 10 text).
    rating_epochs: int = 30      # architecture 9: each full-batch rating tower
    ig_steps: int = 128
    # A text-train round runs repetitions 0..n-1. A rating-fusion repetition
    # takes about 12 s, so its round is repetition 0 alone.
    text_repetitions: int = 3
    round_records: int = 20      # attribute: the first test records
    # Accuracy over the train-majority baseline that each repetition must
    # reach: acceptance criterion 4's margins for text-only and rating inputs.
    text_margin: float = 0.10
    rating_margin: float = 0.20


FULL = Scale()


def experiment_config(workload: str, scale: Scale, seed: int) -> experiment.ExperimentConfig:
    fusion = workload == "rating-fusion"
    return experiment.ExperimentConfig(
        architecture=9 if fusion else 12, pcb_target=TARGET,
        text_epochs=scale.fusion_text_epochs if fusion else scale.text_epochs,
        rating_epochs=scale.rating_epochs, lr=scale.lr, batch_size=16,
        max_sequence_length=256, base_seed=seed, split_ratios=SPLIT)


def samples_per_request(workload: str, scale: Scale, n_train: int) -> int:
    """Forward+backward passes of one input row in one request.

    Architecture 9 pretrains two full-batch rating towers and the text tower,
    then trains the fusion head for the text budget.
    """
    if workload == "attribute":
        return scale.ig_steps
    if workload == "rating-fusion":
        return n_train * (2 * scale.rating_epochs + 2 * scale.fusion_text_epochs)
    return n_train * scale.text_epochs


@dataclass
class State:
    records: list
    split: object
    dataset: object
    model: object = None
    reference: checks.Arch12Reference | None = None
    test_acc: float = 0.0
    checkpoint_bytes: int = 0


def set_up(workload: str, scale: Scale, seed: int, out_dir: Path) -> tuple[State, list[str]]:
    """One set-up pass; returns the state and the names of failed checks."""
    gen = data.SyntheticGeneratorConfig(record_count=scale.records,
                                        mean_review_length=scale.review_length)
    corpus = out_dir / f"{workload}-corpus.jsonl"
    data.write_jsonl(data.generate_synthetic(gen, seed), corpus)
    records = data.ingest(corpus)
    split = data.split_records(len(records), SPLIT, seed)
    vocab = experiment.build_vocab_for_split(records, split)
    state = State(records, split, experiment.featurize(records, vocab, 256))
    if workload != "attribute":
        return state, []
    cfg = experiment_config(workload, scale, seed)
    trained, model = experiment.run_repetition(records, state.dataset, split, cfg, 0)
    path = out_dir / f"{workload}-checkpoint.params"
    models.save_model(path, model, meta={"pcb_target": TARGET})
    state.model, _ = models.load_model(path)
    state.checkpoint_bytes = path.stat().st_size
    state.reference = checks.Arch12Reference(path)
    test = [records[i] for i in split.test]
    gold = [checks.segment_pcb(r.pcb_promote) for r in test]
    state.test_acc = checks.brute_accuracy(
        gold, [state.reference.predict(r.text) for r in test])
    return state, [] if state.test_acc == trained.accuracy else ["checkpoint_accuracy"]


def requests(workload: str, scale: Scale, state: State, seed: int):
    """One round: a list of (request, check) pairs.

    ``check(output)`` returns the failed checks and a value kept per
    request (test accuracy, or the relative completeness gap).
    """
    records, split = state.records, state.split
    if workload == "attribute":
        def ig(record):
            return lambda: attribution.integrated_gradients(
                state.model, record, pcb_target=TARGET, steps=scale.ig_steps,
                baseline="pad")

        def check_ig(record):
            return lambda report: checks.check_attribution(
                state.reference, record.text, record.pcb_promote, report, scale.ig_steps)

        chosen = [records[i] for i in split.test[:scale.round_records]]
        return [(ig(r), check_ig(r)) for r in chosen]

    cfg = experiment_config(workload, scale, seed)
    fusion = workload == "rating-fusion"
    margin = scale.rating_margin if fusion else scale.text_margin
    ratings = [r.pcb_promote for r in records]

    def repetition(rep):
        return lambda: experiment.run_repetition(records, state.dataset, split, cfg, rep)

    def check_repetition(output):
        result, model = output
        logits = model.forward(state.dataset.batch(split.test, TARGET))["pcb_logits"]
        failed = checks.check_repetition(
            ratings, split.train, split.test, np.argmax(logits.data, axis=1),
            result.accuracy, result.f1_weighted, margin)
        return failed, result.accuracy

    reps = 1 if fusion else scale.text_repetitions
    return [(repetition(rep), check_repetition) for rep in range(reps)]


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        out_dir: Path, scale: Scale = FULL) -> tuple[dict, dict]:
    """Run one workload; returns the result object and an info dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        return _run(workload, seed, seconds, tracer, import_s, out_dir, scale)
    finally:
        if tracer:
            tracer.uninstall()


def _call(tracer, name, request_id, fn, *args):
    return tracer.region(name, request_id, fn, *args) if tracer else fn(*args)


def _run(workload, seed, seconds, tracer, import_s, out_dir, scale):
    failures: Counter[str] = Counter()
    start = perf_counter()
    state, failed = _call(tracer, "setup", "setup", set_up, workload, scale, seed, out_dir)
    failures.update(failed)
    round_ = requests(workload, scale, state, seed)
    request, check = round_[0]
    failures.update(check(_call(tracer, "request", "warmup", request))[0])
    setup_s = import_s + perf_counter() - start
    setup_failed = bool(failures)

    # The first round's values by position; a request that failed leaves NaN.
    first_round = [float("nan")] * len(round_)
    durations, failed_ops = [], 0
    phase_start = perf_counter()
    while not durations or perf_counter() - phase_start < seconds:
        first = not durations
        for k, (request, check) in enumerate(round_):
            start = perf_counter()
            try:
                output = _call(tracer, "request", f"r{len(durations)}", request)
            except Exception as exc:  # a crash is one failed operation, named
                output, failed = None, [f"raised {type(exc).__name__}: {exc}"]
            durations.append(perf_counter() - start)
            if output is not None:
                failed, value = check(output)
                if first and not failed:
                    first_round[k] = value
            failed_ops += bool(failed)
            failures.update(failed)

    samples = samples_per_request(workload, scale, len(state.split.train))
    info = {"workload": workload, "seed": seed, "requests": len(durations),
            "rounds": len(durations) // len(round_), "samples_per_request": samples,
            "import_s": import_s, "setup_s": setup_s, "request_s": durations,
            "failed_checks": dict(failures)}
    values = np.asarray(first_round)
    kept = values[~np.isnan(values)]
    if workload == "attribute":
        info["relative_gap"] = {
            "p50": float(np.median(kept)) if kept.size else None,
            "max": float(kept.max()) if kept.size else None,
            "over_1pct": int((kept > 0.01).sum()), "records": int(kept.size)}
        test_acc = state.test_acc
    else:
        test_acc = float(kept.mean()) if kept.size else 0.0
    # "correct" is false once any check fails, in set-up or in a request; the
    # failed requests are also counted in "failed".
    result = {"correct": not setup_failed and failed_ops == 0,
              "attempted": len(durations), "failed": failed_ops}
    if tracer:
        request_ids = [f"r{k}" for k in range(len(durations))]
        metrics = per_layer_metrics(tracer, "setup", request_ids,
                                    samples * len(durations), durations)
        metrics["serialize.checkpoint_bytes"] = (float(state.checkpoint_bytes), "bytes")
        tracer.write(out_dir / f"{workload}-spans.jsonl")
        own = tracer.self_times(request_ids)
        info["self_ms_per_request"] = {
            name: own[name] * 1e3 / len(durations)
            for name in sorted(own, key=own.get, reverse=True)}
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "samples_per_s": (samples * len(durations) / sum(durations), "1/s"),
            "request_ms_p50": (statistics.median(durations) * 1e3, "ms"),
            "test_acc": (test_acc, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, info
