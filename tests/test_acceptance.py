"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Training-based criteria use the zero-noise synthetic generator, whose planted
weights make expected outcomes computable in closed form; learning rates here
are tuned for the small from-scratch encoder rather than the fine-tuning
default, which is far too cold to move a freshly initialized net in budget.
"""

import csv
import functools
import json
import time

import numpy as np
import pytest

from pcbnet.attribution import integrated_gradients
from pcbnet.autodiff import (add, binary_cross_entropy, concat,
                             cross_entropy, dense_epilogue, embedding_bag,
                             embedding_lookup, grouped_cross_entropy,
                             masked_mean, matmul, mean, relu)
from pcbnet.cli import main
from pcbnet.data import (Level, SyntheticGeneratorConfig, generate_synthetic,
                         segment_emotion, segment_pcb, split_records)
from pcbnet.experiment import (ExperimentConfig, build_vocab_for_split,
                               evaluate, featurize, run_sweep, train)
from pcbnet.metrics import accuracy_score, weighted_f1
from pcbnet.models import build, describe

from architecture_fixtures import FIXTURES
from oracles import (brute_force_accuracy, brute_force_weighted_f1,
                     check_op_gradients, majority_class_accuracy)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[acceptance] criterion {number} FAIL: {title} ({exc})")
                raise
            elapsed = time.monotonic() - started
            print(f"[acceptance] criterion {number} PASS: {title} "
                  f"({detail}; {elapsed:.1f}s)")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# Shared training fixtures (zero-noise synthetic corpus, 1400 records)

@pytest.fixture(scope="module")
def corpus_1400():
    cfg = SyntheticGeneratorConfig(record_count=1400, noise_scale=0.0)
    records = generate_synthetic(cfg, seed=11)
    split = split_records(len(records), (0.8, 0.1, 0.1), 0)
    vocab = build_vocab_for_split(records, split)
    data = featurize(records, vocab)
    return cfg, records, split, data


def _timed_training(arch_id, corpus, **cfg_kwargs):
    _, _, split, data = corpus
    cfg = ExperimentConfig(architecture=arch_id, pcb_target="promote", **cfg_kwargs)
    started = time.monotonic()
    model = build(arch_id, vocab=data.vocab, seed=0)
    train(model, data, split.train, cfg, seed=0)
    return model, time.monotonic() - started


@pytest.fixture(scope="module")
def trained_arch2(corpus_1400):
    return _timed_training(2, corpus_1400, rating_epochs=120, lr=3e-3)


@pytest.fixture(scope="module")
def trained_arch1(corpus_1400):
    return _timed_training(1, corpus_1400, text_epochs=10, lr=3e-3)


@pytest.fixture(scope="module")
def trained_arch12(corpus_1400):
    return _timed_training(12, corpus_1400, text_epochs=2, lr=1e-3)


# ---------------------------------------------------------------------------

@criterion(1, "gradient fidelity, >=100 finite-difference trials per op")
def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    rng = np.random.default_rng(123)
    trials = 100

    def away_from_kinks(shape):
        x = rng.normal(size=shape)
        return x + np.sign(x) * 1e-2

    # each trial fixes its random targets/ids up front so the finite-difference
    # oracle differentiates one and the same function
    def check_matmul():
        check_op_gradients(lambda ts: mean(matmul(ts[0], ts[1])),
                           [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def check_add():
        check_op_gradients(lambda ts: mean(add(ts[0], ts[1])),
                           [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))])
        check_op_gradients(lambda ts: mean(add(ts[0], ts[1])),
                           [rng.normal(size=(3, 4)), rng.normal(size=4)])

    def check_relu():
        check_op_gradients(lambda ts: mean(relu(ts[0])), [away_from_kinks((4, 3))])

    def check_dense_epilogue():
        while True:
            x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
            if np.abs(x @ w + b).min() > 1e-2:  # away from relu's kink
                break
        for hidden in (False, True):
            check_op_gradients(
                lambda ts: mean(dense_epilogue(matmul(ts[0], ts[1]), ts[2], hidden)),
                [x, w, b])

    def check_concat():
        check_op_gradients(lambda ts: mean(concat(ts, axis=1)),
                           [rng.normal(size=(2, 3)), rng.normal(size=(2, 4))])

    def check_mean():
        check_op_gradients(lambda ts: mean(ts[0]), [rng.normal(size=(3, 4))])

    def check_masked_mean():
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        check_op_gradients(lambda ts: mean(masked_mean(ts[0], mask)),
                           [rng.normal(size=(2, 3, 4))])

    def check_embedding_lookup():
        ids = rng.integers(0, 6, size=(2, 4))
        check_op_gradients(lambda ts: mean(embedding_lookup(ts[0], ids)),
                           [rng.normal(size=(6, 3))])

    def check_embedding_bag():
        # repeated ids, a masked position and one all-pad row
        ids = rng.integers(0, 6, size=(3, 4))
        ids[0, :2] = ids[0, 2]
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                         [1.0, 1.0, 1.0, 1.0]])
        check_op_gradients(lambda ts: mean(embedding_bag(ts[0], ids, mask)),
                           [rng.normal(size=(6, 3))])

    def check_cross_entropy():
        targets = rng.integers(0, 3, size=4)
        check_op_gradients(lambda ts: cross_entropy(ts[0], targets),
                           [rng.normal(size=(4, 3))])

    def check_grouped_cross_entropy():
        targets = rng.integers(0, 3, size=(2, 3))
        check_op_gradients(lambda ts: grouped_cross_entropy(ts[0], targets, groups=3),
                           [rng.normal(size=(2, 9))])

    def check_binary_cross_entropy():
        flags = rng.integers(0, 2, size=(3, 4)).astype(float)
        check_op_gradients(lambda ts: binary_cross_entropy(ts[0], flags),
                           [rng.normal(size=(3, 4))])

    # check_dense_epilogue goes last, so the other checks draw what they drew before it
    checks = [check_matmul, check_add, check_relu, check_concat, check_mean,
              check_masked_mean, check_embedding_lookup, check_embedding_bag,
              check_cross_entropy, check_grouped_cross_entropy, check_binary_cross_entropy,
              check_dense_epilogue]
    for check in checks:
        for _ in range(trials):
            check()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"gradient fidelity took {elapsed:.1f}s (budget 30s)"
    return f"{len(checks)} ops x {trials} trials, rel err <= 1e-5"


@criterion(2, "segmentation matches the published boundaries on all inputs")
def test_criterion_2_segmentation_exactness():
    pcb_table = {1: Level.LOW, 2: Level.LOW, 3: Level.MODERATE,
                 4: Level.MODERATE, 5: Level.MODERATE, 6: Level.HIGH,
                 7: Level.HIGH}
    emotion_table = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1}
    for rating in range(1, 8):
        assert segment_pcb(rating) == pcb_table[rating], rating
        assert segment_emotion(rating) == emotion_table[rating], rating
    return "exhaustive 7-value tables for both segmentations"


@criterion(3, "architecture graphs match hand-written fixtures")
def test_criterion_3_architecture_fidelity():
    started = time.monotonic()
    for arch_id in range(1, 13):
        assert describe(build(arch_id, encoder_dim=128)) == FIXTURES[arch_id], arch_id

    def paths(desc):
        children = {}
        for a, b in desc["edges"]:
            children.setdefault(a, []).append(b)
        found, stack = [], [("TextEmbedding", ["TextEmbedding"])]
        while stack:
            node, path = stack.pop()
            if node == "PCBHead":
                found.append(path)
                continue
            for nxt in children.get(node, []):
                stack.append((nxt, path + [nxt]))
        return found

    for arch_id, limit in ((4, 60), (5, 8), (6, 8)):
        desc = describe(build(arch_id))
        widths = {n["name"]: n["widths"][-1] for n in desc["nodes"]}
        for path in paths(desc):
            assert min(widths[n] for n in path[1:-1]) <= limit, (arch_id, path)

    edges = {tuple(e) for e in describe(build(12))["edges"]}
    assert ("TextEmbedding", "AppraisalHead") in edges
    assert ("AppraisalHead", "EmotionHead") in edges
    for src in ("TextEmbedding", "AppraisalHead", "EmotionHead"):
        assert (src, "FusionConcat") in edges

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"architecture fidelity took {elapsed:.1f}s (budget 5s)"
    return "12 fixtures, bottleneck widths, theoretical chain"


@criterion(4, "end-to-end learnability on the planted-signal corpus")
def test_criterion_4_learnability(corpus_1400, trained_arch2, trained_arch1):
    started = time.monotonic()
    _, _, split, data = corpus_1400
    model2, train_time2 = trained_arch2
    model1, train_time1 = trained_arch1
    labels = data.pcb_labels["promote"]
    majority = majority_class_accuracy(labels[split.train], labels[split.test])

    train_acc = evaluate(model2, data, split.train, "promote").accuracy
    test_acc2 = evaluate(model2, data, split.test, "promote").accuracy
    assert train_acc >= 0.95, f"arch 2 train accuracy {train_acc:.3f} < 0.95"
    assert test_acc2 >= majority + 0.20, (
        f"arch 2 test {test_acc2:.3f} vs majority {majority:.3f}")

    test_acc1 = evaluate(model1, data, split.test, "promote").accuracy
    assert test_acc1 >= majority + 0.10, (
        f"arch 1 test {test_acc1:.3f} vs majority {majority:.3f}")

    elapsed = time.monotonic() - started + train_time2 + train_time1
    assert elapsed < 300.0, f"learnability took {elapsed:.1f}s (budget 300s)"
    return (f"arch2 train {train_acc:.3f}, test {test_acc2:.3f}; "
            f"arch1 test {test_acc1:.3f}; majority {majority:.3f}; "
            f"{elapsed:.0f}s incl. training")


@criterion(5, "ratings beat weakened text over 5 repetitions (ordering only)")
def test_criterion_5_modality_ordering():
    cfg = SyntheticGeneratorConfig(record_count=500, noise_scale=0.0,
                                   text_signal=0.3)
    records = generate_synthetic(cfg, seed=23)
    ratings, _ = next(run_sweep(records, [ExperimentConfig(
        architecture=2, pcb_target="promote", repetitions=5,
        rating_epochs=120, lr=3e-3, base_seed=100)]))
    text, _ = next(run_sweep(records, [ExperimentConfig(
        architecture=1, pcb_target="promote", repetitions=5,
        text_epochs=10, lr=3e-3, base_seed=100)]))
    assert ratings.mean_accuracy > text.mean_accuracy, (
        f"ratings {ratings.mean_accuracy:.3f} !> text {text.mean_accuracy:.3f}")
    return (f"ratings {ratings.mean_accuracy:.3f} "
            f"({ratings.std_accuracy:.3f}) > text {text.mean_accuracy:.3f} "
            f"({text.std_accuracy:.3f})")


@criterion(6, "integrated-gradients completeness at 128 steps")
def test_criterion_6_attribution_completeness(corpus_1400, trained_arch1,
                                              trained_arch12):
    started = time.monotonic()
    _, records, split, _ = corpus_1400
    model12, train_time12 = trained_arch12
    model1, _ = trained_arch1
    rng = np.random.default_rng(77)
    picks = rng.choice(split.test, size=20, replace=False)
    worst = 0.0
    for idx in picks:
        report = integrated_gradients(model12, records[int(idx)], steps=128)
        reference = abs(report.output_value - report.baseline_value)
        assert report.completeness_gap <= 0.01 * reference, (
            f"gap {report.completeness_gap:.3e} vs 1% of {reference:.3e}")
        worst = max(worst, report.completeness_gap / reference)

    linear = integrated_gradients(model1, records[split.test[0]],
                                  steps=1, baseline="zero")
    assert linear.completeness_gap <= 1e-10, linear.completeness_gap

    elapsed = time.monotonic() - started + train_time12
    assert elapsed < 60.0, f"completeness took {elapsed:.1f}s (budget 60s)"
    return f"worst relative gap {worst:.2e}; linear gap {linear.completeness_gap:.1e}"


@criterion(7, "metrics match the brute-force confusion-matrix oracle")
def test_criterion_7_metric_correctness():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        y_true = rng.integers(0, 3, size=n)
        y_pred = rng.integers(0, 3, size=n)
        assert accuracy_score(y_true, y_pred) == brute_force_accuracy(
            list(y_true), list(y_pred))
        ours = weighted_f1(y_true, y_pred, n_classes=3)
        oracle = brute_force_weighted_f1(list(y_true), list(y_pred))
        assert abs(ours - oracle) <= 1e-12
    return "1000 fuzzed vectors; accuracy exact, F1 within 1e-12"


@criterion(8, "training protocol is byte-deterministic and reports mean/std")
def test_criterion_8_protocol_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"record_count": 60, "noise_scale": 0.0,
                                     "mean_review_length": 40}))
    dataset = tmp_path / "dataset.jsonl"
    assert main(["synth", "--config", str(synth_cfg), "--seed", "3",
                 "--out", str(dataset)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "dataset": str(dataset), "architecture": 3, "pcb_target": "promote",
        "repetitions": 5, "rating_epochs": 5, "lr": 1e-3, "base_seed": 1}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(train_cfg), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(train_cfg), "--out", str(out_b)]) == 0
    csv_a = (out_a / "metrics.csv").read_bytes()
    assert csv_a == (out_b / "metrics.csv").read_bytes()
    with (out_a / "metrics.csv").open(newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 5
    summary = json.loads((out_a / "summary.json").read_text())["arch03_promote"]
    for key in ("mean_accuracy", "std_accuracy", "mean_f1", "std_f1"):
        assert key in summary
    return "two identical runs byte-equal; 5-repetition mean/std emitted"


@criterion(9, "full 12x2 sweep at reduced budgets emits the grouped report")
def test_criterion_9_full_sweep(tmp_path, capsys):
    started = time.monotonic()
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"record_count": 200, "noise_scale": 0.25,
                                     "mean_review_length": 60}))
    dataset = tmp_path / "dataset.jsonl"
    assert main(["synth", "--config", str(synth_cfg), "--seed", "5",
                 "--out", str(dataset)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "dataset": str(dataset), "repetitions": 1, "text_epochs": 2,
        "rating_epochs": 200, "lr": 1e-3, "base_seed": 0, "batch_size": 16}))
    out_dir = tmp_path / "sweep"
    assert main(["train", "--config", str(train_cfg), "--out", str(out_dir),
                 "--sweep"]) == 0
    with (out_dir / "metrics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24, f"expected 24 result rows, got {len(rows)}"
    assert {(r["architecture_id"], r["pcb_target"]) for r in rows} == {
        (str(a), t) for a in range(1, 13) for t in ("repurchase", "promote")}

    capsys.readouterr()
    assert main(["report", str(out_dir)]) == 0
    table = capsys.readouterr().out
    for family in ("Baseline", "Constrained", "Multi-modal", "Multi-task",
                   "Theoretical model"):
        assert family in table
    assert "missing results" not in table

    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s (budget 600s)"
    return f"24 rows, all five family groups, {elapsed:.0f}s"
