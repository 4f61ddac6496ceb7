"""The benchmark's own tests: every workload runs to its end at a tiny size,
and every correctness check rejects a deliberately wrong output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import workloads  # noqa: E402
from pcbnet import attribution, experiment  # noqa: E402

# 60 records leave 6 in the test split: too few for an accuracy margin.
TINY = workloads.Scale(records=60, review_length=40, text_epochs=1, rating_epochs=2,
                       ig_steps=8, text_repetitions=1, round_records=2,
                       text_margin=-1.0, rating_margin=-1.0)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_to_its_end(workload, trace, tmp_path):
    result, info = workloads.run(workload, 3, 0.01, trace, 0.0, tmp_path, TINY)
    assert result["correct"] and result["failed"] == 0, info["failed_checks"]
    assert result["attempted"] >= 1 and result["attempted"] % info["rounds"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert (tmp_path / f"{workload}-spans.jsonl").stat().st_size > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_segmentation_boundaries():
    assert [checks.segment_pcb(r) for r in range(1, 8)] == [0, 0, 1, 1, 1, 2, 2]
    with pytest.raises(ValueError):
        checks.segment_pcb(8)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    state, failed = workloads.set_up("text-train", TINY, 4, out)
    assert failed == []
    cfg = workloads.experiment_config("text-train", TINY, 4)
    result, model = experiment.run_repetition(state.records, state.dataset,
                                              state.split, cfg, 0)
    logits = model.forward(state.dataset.batch(state.split.test, "promote"))["pcb_logits"]
    ratings = [r.pcb_promote for r in state.records]
    return state, result, ratings, np.argmax(logits.data, axis=1)


def test_repetition_checks_accept_the_program(trained):
    state, result, ratings, pred = trained
    assert checks.check_repetition(ratings, state.split.train, state.split.test, pred,
                                   result.accuracy, result.f1_weighted, -1.0) == []


def test_repetition_checks_reject_a_flipped_prediction(trained):
    state, result, ratings, pred = trained
    flipped = pred.copy()
    flipped[0] = (flipped[0] + 1) % 3
    failed = checks.check_repetition(ratings, state.split.train, state.split.test,
                                     flipped, result.accuracy, result.f1_weighted, -1.0)
    assert "accuracy_recount" in failed


def test_repetition_checks_reject_a_wrong_f1_and_a_missed_margin(trained):
    state, result, ratings, pred = trained
    failed = checks.check_repetition(ratings, state.split.train, state.split.test, pred,
                                     result.accuracy, result.f1_weighted + 1e-6, 1.0)
    assert failed == ["f1_recount", "beats_majority"]


@pytest.fixture(scope="module")
def attributed(tmp_path_factory):
    out = tmp_path_factory.mktemp("attribute")
    state, failed = workloads.set_up("attribute", TINY, 5, out)
    assert failed == []
    record = state.records[state.split.test[0]]
    report = attribution.integrated_gradients(state.model, record, steps=8)
    return state, record, report


def _check(state, record, report):
    return checks.check_attribution(state.reference, record.text, record.pcb_promote,
                                    report, 8)[0]


def test_attribution_checks_accept_the_program(attributed):
    assert _check(*attributed) == []


@pytest.mark.parametrize("field,change,name", [
    ("scores", lambda s: [s[0] * (1 + 1e-6)] + s[1:], "attributions"),
    ("output_value", lambda v: v + 1e-6, "output_value"),
    ("baseline_value", lambda v: v - 1e-6, "baseline_value"),
    ("completeness_gap", lambda v: v + 1e-6, "completeness_gap"),
    ("target_class", lambda c: (c + 1) % 3, "target_class"),
    ("predicted_class", lambda c: (c + 1) % 3, "predicted_class"),
    ("tokens", lambda t: t[1:], "tokens"),
])
def test_attribution_checks_reject_a_wrong_output(attributed, field, change, name):
    state, record, report = attributed
    wrong = dataclasses.replace(report, **{field: change(getattr(report, field))})
    assert name in _check(state, record, wrong)


def test_a_failed_check_is_a_failed_operation(tmp_path, monkeypatch):
    real = attribution.integrated_gradients

    def perturbed(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, scores=[s + 1e-3 for s in report.scores])

    monkeypatch.setattr(attribution, "integrated_gradients", perturbed)
    result, info = workloads.run("attribute", 6, 0.01, False, 0.0, tmp_path, TINY)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    # The warm-up request is checked too.
    assert info["failed_checks"]["attributions"] == result["attempted"] + 1


def test_a_raising_request_leaves_a_gap_in_the_first_round(tmp_path, monkeypatch):
    real = attribution.integrated_gradients
    state, _ = workloads.set_up("attribute", TINY, 6, tmp_path)
    second = state.records[state.split.test[1]].id

    def raising(model, record, **kwargs):
        if record.id == second:
            raise RuntimeError("deliberate")
        return real(model, record, **kwargs)

    monkeypatch.setattr(attribution, "integrated_gradients", raising)
    result, info = workloads.run("attribute", 6, 0.01, False, 0.0, tmp_path, TINY)
    assert result["correct"] is False
    assert result["failed"] == info["rounds"] and result["attempted"] == 2 * info["rounds"]
    assert info["relative_gap"]["records"] == 1
