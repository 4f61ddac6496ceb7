import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SIDES = ("parent", "change")


def test_attribute_extremes_runs_at_a_small_size(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "attribute_extremes.py"), "--records", "60",
         "--epochs", "1", "--steps", "4", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for label in ("most_promotable", "least_promotable"):
        assert (tmp_path / f"{label}.json").exists() and (tmp_path / f"{label}.html").exists()


def test_peak_rss_prints_one_line_per_phase(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "peak_rss.py"), "--records", "60"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    phases = [line for line in lines if "phase" in line]  # the rest are training calls
    assert [line["phase"] for line in phases] == [
        "imports", "generate", "write", "ingest", "vocab", "featurize", "repetition"]
    peaks = [line["maxrss_mb"] for line in lines]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert all(line["rss_mb"] is None or line["rss_mb"] > 0 for line in lines)
    assert not any(tmp_path.iterdir()), "left files behind"


@pytest.mark.parametrize("workload, phases, calls", [
    ("text-train", [], [12]),
    # architecture 9 trains its text, appraisal and emotion towers, then fuses
    ("rating-fusion", [], [1, 2, 3, 9]),
    ("attribute", ["checkpoint", "attribute"], [12]),
])
def test_peak_rss_prints_each_phase_and_training_call_of_a_workload(tmp_path, workload,
                                                                    phases, calls):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "peak_rss.py"), "--workload", workload,
         "--records", "60"], capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert [line.get("phase") for line in lines] == [
        "imports", "generate", "write", "ingest", "vocab", "featurize",
        *[None] * len(calls), "repetition", *phases]
    trained = [line for line in lines if "phase" not in line]
    assert [line["architecture"] for line in trained] == calls
    assert all(line["trained_values"] > 0 and line["seconds"] >= 0 for line in trained)
    peaks = [line["maxrss_mb"] for line in lines]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert not any(tmp_path.iterdir()), "left files behind"


def test_peak_rss_refuses_an_unknown_workload(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "peak_rss.py"), "--workload", "nope"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert result.returncode == 2 and "--workload" in result.stderr
    assert result.stdout == ""


def test_ab_pairs_runs_both_sides_and_sums_up(tmp_path):
    root = SCRIPTS.parent
    bench = tmp_path / "BENCH.json"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_pairs.py"), "--parent", str(root),
         "--change", str(root), "--workload", "text-train", "--pairs", "1",
         "--seconds", "0.1", "--bench", str(bench)],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    *runs, last = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["pair"], r["side"], r["seed"]) for r in runs] == [
        (0, "parent", 1), (0, "change", 1)]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    summary = last["summary"]
    assert summary["correct"] == {"parent": [True], "change": [True]}
    assert summary["failed"] == {"parent": [0], "change": [0]}
    assert [r["attempted"] for r in runs] == [summary["attempted"][s][0] for s in SIDES]
    assert all(summary["attempted"][s][0] >= 1 for s in SIDES)
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    for name, stats in summary["metrics"].items():
        for side in ("parent", "change"):
            assert stats[side]["runs"] == 1
            assert stats[side]["q1"] == stats[side]["median"] == stats[side]["q3"]
        assert set(stats["change_better_pairs"]) <= {0}
    # one corpus, split and model seed on both sides: the same accuracy
    assert runs[0]["metrics"]["test_acc"] == runs[1]["metrics"]["test_acc"]
    # the info line's BLAS fields, per run and per side; the program left the
    # thread count it found (None where the benchmark could not read it)
    for key in ("blas", "blas_threads", "blas_threads_reported"):
        assert summary[key] == {s: [r[key]] for s, r in zip(SIDES, runs)}
    assert all(r["blas"] and r["blas_threads"] >= 1 for r in runs)
    assert all(r["blas_threads_reported"] in (None, r["blas_threads"]) for r in runs)
    # the bench file: the same summary and runs, the machine and the commits
    written = json.loads(bench.read_text())
    assert written["summary"] == summary and written["runs"] == runs
    assert (written["workload"], written["pairs"], written["seconds"],
            written["first_seed"]) == ("text-train", 1, 0.1, 1)
    for side, run in zip(SIDES, runs):
        machine = written["machine"][side]
        assert machine == run["machine"]
        assert machine["nproc"] >= 1 and machine["numpy"] and machine["python"]
        assert {k: machine[k] for k in ("blas", "blas_threads")} == {
            k: run[k] for k in ("blas", "blas_threads")}
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    commit = head.stdout.strip() if head.returncode == 0 else None
    assert [written["commits"][s]["commit"] for s in SIDES] == [commit, commit]
    assert all(written["commits"][s]["dirty"] in ((None,) if commit is None else (True, False))
               for s in SIDES)


def test_ab_pairs_first_seed_moves_every_pair():
    root = SCRIPTS.parent
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_pairs.py"), "--parent", str(root),
         "--change", str(root), "--workload", "text-train", "--pairs", "2",
         "--seconds", "0.05", "--first-seed", "11"],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    runs = [json.loads(line) for line in result.stdout.splitlines()[:-1]]
    assert [(r["pair"], r["side"], r["seed"]) for r in runs] == [
        (0, "parent", 11), (0, "change", 11), (1, "change", 12), (1, "parent", 12)]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_states_the_verdict_per_metric():
    # ten pairs; per metric (parent, change) of pair p, and the verdict worked by hand
    cases = {
        # won 9, tied 1; median 104.5 -> 94.5 beats the parent's q3 - q1 of 4.5
        "request_ms_p50": (lambda p: 100 + p, lambda p: 90 + p if p < 9 else 109, 9, True),
        # won 9 by 1, but q3 - q1 is 45; 1045 -> 1046 is within the bound
        "samples_per_s": (lambda p: 1000 + 10 * p,
                          lambda p: 1001 + 10 * p if p < 9 else 1089, 9, False),
        # halved in 8 pairs only: no claim
        "setup_s": (lambda p: 1.0 + 0.01 * p, lambda p: 0.5 if p < 8 else 2.0, 8, False),
        # all tied
        "test_acc": (lambda p: 0.8, lambda p: 0.8, 0, False),
        # 50 -> 58 MB is 16% worse, beyond the 0.15 bound
        "peak_rss_mb": (lambda p: 50.0, lambda p: 58.0, 0, False),
    }
    runs = [{"pair": p, "side": side, "correct": True, "failed": 0, "attempted": 3,
             "metrics": {name: case[i](p) for name, case in cases.items()}}
            for p in range(10) for i, side in enumerate(SIDES)]
    metrics = load_script("ab_pairs").summarize(runs, "text-train", 10)["summary"]["metrics"]
    for name, (_, _, won, claim_met) in cases.items():
        assert metrics[name]["change_won"] == len(metrics[name]["change_better_pairs"]) == won
        assert metrics[name]["claim_met"] is claim_met, name
        assert metrics[name]["within_bound"] is (name != "peak_rss_mb"), name
    assert metrics["request_ms_p50"]["change_better_pairs"] == list(range(9))
    # change / parent pair by pair: 90/100, 91/101, ..., 98/108, then 109/109;
    # numpy's linear quartiles sit at sorted positions 2.25, 4.5 and 6.75
    ratio = metrics["request_ms_p50"]["change_over_parent"]
    assert ratio["pairs"] == 10
    assert ratio["median"] == pytest.approx((94 / 104 + 95 / 105) / 2, rel=1e-12)
    assert ratio["q1"] == pytest.approx(92 / 102 + 0.25 * (93 / 103 - 92 / 102), rel=1e-12)
    assert ratio["q3"] == pytest.approx(96 / 106 + 0.75 * (97 / 107 - 96 / 106), rel=1e-12)
    # 58 / 50 in every pair
    assert metrics["peak_rss_mb"]["change_over_parent"] == {
        "median": pytest.approx(1.16), "q1": pytest.approx(1.16), "q3": pytest.approx(1.16),
        "pairs": 10}
    assert metrics["test_acc"]["change_over_parent"]["median"] == 1.0


def test_full_sweep_refuses_lr_with_full_budgets(tmp_path):
    out = tmp_path / "sweep"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_full_sweep.py"), "--full-budgets", "--lr", "1e-3",
         "--records", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 2, result.stderr
    assert "--lr" in result.stderr and "--full-budgets" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, category", [
    (["--records", "3"], "size"),  # a 3-record split has no test record
    (["--records", "60", "--workers", "0"], "config"),
    (["--records", "60", "--repetitions", "0"], "config"),
])
def test_a_refused_full_sweep_writes_nothing(tmp_path, args, category):
    out = tmp_path / "sweep"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_full_sweep.py"), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["error"]["category"] == category
    assert not out.exists()


@pytest.mark.parametrize("args, category", [
    (["--records", "3"], "size"),  # a 3-record split has no test record
    (["--records", "60", "--steps", "0"], "config"),
    (["--records", "60", "--epochs", "0"], "config"),
])
def test_a_refused_attribution_run_writes_nothing(tmp_path, args, category):
    out = tmp_path / "extremes"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "attribute_extremes.py"), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["error"]["category"] == category
    assert not out.exists()


@pytest.mark.parametrize("script, flag, value, key", [
    ("attribute_extremes", "--records", "0", "record_count"),
    ("attribute_extremes", "--epochs", "0", "text_epochs"),
    ("attribute_extremes", "--seed", "-1", "base_seed"),
    ("run_full_sweep", "--records", "0", "record_count"),
    ("run_full_sweep", "--noise", "-1", "noise_scale"),
    ("run_full_sweep", "--seed", "-1", "base_seed"),
])
def test_a_refusal_names_the_flag_not_its_config_key(tmp_path, script, flag, value, key):
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{script}.py"), flag, value, "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    error = json.loads(lines[0])["error"]
    assert error["category"] == "config"
    assert error["message"].startswith(f"{flag} must be ") and key not in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("args, says", [
    (["--workload", "nope", "--seconds", "1"], "--workload: invalid choice: 'nope'"),
    (["--workload", "text-train", "--seconds", "0"], "--seconds must be positive"),
    (["--workload", "text-train", "--seconds", "-1"], "--seconds must be positive"),
    (["--workload", "text-train", "--seconds", "nan"], "--seconds must be positive"),
    (["--workload", "text-train", "--seconds", "inf"], "--seconds must be positive"),
    (["--workload", "text-train", "--seconds", "1", "--first-seed", "-1"],
     "--first-seed must be at least 0, got -1"),
])
def test_ab_pairs_refuses_a_bad_argument_before_any_run(tmp_path, args, says):
    # both checkouts are missing, so any run would print a failed result line
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_pairs.py"), "--parent", str(tmp_path / "p"),
         "--change", str(tmp_path / "c"), "--pairs", "1", *args],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert says in result.stderr


def test_ab_pairs_keeps_each_runs_blas_fields(monkeypatch):
    ab_pairs = load_script("ab_pairs")
    machine = {"blas": "scipy-openblas", "blas_threads": 2, "blas_threads_reported": 2,
               "nproc": 2}
    stdout = "\n".join([json.dumps({"info": {"machine": machine}}), json.dumps(
        {"correct": True, "failed": 0, "attempted": 3,
         "metrics": {"test_acc": {"value": 0.8, "unit": "ratio"}}})])
    monkeypatch.setattr(ab_pairs.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(
        a, 0, stdout=stdout + "\n", stderr=""))
    run = ab_pairs.run_once(Path("."), "text-train", 1, 0.1)
    assert {k: run[k] for k in ab_pairs.BLAS_FIELDS} == {
        "blas": "scipy-openblas", "blas_threads": 2, "blas_threads_reported": 2}
    runs = [{"pair": 0, "side": side, **run, "blas_threads_reported": reported}
            for side, reported in zip(SIDES, (2, 1))]
    summary = ab_pairs.summarize(runs, "text-train", 1)["summary"]
    assert summary["blas"] == {"parent": ["scipy-openblas"], "change": ["scipy-openblas"]}
    assert summary["blas_threads"] == {"parent": [2], "change": [2]}
    assert summary["blas_threads_reported"] == {"parent": [2], "change": [1]}


def test_ab_pairs_lists_test_acc_pair_by_pair():
    acc = {"parent": [0.8, 0.75, 0.9], "change": [0.8, 0.7, None]}
    runs = [{"pair": p, "side": side, "correct": True, "failed": 0, "attempted": 3,
             "metrics": {} if acc[side][p] is None else {"test_acc": acc[side][p]}}
            for p in range(3) for side in SIDES]
    summary = load_script("ab_pairs").summarize(runs, "text-train", 3)["summary"]
    assert summary["test_acc"] == acc
    # the pair without a change value has no ratio
    ratio = summary["metrics"]["test_acc"]["change_over_parent"]
    assert ratio["pairs"] == 2 and ratio["median"] == pytest.approx((1 + 0.7 / 0.75) / 2)
