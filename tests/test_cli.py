import csv
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from pcbnet import experiment
from pcbnet.cli import _SYNTH_SPECS, _TRAIN_SPECS, main, render_report
from pcbnet.data import SyntheticGeneratorConfig, ingest
from pcbnet.experiment import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def synth_dataset(tmp_path, n=60, seed=3, noise=0.0, extra=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = {"record_count": n, "noise_scale": noise, "mean_review_length": 40}
    cfg.update(extra or {})
    cfg_path = write_config(tmp_path / "synth.json", cfg)
    out = tmp_path / "dataset.jsonl"
    assert main(["synth", "--config", cfg_path, "--seed", str(seed),
                 "--out", str(out)]) == 0
    return out


def quick_train_config(tmp_path, dataset, **overrides):
    cfg = {
        "dataset": str(dataset),
        "architecture": 3,
        "pcb_target": "promote",
        "repetitions": 1,
        "text_epochs": 1,
        "rating_epochs": 2,
        "lr": 1e-3,
        "base_seed": 0,
    }
    cfg.update(overrides)
    return write_config(tmp_path / "train.json", cfg)


class TestSynth:
    def test_default_config_writes_1400_records(self, tmp_path):
        out = tmp_path / "default.jsonl"
        assert main(["synth", "--out", str(out)]) == 0
        assert len(ingest(out)) == 1400

    def test_writes_dataset_and_sidecar(self, tmp_path):
        out = synth_dataset(tmp_path, n=10)
        records = ingest(out)
        assert len(records) == 10
        sidecar = tmp_path / "dataset.appraisal_names.txt"
        assert sidecar.exists()
        assert len(sidecar.read_text().splitlines()) == 20

    def test_same_seed_byte_identical(self, tmp_path):
        a = synth_dataset(tmp_path / "a", n=15, seed=9)
        b = synth_dataset(tmp_path / "b", n=15, seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "synth.json", {"rows": 5})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d.jsonl")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "config"

    def test_weight_overrides_in_config(self, tmp_path):
        # zero planted weights collapse all ratings to the midpoint bin
        zeros20, zeros8 = [0.0] * 20, [0.0] * 8
        out = synth_dataset(tmp_path, n=5, extra={
            "appraisal_emotion_weights": [zeros8] * 20,
            "repurchase_appraisal_weights": zeros20,
            "repurchase_emotion_weights": zeros8,
            "promote_appraisal_weights": zeros20,
            "promote_emotion_weights": zeros8,
        })
        for record in ingest(out):
            assert record.pcb_promote == 4 and record.pcb_repurchase == 4


class TestTrain:
    def test_writes_all_three_artifacts(self, tmp_path):
        dataset = synth_dataset(tmp_path, n=50)
        cfg = quick_train_config(tmp_path, dataset, architecture=1)
        out_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "checkpoint_arch01_promote.params").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["artifacts"]["checkpoints"]

    def test_metrics_csv_columns(self, tmp_path):
        dataset = synth_dataset(tmp_path, n=50)
        cfg = quick_train_config(tmp_path, dataset, repetitions=2)
        out_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert set(rows[0]) == {"architecture_id", "family", "pcb_target",
                                "repetition", "accuracy", "f1_weighted", "seed"}
        assert rows[0]["family"] == "Baseline"

    def test_unknown_architecture_exits_nonzero(self, tmp_path, capsys):
        dataset = synth_dataset(tmp_path, n=20)
        cfg = quick_train_config(tmp_path, dataset, architecture=13)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "config"

    def test_documented_config_keys_accepted(self, tmp_path):
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset, finetune_fused=False,
                                 track_validation=True)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        dataset = synth_dataset(tmp_path, n=20)
        capsys.readouterr()
        cfg = quick_train_config(tmp_path, dataset, epochs=3)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "config"
        assert "epochs" in err["error"]["message"]

    def test_byte_identical_artifacts_across_runs(self, tmp_path):
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset, repetitions=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("metrics.csv", "summary.json", "checkpoint_arch03_promote.params"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset)
        out_dir = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out_dir),
                     "--seed", "77"]) == 0
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["seed"] == "77"

    def test_a_non_finite_summary_is_one_validation_line(self, tmp_path, capsys,
                                                        monkeypatch):
        from pcbnet import cli
        from pcbnet.experiment import MetricsSummary, RepetitionResult
        from pcbnet.models import build
        dataset = synth_dataset(tmp_path, n=20)
        cfg = quick_train_config(tmp_path, dataset, architecture=2)
        rows = [RepetitionResult(0, 0, accuracy=float("nan"), f1_weighted=0.5)]
        monkeypatch.setattr(cli, "run_sweep", lambda records, configs, workers: iter(
            [(MetricsSummary.aggregate(rows), build(2))]))
        out_dir = tmp_path / "r"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation"
        assert "summary.json" in error["message"] and "non-finite" in error["message"]
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_a_non_finite_manifest_value_is_refused(self, tmp_path):
        from pcbnet.cli import write_run
        from pcbnet.errors import ValidationError
        from pcbnet.experiment import MetricsSummary, RepetitionResult
        from pcbnet.models import build
        summary = MetricsSummary.aggregate([RepetitionResult(0, 0, 0.5, 0.5)])
        out_dir = tmp_path / "r"
        with pytest.raises(ValidationError, match="manifest.json holds a non-finite"):
            write_run(out_dir, "data.jsonl", [ExperimentConfig(architecture=2)],
                      iter([(summary, build(2))]), started=float("nan"))
        assert (out_dir / "summary.json").exists()
        assert not (out_dir / "manifest.json").exists()

    def test_a_refused_second_configuration_leaves_no_file(self, tmp_path):
        from pcbnet.cli import write_run
        from pcbnet.errors import ValidationError
        from pcbnet.experiment import MetricsSummary, RepetitionResult
        from pcbnet.models import build
        results = [(MetricsSummary.aggregate([RepetitionResult(0, 0, acc, 0.5)]), build(arch))
                   for arch, acc in ((2, 0.5), (3, float("nan")))]
        out_dir = tmp_path / "r"
        with pytest.raises(ValidationError, match="summary.json holds a non-finite"):
            write_run(out_dir, "data.jsonl", [ExperimentConfig(architecture=2),
                                              ExperimentConfig(architecture=3)],
                      iter(results), started=0.0)
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("found", [True, False], ids=["openblas", "no-setter"])
    def test_manifest_records_the_blas_library_and_thread_count(self, tmp_path, monkeypatch,
                                                                found):
        from pcbnet import blas
        if not found:
            monkeypatch.setattr(blas, "_find", lambda: None)
        elif blas._find() is None:
            pytest.skip("no OpenBLAS thread getter and setter found in this process")
        # the count the run inherits, though architecture 1 trains on one thread
        expected = blas.info()
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset, architecture=1)
        out_dir = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert {k: manifest[k] for k in ("blas_library", "blas_threads")} == expected
        if found:
            assert "openblas" in manifest["blas_library"] and manifest["blas_threads"] >= 1
        else:
            assert expected == {"blas_library": None, "blas_threads": None}

    def test_summary_reports_mean_and_std(self, tmp_path):
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset, repetitions=2)
        out_dir = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        entry = summary["arch03_promote"]
        assert {"mean_accuracy", "std_accuracy", "mean_f1", "std_f1"} <= set(entry)
        assert entry["std_kind"] == "population"


def readme_config_keys(command):
    """Backticked names in the README's "Config keys" sentence for ``command``.

    The sentence runs from the first colon after "Config keys" in the
    paragraph that starts with `command` to its closing full stop;
    parenthesized remarks (defaults, allowed values) are skipped.
    """
    paragraph = next(p for p in README.read_text().split("\n\n")
                     if p.startswith(f"`{command}`"))
    listing = paragraph[paragraph.index("Config keys"):]
    listing = listing[listing.index(":") + 1:]
    listing = re.split(r"\.\s", listing + " ", maxsplit=1)[0]
    return re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", listing))


class TestReadmeConfigKeys:
    def test_synth_keys_are_accepted(self):
        keys = readme_config_keys("synth")
        assert "record_count" in keys and "squash_scale" in keys
        assert set(keys) <= set(_SYNTH_SPECS)

    def test_every_synth_key_is_documented(self):
        assert set(_SYNTH_SPECS) <= set(readme_config_keys("synth"))

    def test_synth_keys_are_the_generator_fields_and_seed(self):
        names = {f.name for f in fields(SyntheticGeneratorConfig)}
        assert set(_SYNTH_SPECS) == names | {"seed"}

    def test_train_keys_are_accepted_and_cover_the_config(self):
        keys = readme_config_keys("train")
        assert "dataset" in keys and "track_validation" in keys
        assert set(keys) <= set(_TRAIN_SPECS)
        assert {f.name for f in fields(ExperimentConfig)} <= set(keys)


class TestOutputRoot:
    def test_env_var_sets_default_output_root(self, tmp_path, monkeypatch):
        root = tmp_path / "custom_root"
        monkeypatch.setenv("PCBNET_OUT", str(root))
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 0
        assert (root / "metrics.csv").exists()

    def test_summary_includes_class_distribution(self, tmp_path):
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset)
        out_dir = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        entry = json.loads((out_dir / "summary.json").read_text())["arch03_promote"]
        counts = entry["class_counts_low_moderate_high"]
        assert set(counts) == {"train", "validation", "test"}
        assert sum(counts["train"]) == 32  # 40 records at 80:10:10

    def test_class_distribution_follows_each_resplit(self, tmp_path):
        from pcbnet.data import segment_pcb, split_records
        dataset = synth_dataset(tmp_path, n=40)
        labels = [int(segment_pcb(r.pcb_promote)) for r in ingest(dataset)]

        def counts(seed):
            split = split_records(40, (0.8, 0.1, 0.1), seed)
            return {name: [sum(labels[i] == c for i in idx) for c in range(3)]
                    for name, idx in (("train", split.train),
                                      ("validation", split.validation),
                                      ("test", split.test))}

        summaries = {}
        for resplit in (False, True):
            cfg = quick_train_config(tmp_path, dataset, base_seed=5, repetitions=2,
                                     resplit_each_repetition=resplit)
            out_dir = tmp_path / f"resplit_{resplit}"
            assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
            summaries[resplit] = (out_dir / "summary.json").read_text()
        fixed = json.loads(summaries[False])["arch03_promote"]
        assert fixed["class_counts_low_moderate_high"] == counts(5)
        resplit = json.loads(summaries[True])["arch03_promote"]
        assert resplit["class_counts_low_moderate_high"] == [counts(5), counts(6)]
        assert counts(5) != counts(6)  # the per-repetition sets tell splits apart


class TestReport:
    def test_empty_dir_no_results_exit_zero(self, tmp_path, capsys):
        empty = tmp_path / "metrics"
        empty.mkdir()
        assert main(["report", str(empty)]) == 0
        assert "no results" in capsys.readouterr().out

    def test_single_architecture_row(self, tmp_path, capsys):
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset, architecture=2)
        out_dir = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        table = tmp_path / "table.txt"
        assert main(["report", str(out_dir), "--out", str(table)]) == 0
        out = capsys.readouterr().out
        assert "Appraisals -> PCB" in out
        assert "missing results" in out  # the other 23 combinations are gaps
        assert table.read_text() == out

    def test_family_group_headers(self):
        rows = [{"architecture_id": a, "pcb_target": t, "repetition": 0,
                 "accuracy": "0.5", "f1_weighted": "0.4", "seed": 0,
                 "family": "x"}
                for a in range(1, 13) for t in ("repurchase", "promote")]
        table = render_report(rows)
        for family in ("Baseline", "Constrained", "Multi-modal", "Multi-task",
                       "Theoretical model"):
            assert family in table
        assert "missing results" not in table
        assert "0.500 (0.000)" in table


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("attr")
    dataset = synth_dataset(tmp_path, n=60)
    cfg = quick_train_config(tmp_path, dataset, architecture=1,
                             text_epochs=2, lr=1e-3)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
    return dataset, out_dir / "checkpoint_arch01_promote.params", tmp_path


class TestAttribute:
    def test_writes_json_and_html_per_record(self, trained_run):
        dataset, checkpoint, tmp_path = trained_run
        rid = ingest(dataset)[0].id
        out_dir = tmp_path / "attr_out"
        assert main(["attribute", "--checkpoint", str(checkpoint),
                     "--dataset", str(dataset), "--records", rid,
                     "--steps", "8", "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / f"{rid}.json").read_text())
        assert report["record_id"] == rid
        assert (out_dir / f"{rid}.html").exists()

    def test_unknown_record_id(self, trained_run, capsys):
        dataset, checkpoint, tmp_path = trained_run
        assert main(["attribute", "--checkpoint", str(checkpoint),
                     "--dataset", str(dataset), "--records", "nope-123",
                     "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "lookup"
        assert "nope-123" in err["error"]["message"]

    # an unknown id after a known one: no report is written before every id is found
    @pytest.mark.parametrize("steps, unknown, category, wording", [
        ("0", False, "config", "--steps must be an integer >= 1, got 0"),
        ("-3", False, "config", "--steps must be an integer >= 1, got -3"),
        ("8", True, "lookup", "'nope-123' not found"),
    ])
    def test_bad_arguments_make_no_output_directory(self, trained_run, capsys, steps,
                                                    unknown, category, wording):
        dataset, checkpoint, tmp_path = trained_run
        rid = ingest(dataset)[0].id
        out_dir = tmp_path / f"attr_refused_{steps}"
        capsys.readouterr()
        assert main(["attribute", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--records", rid + (",nope-123" if unknown else ""),
                     "--steps", steps, "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == category and wording in error["message"], error
        assert not out_dir.exists()

    def test_an_empty_record_list_is_one_config_line(self, trained_run, capsys):
        dataset, checkpoint, tmp_path = trained_run
        out_dir = tmp_path / "attr_no_ids"
        capsys.readouterr()
        assert main(["attribute", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--records", ",", "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "config" and "no record ids given" in error["message"]
        assert not out_dir.exists()

    def test_predicted_target_flag(self, trained_run):
        dataset, checkpoint, tmp_path = trained_run
        rid = ingest(dataset)[1].id
        out_dir = tmp_path / "attr_pred"
        assert main(["attribute", "--checkpoint", str(checkpoint),
                     "--dataset", str(dataset), "--records", rid,
                     "--steps", "4", "--target", "predicted",
                     "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / f"{rid}.json").read_text())
        assert report["target_class"] == report["predicted_class"]

    def test_truncated_checkpoint_is_a_validation_error(self, trained_run, capsys):
        dataset, checkpoint, tmp_path = trained_run
        truncated = tmp_path / "truncated.params"
        raw = checkpoint.read_bytes()
        truncated.write_bytes(raw[:len(raw) // 2])
        assert main(["attribute", "--checkpoint", str(truncated),
                     "--dataset", str(dataset), "--records", ingest(dataset)[0].id,
                     "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "validation"

    def test_a_flipped_data_byte_is_one_validation_line(self, trained_run, capsys):
        dataset, checkpoint, tmp_path = trained_run
        flipped = tmp_path / "flipped_data.params"
        raw = bytearray(checkpoint.read_bytes())
        raw[-2] ^= 0x01  # a low mantissa byte of the last value
        flipped.write_bytes(bytes(raw))
        out_dir = tmp_path / "flipped_data_out"
        capsys.readouterr()
        assert main(["attribute", "--checkpoint", str(flipped),
                     "--dataset", str(dataset), "--records", ingest(dataset)[0].id,
                     "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation"
        assert str(flipped) in error["message"] and "sha256" in error["message"]
        assert not out_dir.exists()

    def test_renamed_metadata_key_is_a_validation_error(self, trained_run, capsys):
        from pcbnet.serialize import load_params, save_params
        dataset, checkpoint, tmp_path = trained_run
        flipped = tmp_path / "flipped.params"
        tensors, meta = load_params(checkpoint)
        meta["brchitecture_id"] = meta.pop("architecture_id")
        save_params(flipped, tensors, meta)
        assert main(["attribute", "--checkpoint", str(flipped),
                     "--dataset", str(dataset), "--records", ingest(dataset)[0].id,
                     "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "validation"
        assert "architecture_id" in err["error"]["message"]

    @pytest.mark.parametrize("key, value", [("pcb_target", "promot"),
                                            ("max_sequence_length", -2),
                                            ("architecture_id", 13),
                                            ("encoder_dim", 10**6),
                                            ("vocab", ["<pad>", "<unk>", "a", "a"])])
    def test_bad_checkpoint_metadata_is_one_validation_line(self, trained_run, capsys,
                                                            key, value):
        from pcbnet.serialize import load_params, save_params
        dataset, checkpoint, tmp_path = trained_run
        tensors, meta = load_params(checkpoint)
        bad = tmp_path / f"bad_{key}.params"
        save_params(bad, tensors, {**meta, key: value})
        out_dir = tmp_path / f"bad_{key}_out"
        capsys.readouterr()
        assert main(["attribute", "--checkpoint", str(bad), "--dataset", str(dataset),
                     "--records", ingest(dataset)[0].id, "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation"
        assert key in error["message"]
        assert not out_dir.exists() or not any(out_dir.iterdir()), "wrote a report"

    def test_checkpoint_tensors_that_do_not_fit_are_one_validation_line(self, trained_run,
                                                                        capsys):
        from pcbnet.serialize import load_params, save_params
        dataset, checkpoint, tmp_path = trained_run
        tensors, meta = load_params(checkpoint)
        bad = tmp_path / "empty_vocab.params"
        save_params(bad, tensors, {**meta, "vocab": []})
        out_dir = tmp_path / "empty_vocab_out"
        capsys.readouterr()
        assert main(["attribute", "--checkpoint", str(bad), "--dataset", str(dataset),
                     "--records", ingest(dataset)[0].id, "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation"
        assert "encoder.embedding" in error["message"]
        assert not out_dir.exists() or not any(out_dir.iterdir()), "wrote a report"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_non_finite_weight_is_one_validation_line(self, trained_run, capsys, value):
        from pcbnet.serialize import load_params, save_params
        dataset, checkpoint, tmp_path = trained_run
        tensors, meta = load_params(checkpoint)
        tensors["pcb_head.layer0.weight"][-1, -1] = value
        bad = tmp_path / f"non_finite_{value}.params"
        save_params(bad, tensors, meta)
        out_dir = tmp_path / f"non_finite_{value}_out"
        capsys.readouterr()
        assert main(["attribute", "--checkpoint", str(bad), "--dataset", str(dataset),
                     "--records", ingest(dataset)[0].id, "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation", error
        assert str(bad) in error["message"] and "pcb_head.layer0.weight" in error["message"]
        assert not out_dir.exists()

    # finite weights whose logits overflow: the report's values are not finite
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_a_report_that_overflows_is_one_validation_line(self, trained_run, capsys):
        from pcbnet.serialize import load_params, save_params
        dataset, checkpoint, tmp_path = trained_run
        tensors, meta = load_params(checkpoint)
        bad = tmp_path / "overflowing.params"
        save_params(bad, {k: t * 1e200 for k, t in tensors.items()}, meta)
        rid = ingest(dataset)[0].id
        out_dir = tmp_path / "overflowing_out"
        capsys.readouterr()
        assert main(["attribute", "--checkpoint", str(bad), "--dataset", str(dataset),
                     "--records", rid, "--out", str(out_dir)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation", error
        assert f"record {rid!r}" in error["message"] and "non-finite" in error["message"]
        assert not (out_dir / f"{rid}.json").exists()

    def test_rating_only_checkpoint_rejected(self, tmp_path, capsys):
        dataset = synth_dataset(tmp_path, n=40)
        cfg = quick_train_config(tmp_path, dataset, architecture=2)
        out_dir = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        rid = ingest(dataset)[0].id
        assert main(["attribute", "--checkpoint",
                     str(out_dir / "checkpoint_arch02_promote.params"),
                     "--dataset", str(dataset), "--records", rid,
                     "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["category"] == "capability"


# (command, config keys to set, error category); each value has the wrong type
# or range for its key
CONFIG_PROBES = [
    ("synth", {"record_count": "x"}, "config"),
    ("synth", {"record_count": 2.5}, "config"),
    ("synth", {"record_count": None}, "config"),
    ("synth", {"noise_scale": True}, "config"),
    ("synth", {"mean_review_length": -5}, "config"),
    ("synth", {"seed": "0"}, "config"),
    ("synth", {"appraisal_emotion_weights": "abc"}, "config"),
    ("synth", {"appraisal_emotion_weights": [[0.5, 1.0], [0.5]]}, "config"),
    ("synth", {"promote_emotion_weights": [0.1] * 7 + ["0.1"]}, "config"),
    ("train", {"architecture": "abc"}, "config"),
    ("train", {"architecture": 2.7}, "config"),
    ("train", {"text_epochs": "2"}, "config"),
    ("train", {"repetitions": 1.5}, "config"),
    ("train", {"split_ratios": 5}, "config"),
    ("train", {"split_ratios": [0.8, "0.1", 0.1]}, "config"),
    ("train", {"lr": "fast"}, "config"),
    ("train", {"lr": -0.01}, "config"),
    ("train", {"lr": float("inf")}, "config"),
    ("train", {"aux_loss_weight": -1.0}, "config"),
    ("train", {"aux_loss_weight": float("nan")}, "config"),
    ("train", {"split_ratios": [1.2, -0.1, -0.1]}, "config"),
    ("train", {"min_token_freq": None}, "config"),
    ("train", {"finetune_fused": "yes"}, "config"),
    ("train", {"precomputed_embeddings": 5}, "config"),
    ("train", {"dataset": 5}, "config"),
    ("train", {"encoder_dim": 0}, "config"),
    ("train", {"max_sequence_length": 0}, "config"),
    ("train", {"architecture": 1, "precomputed_embeddings": "missing.jsonl"}, "config"),
    ("train", {"architecture": 1, "encoder_dim": 2,
               "precomputed_embeddings": "latin1.jsonl"}, "validation"),
    ("train", {"architecture": 1, "encoder_dim": 2,
               "precomputed_embeddings": "huge.jsonl"}, "validation"),
    # every float key must be finite: NaN noise would silently mean no noise
    ("synth", {"noise_scale": float("nan")}, "config"),
    ("synth", {"noise_scale": float("inf")}, "config"),
    ("synth", {"squash_scale": float("nan")}, "config"),
    ("synth", {"squash_scale": float("inf")}, "config"),
    ("train", {"min_token_freq": -5}, "config"),
    ("train", {"min_token_freq": 0}, "config"),
    # seeds are non-negative, as numpy requires
    ("synth", {"seed": -1}, "config"),
    ("train", {"base_seed": -1}, "config"),
    # read as bool("no"), this would start all 24 combinations
    ("train", {"sweep": "no"}, "config"),
    # size budgets: a built encoder's width, a synth review's length
    ("train", {"encoder_dim": 10**20}, "config"),
    ("synth", {"mean_review_length": 10**20}, "config"),
]


def one_error_line(capsys) -> dict:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("probes")
    synth_dataset(tmp_path, n=20)
    (tmp_path / "latin1.jsonl").write_bytes(
        b'{"id": "caf\xe9", "embedding": [1.0, 2.0]}\n')
    (tmp_path / "huge.jsonl").write_text('{"id": "a", "embedding": [1' + "0" * 400 + ', 2]}\n')
    return tmp_path


class TestBadInputs:
    @pytest.mark.parametrize("command, values, category", CONFIG_PROBES,
                             ids=[f"{c}-{json.dumps(v)}" for c, v, _ in CONFIG_PROBES])
    def test_bad_config_value_is_one_json_line(self, probe_dir, tmp_path, capsys,
                                               command, values, category):
        values = {k: str(probe_dir / v) if k == "precomputed_embeddings"
                  and isinstance(v, str) else v for k, v in values.items()}
        out = tmp_path / "out"
        if command == "synth":
            cfg = write_config(tmp_path / "synth.json", {"record_count": 5, **values})
            argv = ["synth", "--config", cfg, "--out", str(out / "d.jsonl")]
        else:
            base = quick_train_config(tmp_path, probe_dir / "dataset.jsonl")
            cfg = write_config(tmp_path / "train.json",
                               {**json.loads(Path(base).read_text()), **values})
            argv = ["train", "--config", cfg, "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        error = one_error_line(capsys)
        assert error["category"] == category
        assert not out.exists() or not any(out.rglob("*.params")), "trained anyway"

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_flag_is_one_json_line(self, probe_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out / "d.jsonl")]
        else:
            cfg = quick_train_config(tmp_path, probe_dir / "dataset.jsonl")
            argv = ["train", "--config", cfg, "--out", str(out)]
        capsys.readouterr()
        assert main(argv + ["--seed", "-3"]) == 1
        assert one_error_line(capsys)["category"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize("key, wording", [("dataset", "must name a 'dataset' file"),
                                              ("architecture", "must set 'architecture'")])
    def test_a_train_config_without_a_required_key_is_one_config_line(
            self, probe_dir, tmp_path, capsys, key, wording):
        out = tmp_path / "out"
        base = quick_train_config(tmp_path, probe_dir / "dataset.jsonl")
        keys = json.loads(Path(base).read_text())
        del keys[key]
        cfg = write_config(tmp_path / "train.json", keys)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "config" and wording in error["message"], error
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_one_json_line(self, probe_dir, tmp_path, capsys, workers):
        out = tmp_path / "out"
        cfg = quick_train_config(tmp_path, probe_dir / "dataset.jsonl")
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out), "--workers", workers]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "config" and "--workers" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [("accuracy", "high"),
                                               ("f1_weighted", ""),
                                               ("architecture_id", "two"),
                                               # numbers that are not a metric or an id
                                               ("accuracy", "nan"),
                                               ("accuracy", "inf"),
                                               ("accuracy", "1e400"),
                                               ("f1_weighted", "-7"),
                                               ("architecture_id", "0"),
                                               ("architecture_id", "13"),
                                               ("pcb_target", "recommend"),
                                               # over the csv module's field limit
                                               pytest.param("family", "x" * 200_000,
                                                            id="family-over-field-limit")])
    def test_non_numeric_report_cell_names_file_and_line(self, tmp_path, capsys,
                                                         column, value):
        good = {"architecture_id": "3", "family": "Baseline", "pcb_target": "promote",
                "repetition": "0", "accuracy": "0.5", "f1_weighted": "0.4", "seed": "0"}
        path = tmp_path / "metrics.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(good))
            writer.writeheader()
            writer.writerow(good)
            writer.writerow({**good, column: value})
        assert main(["report", str(tmp_path)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation"
        assert str(path) in error["message"] and "line 3" in error["message"]

    def test_undecodable_report_csv_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        path.write_bytes(b"architecture_id,family,pcb_target,repetition,accuracy,"
                         b"f1_weighted,seed\n3,Baseline,promote,0,0.5,0.4,0\n"
                         b"3,Basel\xefne,promote,1,0.5,0.4,1\n")
        assert main(["report", str(tmp_path)]) == 1
        error = one_error_line(capsys)
        assert error["category"] == "validation"
        assert str(path) in error["message"] and "line 3" in error["message"]

    @pytest.mark.parametrize("argv, wording", [
        (lambda d, t: ["attribute", "--checkpoint", str(t / "missing.params"),
                       "--dataset", str(d / "dataset.jsonl"), "--records", "r",
                       "--out", str(t / "out")], "not found"),
        (lambda d, t: ["attribute", "--checkpoint", str(t), "--dataset",
                       str(d / "dataset.jsonl"), "--records", "r",
                       "--out", str(t / "out")], "directory"),
        (lambda d, t: ["synth", "--config", str(t), "--out", str(t / "out" / "d.jsonl")],
         "directory"),
        (lambda d, t: ["train", "--config", quick_train_config(t, t),
                       "--out", str(t / "out")], "directory"),
        (lambda d, t: ["train", "--config", quick_train_config(t, d / "dataset.jsonl"),
                       "--out", str(t / "afile")], "afile"),
        (lambda d, t: ["synth", "--out", str(t / "afile" / "x.jsonl")], "afile"),
        (lambda d, t: ["synth", "--out", str(t / "adir")], "directory"),
        (lambda d, t: ["report", str(t / "missing")], "not found"),
    ], ids=["attribute-missing-checkpoint", "attribute-checkpoint-is-a-directory",
            "synth-config-is-a-directory", "train-dataset-is-a-directory",
            "train-out-is-a-file", "synth-out-under-a-file", "synth-out-is-a-directory",
            "report-missing-directory"])
    def test_path_that_cannot_be_read_or_created_is_one_config_line(
            self, probe_dir, tmp_path, capsys, argv, wording):
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        argv = argv(probe_dir, tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv) == 1
        error = one_error_line(capsys)
        assert error["category"] == "config" and wording in error["message"], error
        after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before, "wrote output"

    @pytest.mark.parametrize("architecture, ratios", [(2, [0.0, 0.5, 0.5]),
                                                      (1, [0.0, 0.5, 0.5]),
                                                      (1, [0.9, 0.1, 0.0])])
    def test_empty_train_or_test_split_is_refused_before_training(
            self, probe_dir, tmp_path, capsys, monkeypatch, architecture, ratios):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a split that has no train or no test records")

        monkeypatch.setattr(experiment, "train", no_training)
        out = tmp_path / "out"
        cfg = quick_train_config(tmp_path, probe_dir / "dataset.jsonl",
                                 architecture=architecture, split_ratios=ratios)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert one_error_line(capsys)["category"] == "size"
        assert not out.exists() or not any(out.rglob("*.params"))

    @pytest.mark.parametrize("values, category", [
        ({"split_ratios": [0.5, 0.5, 0.5]}, "config"),
        ({"split_ratios": [1.0, 0.0, 0.0]}, "size"),
        ({"architecture": 1, "precomputed_embeddings": "missing.jsonl"}, "config"),
        ({"architecture": 1, "precomputed_embeddings": "narrow.jsonl", "encoder_dim": 8},
         "config"),
    ], ids=["ratios-over-one", "no-test-record", "missing-embeddings", "width-mismatch"])
    def test_a_refused_input_makes_no_output_directory(self, probe_dir, tmp_path, capsys,
                                                       values, category):
        from pcbnet.text import save_precomputed_embeddings
        save_precomputed_embeddings(tmp_path / "narrow.jsonl", {
            r.id: [0.0, 1.0] for r in ingest(probe_dir / "dataset.jsonl")})
        values = {k: str(tmp_path / v) if k == "precomputed_embeddings" else v
                  for k, v in values.items()}
        out = tmp_path / "out"
        cfg = quick_train_config(tmp_path, probe_dir / "dataset.jsonl", **values)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert one_error_line(capsys)["category"] == category
        assert not out.exists()
