import threading

import numpy as np
import pytest

from pcbnet.autodiff import backward
from pcbnet.data import SyntheticGeneratorConfig, generate_synthetic, split_records
from pcbnet.errors import ConfigError, SizeError
from pcbnet.experiment import (ExperimentConfig, MetricsSummary,
                               RepetitionResult, build_vocab_for_split,
                               compute_loss, evaluate, featurize,
                               run_repetitions, train)
from pcbnet.models import build
from pcbnet.text import token_mask

from oracles import reference_encode_texts


@pytest.fixture(scope="module")
def small_records():
    cfg = SyntheticGeneratorConfig(record_count=80, noise_scale=0.0,
                                   mean_review_length=50)
    return generate_synthetic(cfg, seed=21)


@pytest.fixture(scope="module")
def prepared(small_records):
    split = split_records(len(small_records), (0.8, 0.1, 0.1), 0)
    vocab = build_vocab_for_split(small_records, split, min_token_freq=1)
    return featurize(small_records, vocab), split


class TestFeaturize:
    def test_targets_and_scaling(self, prepared, small_records):
        from pcbnet.data import segment_emotion, segment_pcb
        data, _ = prepared
        for i in (0, 7, 31):
            record = small_records[i]
            assert np.allclose(data.appraisal_features[i],
                               (np.array(record.appraisals) - 4.0) / 3.0)
            for t in ("promote", "repurchase"):
                assert data.pcb_labels[t][i] == int(segment_pcb(record.pcb(t)))
            assert data.appraisal_target_classes[i].tolist() == [
                int(segment_pcb(a)) for a in record.appraisals]
            assert data.emotion_target_flags[i].tolist() == [
                segment_emotion(e) for e in record.emotions]


class TestLoss:
    @pytest.mark.parametrize("arch_id", [4, 10])
    def test_bce_appraisal_targets_are_one_hot_blocks(self, prepared, small_records,
                                                      arch_id):
        from pcbnet.autodiff import add, binary_cross_entropy, cross_entropy
        from pcbnet.data import segment_pcb
        data, split = prepared
        idx = split.train[:6]
        batch = data.batch(idx, "promote")
        # dimension k's block is columns k*3 .. k*3+2, with a 1 at its Likert class
        flags = np.zeros((len(idx), 60))
        for row, i in enumerate(idx):
            for k, rating in enumerate(small_records[i].appraisals):
                flags[row, k * 3 + int(segment_pcb(rating))] = 1.0
        model = build(arch_id, vocab=data.vocab, seed=0)
        out = model.forward(batch)
        cfg = ExperimentConfig(architecture=arch_id, aux_loss_weight=0.5)
        expected = add(cross_entropy(out["pcb_logits"], batch.pcb_labels),
                       binary_cross_entropy(out["appraisal_logits"], flags, weight=0.5))
        assert compute_loss(model, batch, cfg).item() == expected.item()


class TestBatch:
    def test_carries_only_the_inputs_of_the_given_modalities(self, prepared):
        data, split = prepared
        idx = split.train[:5]
        full = data.batch(idx, "promote")
        for modalities, present in [(("Appraisals",), "appraisal_features"),
                                    (("Emotions",), "emotion_features"),
                                    (("Text",), "token_ids")]:
            batch = data.batch(idx, "promote", modalities)
            for name in ("token_ids", "appraisal_features", "emotion_features"):
                assert (getattr(batch, name) is None) == (name != present), name
            for name in ("pcb_labels", "appraisal_target_classes", "emotion_target_flags"):
                assert np.array_equal(getattr(batch, name), getattr(full, name))
        text = data.batch(idx, "promote", ("Text",)).token_ids
        assert np.array_equal(text, full.token_ids)

    def test_stores_token_ids_alone_and_models_derive_the_float_mask(self, prepared,
                                                                     small_records):
        data, split = prepared
        assert not hasattr(data, "attention_mask")
        ids, mask = reference_encode_texts([r.text for r in small_records], data.vocab)
        idx = split.test
        got = data.batch(idx, "promote").token_ids
        derived = token_mask(got, data.vocab.pad_id)
        for array, want in ((got, ids[idx]), (derived, mask[idx])):
            assert array.dtype == want.dtype
            assert array.flags.c_contiguous
            assert array.tobytes() == want.tobytes()

    def test_training_and_evaluation_read_only_the_models_inputs(self, prepared,
                                                                 monkeypatch):
        data, split = prepared
        seen = []
        batch = type(data).batch

        def spy(self, idx, pcb_target, *modalities):
            out = batch(self, idx, pcb_target, *modalities)
            seen.append((out.token_ids is None, out.appraisal_features is None,
                         out.emotion_features is None))
            return out

        monkeypatch.setattr(type(data), "batch", spy)
        cfg = ExperimentConfig(architecture=2, rating_epochs=2, lr=1e-3)
        model = build(2, seed=0)
        train(model, data, split.train, cfg, seed=0)
        evaluate(model, data, split.test, "promote")
        assert seen == [(True, False, True)] * 3


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(architecture=2, repetitions=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(architecture=2, pcb_target="likes")
        with pytest.raises(ConfigError):
            ExperimentConfig(architecture=99)

    @pytest.mark.parametrize("key, value", [
        ("lr", -0.01), ("lr", float("nan")), ("lr", float("inf")),
        ("aux_loss_weight", -1.0), ("aux_loss_weight", float("nan")),
        ("aux_loss_weight", float("-inf"))])
    def test_lr_and_aux_weight_are_range_checked(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(architecture=10, **{key: value})

    def test_zero_lr_and_aux_weight_are_accepted(self):
        cfg = ExperimentConfig(architecture=10, lr=0.0, aux_loss_weight=0.0)
        assert cfg.lr == 0.0 and cfg.aux_loss_weight == 0.0

    def test_epoch_selection_by_modality(self):
        cfg = ExperimentConfig(architecture=1, text_epochs=10, rating_epochs=2000)
        assert cfg.epochs_for(("Text",)) == 10
        assert cfg.epochs_for(("Appraisals",)) == 2000
        assert cfg.epochs_for(("Text", "Appraisals")) == 10


class TestTrain:
    def test_zero_lr_leaves_parameters_bit_identical(self, prepared):
        data, split = prepared
        cfg = ExperimentConfig(architecture=2, rating_epochs=3, lr=0.0)
        model = build(2, seed=0)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        train(model, data, split.train, cfg, seed=0)
        for k, p in model.parameters().items():
            assert np.array_equal(before[k], p.data), k

    def test_same_seed_identical_loss_traces(self, prepared):
        data, split = prepared
        cfg = ExperimentConfig(architecture=1, text_epochs=2, lr=1e-3, batch_size=8)
        traces = []
        for _ in range(2):
            model = build(1, vocab=data.vocab, seed=4)
            traces.append(train(model, data, split.train, cfg, seed=4).loss_trace)
        assert traces[0] == traces[1]

    def test_total_steps_epochs_times_batches(self, prepared):
        data, split = prepared
        cfg = ExperimentConfig(architecture=1, text_epochs=3, batch_size=16, lr=1e-4)
        model = build(1, vocab=data.vocab, seed=0)
        result = train(model, data, split.train, cfg, seed=0)
        batches = (len(split.train) + 15) // 16
        assert result.steps == 3 * batches == len(result.loss_trace)

    def test_rating_models_train_full_batch(self, prepared):
        data, split = prepared
        cfg = ExperimentConfig(architecture=3, rating_epochs=4, batch_size=16, lr=1e-4)
        model = build(3, seed=0)
        result = train(model, data, split.train, cfg, seed=0)
        assert result.steps == 4  # one full-batch step per epoch

    def test_loss_moving_average_non_increasing_late(self, prepared):
        data, split = prepared
        cfg = ExperimentConfig(architecture=2, rating_epochs=400, lr=1e-3)
        model = build(2, seed=1)
        trace = np.array(train(model, data, split.train, cfg, seed=1).loss_trace)
        window = 50
        ma = np.convolve(trace, np.ones(window) / window, mode="valid")
        tail = ma[int(len(ma) * 0.75):]
        assert np.all(np.diff(tail) <= 1e-9)

    def test_multimodal_trains_components_then_fusion(self, prepared):
        data, split = prepared
        cfg = ExperimentConfig(architecture=7, text_epochs=1, rating_epochs=2,
                               lr=1e-3, batch_size=16)
        model = build(7, vocab=data.vocab, seed=0)
        result = train(model, data, split.train, cfg, seed=0)
        assert result.diagnostics["component_appraisals_steps"] == 2
        # components end frozen
        frozen = [p for k, p in model.parameters().items()
                  if k.startswith(("text_model.", "appraisal_model."))]
        assert frozen and all(not p.requires_grad for p in frozen)


class TestEvaluate:
    def test_empty_split_rejected(self, prepared):
        data, _ = prepared
        with pytest.raises(SizeError):
            evaluate(build(2), data, [], "promote")

    def test_perfect_predictions(self, prepared):
        data, split = prepared
        # train long enough on zero-noise data for near-perfect train fit
        cfg = ExperimentConfig(architecture=2, rating_epochs=150, lr=3e-3)
        model = build(2, seed=0)
        train(model, data, split.train, cfg, seed=0)
        result = evaluate(model, data, split.train, "promote")
        assert result.accuracy >= 0.95
        assert 0.0 <= result.f1_weighted <= 1.0

    def test_aux_diagnostics_reported(self, prepared):
        data, split = prepared
        model = build(12, vocab=data.vocab, seed=0)
        result = evaluate(model, data, split.test, "promote")
        assert "emotion_flag_accuracy" in result.diagnostics
        assert "appraisal_class_accuracy" in result.diagnostics

    def test_records_no_graph_while_another_thread_trains(self, prepared):
        data, split = prepared
        model = build(12, vocab=data.vocab, seed=0)
        trained = build(2, seed=0)
        outputs, failures = [], []
        inside, release = threading.Event(), threading.Event()
        forward = model.forward

        def paused_forward(batch, **kwargs):
            out = forward(batch, **kwargs)
            outputs.append(out)
            inside.set()
            release.wait(timeout=60)
            return out

        def evaluate_in_thread():
            try:
                evaluate(model, data, split.test, "promote")
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        model.forward = paused_forward
        worker = threading.Thread(target=evaluate_in_thread)
        worker.start()
        try:
            assert inside.wait(timeout=60)
            # the evaluating thread is inside its no-graph block right now
            cfg = ExperimentConfig(architecture=2)
            backward(compute_loss(trained, data.batch(split.train[:16], "promote"), cfg))
            for path, p in trained.parameters().items():
                assert p.grad is not None, path
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert not failures
        assert outputs
        for out in outputs:
            for name, t in out.items():
                assert t.node is None and not t.requires_grad, name


class TestRepetitions:
    def test_single_repetition_zero_std(self, small_records):
        cfg = ExperimentConfig(architecture=3, repetitions=1, rating_epochs=2,
                               lr=1e-3, base_seed=5)
        summary, _ = run_repetitions(small_records, cfg)
        assert summary.std_accuracy == 0.0
        assert summary.std_f1 == 0.0
        assert len(summary.rows) == 1
        assert summary.rows[0].seed == 5

    def test_aggregation_of_constant_vector(self):
        rows = [RepetitionResult(i, i, 0.7, 0.7) for i in range(5)]
        summary = MetricsSummary.aggregate(rows)
        assert summary.mean_accuracy == pytest.approx(0.7)
        assert summary.std_accuracy == 0.0

    def test_population_std(self):
        rows = [RepetitionResult(0, 0, 0.5, 0.5), RepetitionResult(1, 1, 1.0, 1.0)]
        summary = MetricsSummary.aggregate(rows)
        assert summary.std_accuracy == pytest.approx(0.25)  # divide by n

    def test_seeds_and_fixed_split(self, small_records):
        cfg = ExperimentConfig(architecture=3, repetitions=3, rating_epochs=2,
                               lr=1e-3, base_seed=10)
        summary, _ = run_repetitions(small_records, cfg)
        assert [r.seed for r in summary.rows] == [10, 11, 12]

    def test_workers_match_serial_results(self, small_records):
        cfg = ExperimentConfig(architecture=3, repetitions=3, rating_epochs=3,
                               lr=1e-3, base_seed=0)
        serial, _ = run_repetitions(small_records, cfg, workers=1)
        threaded, _ = run_repetitions(small_records, cfg, workers=3)
        assert [r.accuracy for r in serial.rows] == [r.accuracy for r in threaded.rows]
        assert [r.f1_weighted for r in serial.rows] == [r.f1_weighted for r in threaded.rows]

    @pytest.mark.parametrize("resplit, workers", [(False, 1), (True, 1), (False, 2)],
                             ids=["fixed-split", "resplit", "workers-2"])
    def test_returns_the_last_repetitions_model(self, small_records, resplit, workers):
        from pcbnet.experiment import run_repetition
        cfg = ExperimentConfig(architecture=12, repetitions=3, text_epochs=1, lr=1e-3,
                               base_seed=4, min_token_freq=1,
                               resplit_each_repetition=resplit)
        summary, model = run_repetitions(small_records, cfg, workers=workers)
        last = cfg.repetitions - 1
        split = split_records(len(small_records), cfg.split_ratios,
                              cfg.base_seed + (last if resplit else 0))
        data = featurize(small_records, build_vocab_for_split(small_records, split, 1))
        result, expected = run_repetition(small_records, data, split, cfg, last)
        got, want = model.parameters(), expected.parameters()
        assert list(got) == list(want)
        for name, param in want.items():
            assert got[name].data.tobytes() == param.data.tobytes(), name
        assert summary.rows[-1].accuracy == result.accuracy
        assert summary.rows[-1].class_counts == result.class_counts
        assert [sum(c) for c in result.class_counts.values()] == [
            len(split.train), len(split.validation), len(split.test)]

    def test_resplit_flag_changes_split(self, small_records):
        cfg = ExperimentConfig(architecture=3, repetitions=2, rating_epochs=2,
                               lr=1e-3, base_seed=0, resplit_each_repetition=True)
        summary, _ = run_repetitions(small_records, cfg)
        assert len(summary.rows) == 2

    def test_validation_curve_tracked_on_request(self, small_records):
        cfg = ExperimentConfig(architecture=3, repetitions=1, rating_epochs=6,
                               lr=1e-3, base_seed=0, track_validation=True)
        summary, _ = run_repetitions(small_records, cfg)
        trace = summary.rows[0].diagnostics["validation_trace"]
        assert trace and all(0.0 <= acc <= 1.0 for _, acc in trace)


class TestEncoderSlot:
    def test_precomputed_embeddings_slot_in_end_to_end(self, small_records, tmp_path):
        from pcbnet.text import save_precomputed_embeddings
        rng = np.random.default_rng(0)
        table = {r.id: rng.normal(size=16) for r in small_records}
        path = tmp_path / "embeddings.jsonl"
        save_precomputed_embeddings(path, table)
        cfg = ExperimentConfig(architecture=1, repetitions=1, text_epochs=2,
                               lr=1e-3, encoder_dim=16,
                               precomputed_embeddings=str(path))
        summary, _ = run_repetitions(small_records, cfg)
        assert 0.0 <= summary.mean_accuracy <= 1.0

    def test_precomputed_width_may_exceed_the_built_encoder_ceiling(self, small_records,
                                                                     tmp_path):
        from pcbnet.experiment import MAX_BUILT_ENCODER_DIM
        from pcbnet.text import save_precomputed_embeddings
        width = MAX_BUILT_ENCODER_DIM + 1
        rng = np.random.default_rng(0)
        path = tmp_path / "embeddings.jsonl"
        save_precomputed_embeddings(path, {r.id: rng.normal(size=width)
                                           for r in small_records})
        cfg = ExperimentConfig(architecture=1, repetitions=1, text_epochs=1,
                               lr=1e-3, encoder_dim=width,
                               precomputed_embeddings=str(path))
        summary, _ = run_repetitions(small_records, cfg)
        assert 0.0 <= summary.mean_accuracy <= 1.0
        with pytest.raises(ConfigError, match="encoder_dim"):
            ExperimentConfig(architecture=1, encoder_dim=width)

    @pytest.mark.parametrize("arch_id", [1, 9])
    def test_precomputed_width_mismatch_fails_before_training(
            self, small_records, tmp_path, monkeypatch, arch_id):
        from pcbnet import experiment
        from pcbnet.text import save_precomputed_embeddings
        rng = np.random.default_rng(0)
        path = tmp_path / "embeddings.jsonl"
        save_precomputed_embeddings(path, {r.id: rng.normal(size=64)
                                           for r in small_records})
        trained = []
        monkeypatch.setattr(experiment, "_train_single",
                            lambda model, *args, **kwargs: trained.append(model))
        cfg = ExperimentConfig(architecture=arch_id, repetitions=1, text_epochs=1,
                               rating_epochs=1, encoder_dim=128,
                               precomputed_embeddings=str(path))
        with pytest.raises(ConfigError, match=r"\b64\b.*\b128\b"):
            run_repetitions(small_records, cfg)
        assert trained == []

    def test_precomputed_encoder_rejects_attribution(self, small_records):
        from pcbnet.attribution import integrated_gradients
        from pcbnet.errors import CapabilityError
        model = build(1, encoder_dim=8, precomputed=True)
        with pytest.raises(CapabilityError):
            integrated_gradients(model, small_records[0])

    @staticmethod
    def write_embeddings(path, records, width=8):
        """One random row per record, written in reverse record order."""
        from pcbnet.text import save_precomputed_embeddings
        rng = np.random.default_rng(0)
        table = {r.id: rng.normal(size=width) for r in records}
        save_precomputed_embeddings(path, dict(reversed(table.items())))
        return table

    def test_batch_rows_follow_the_record_order(self, small_records, tmp_path):
        from pcbnet.text import load_embeddings
        path = tmp_path / "embeddings.jsonl"
        table = self.write_embeddings(path, small_records)
        rows = load_embeddings(path, [r.id for r in small_records])
        data = featurize(small_records, None, 256, rows)
        idx = [5, 0, 17]
        batch = data.batch(idx, "promote")
        assert np.array_equal(batch.text_features, [table[small_records[i].id] for i in idx])
        assert batch.token_ids is None
        assert data.batch(idx, "promote", ("Appraisals",)).text_features is None

    def test_a_record_without_an_embedding_fails_before_training(
            self, small_records, tmp_path, monkeypatch):
        from pcbnet import nn
        from pcbnet.errors import ValidationError
        path = tmp_path / "embeddings.jsonl"
        cfg = ExperimentConfig(architecture=7, repetitions=1, text_epochs=1,
                               rating_epochs=1, encoder_dim=8,
                               precomputed_embeddings=str(path))
        test_idx = split_records(len(small_records), cfg.split_ratios, cfg.base_seed).test
        missing = small_records[test_idx[0]].id
        self.write_embeddings(path, [r for r in small_records if r.id != missing])
        steps = []
        monkeypatch.setattr(nn.Adam, "step", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(ValidationError, match=missing):
            run_repetitions(small_records, cfg)
        assert steps == []

    def test_the_file_is_read_once_per_run(self, small_records, tmp_path, monkeypatch):
        from pcbnet import experiment
        path = tmp_path / "embeddings.jsonl"
        self.write_embeddings(path, small_records)
        calls = []
        load = experiment.load_embeddings
        monkeypatch.setattr(experiment, "load_embeddings",
                            lambda *args: calls.append(args) or load(*args))
        cfg = ExperimentConfig(architecture=1, repetitions=3, text_epochs=1, lr=1e-3,
                               encoder_dim=8, resplit_each_repetition=True,
                               precomputed_embeddings=str(path))
        summary, _ = run_repetitions(small_records, cfg)
        assert len(summary.rows) == 3
        assert len(calls) == 1

    def test_finetune_fused_leaves_towers_trainable(self, prepared):
        data, split = prepared
        cfg = ExperimentConfig(architecture=7, text_epochs=1, rating_epochs=1,
                               lr=1e-3, finetune_fused=True)
        model = build(7, vocab=data.vocab, seed=0)
        train(model, data, split.train, cfg, seed=0)
        params = model.parameters()
        # tower feature layers stay trainable; off-path classifier layers freeze
        assert params["appraisal_model.pcb_head.layer0.weight"].requires_grad
        assert params["appraisal_model.pcb_head.layer1.weight"].requires_grad
        assert not params["appraisal_model.pcb_head.layer2.weight"].requires_grad
        assert not params["text_model.pcb_head.layer0.weight"].requires_grad
        assert params["text_model.encoder.embedding"].requires_grad
