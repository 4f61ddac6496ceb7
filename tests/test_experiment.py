import dataclasses
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.autodiff import backward
from pcbnet.data import (ReviewRecord, SyntheticGeneratorConfig, generate_synthetic,
                         split_records)
from pcbnet.errors import ConfigError, SizeError, TrainingError, ValidationError
from pcbnet.experiment import (ExperimentConfig, MetricsSummary,
                               RepetitionResult, build_vocab_for_split,
                               compute_loss, evaluate, featurize,
                               run_sweep, train)
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

    @given(st.lists(st.lists(st.integers(1, 7), min_size=30, max_size=30),
                    min_size=1, max_size=12),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_targets_follow_the_per_value_rules(self, rows, numpy_ints):
        from pcbnet.data import segment_emotion, segment_pcb
        to_int = np.int64 if numpy_ints else int
        records = [ReviewRecord(
            id=f"r{i}", text="fine .", appraisals=tuple(to_int(v) for v in row[:20]),
            emotions=tuple(to_int(v) for v in row[20:28]),
            pcb_repurchase=to_int(row[28]), pcb_promote=to_int(row[29]))
            for i, row in enumerate(rows)]
        data = featurize(records, None)
        assert data.appraisal_target_classes.dtype == np.int64
        assert data.appraisal_target_classes.tolist() == [
            [int(segment_pcb(a)) for a in row[:20]] for row in rows]
        assert data.emotion_target_flags.dtype == np.float64
        assert data.emotion_target_flags.tolist() == [
            [segment_emotion(e) for e in row[20:28]] for row in rows]
        for t, col in (("repurchase", 28), ("promote", 29)):
            assert data.pcb_labels[t].dtype == np.int64
            assert data.pcb_labels[t].tolist() == [int(segment_pcb(row[col])) for row in rows]

    @pytest.mark.parametrize("field", ["appraisals", "emotions", "pcb_repurchase",
                                       "pcb_promote"])
    @pytest.mark.parametrize("bad", [0, 8, 3.5, True])
    def test_invalid_rating_is_a_validation_error(self, small_records, field, bad):
        record = small_records[0]
        value = getattr(record, field)
        if isinstance(value, tuple):
            bad = value[:3] + (bad,) + value[4:]
        with pytest.raises(ValidationError):
            records = [small_records[1], dataclasses.replace(record, **{field: bad})]
            featurize(records, None)

    def test_a_library_record_with_ragged_ratings_is_refused_when_made(self, small_records):
        with pytest.raises(ValidationError, match="expected 20 appraisal ratings, got 19"):
            records = [small_records[1],
                       dataclasses.replace(small_records[0],
                                           appraisals=small_records[0].appraisals[:19])]
            featurize(records, None)


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


    @pytest.mark.parametrize("arch_id", [4, 10])
    def test_ce_appraisal_targets_are_per_dimension_classes(self, prepared, small_records,
                                                            arch_id):
        from pcbnet.autodiff import add, cross_entropy, grouped_cross_entropy
        from pcbnet.data import segment_pcb
        data, split = prepared
        idx = split.train[:6]
        batch = data.batch(idx, "promote")
        # dimension k's 3-way logits are columns k*3 .. k*3+2, its target its Likert class
        classes = np.array([[int(segment_pcb(rating)) for rating in small_records[i].appraisals]
                            for i in idx])
        model = build(arch_id, vocab=data.vocab, seed=0)
        out = model.forward(batch)
        cfg = ExperimentConfig(architecture=arch_id, appraisal_loss="ce", aux_loss_weight=0.5)
        expected = add(cross_entropy(out["pcb_logits"], batch.pcb_labels),
                       grouped_cross_entropy(out["appraisal_logits"], classes, groups=20,
                                             weight=0.5))
        got = compute_loss(model, batch, cfg)
        assert got.data.tobytes() == expected.data.tobytes()


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

    @pytest.mark.parametrize("rows", [lambda n: [1.5], lambda n: [-5], lambda n: [True, False],
                                      lambda n: [n + 5], lambda n: [-n - 10],
                                      lambda n: [True, 3]],
                             ids=["float", "negative", "bool", "past-end", "before-start",
                                  "bool-and-int"])
    def test_reads_only_integer_rows_in_range(self, prepared, rows):
        data, _ = prepared
        idx = rows(len(data.appraisal_features))
        cfg = ExperimentConfig(architecture=2, rating_epochs=1)
        for call in (lambda: data.batch(idx, "promote"),
                     lambda: train(build(2), data, idx, cfg, seed=0),
                     lambda: evaluate(build(2), data, idx, "promote")):
            with pytest.raises(ConfigError, match="row ind"):
                call()

    def test_an_empty_index_gives_an_empty_batch(self, prepared):
        data, _ = prepared
        batch = data.batch([], "promote")
        assert batch.pcb_labels.shape == (0,) and batch.token_ids.shape[0] == 0

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

    def test_learning_rate_decays_linearly_to_the_last_step(self, prepared, monkeypatch):
        from pcbnet import nn
        data, split = prepared
        rates = []
        step = nn.Adam.step

        def spy(self, lr=None):
            rates.append(lr)
            step(self, lr)

        monkeypatch.setattr(nn.Adam, "step", spy)
        batches = (len(split.train) + 15) // 16
        # a minibatch text model, then a full-batch rating model
        for arch_id, epochs, total in ((1, 3, 3 * batches), (2, 5, 5)):
            rates.clear()
            cfg = ExperimentConfig(architecture=arch_id, text_epochs=epochs,
                                   rating_epochs=epochs, batch_size=16, lr=1e-3)
            model = build(arch_id, vocab=data.vocab, seed=0)
            assert train(model, data, split.train, cfg, seed=0).steps == total
            assert rates == [cfg.lr * (1 - s / total) for s in range(total)]
            assert rates[0] == cfg.lr
            assert all(a > b for a, b in zip(rates, rates[1:])) and rates[-1] > 0

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
        init = {k: p.data.copy() for k, p in model.parameters().items()}
        result = train(model, data, split.train, cfg, seed=0)
        assert result.steps == (len(split.train) + 15) // 16  # the fusion phase alone
        # each tower trained, then ends frozen
        towers = {k: p for k, p in model.parameters().items()
                  if k.startswith(("text_model.", "appraisal_model."))}
        assert towers and all(not p.requires_grad for p in towers.values())
        assert all(not np.array_equal(p.data, init[k]) for k, p in towers.items())

    def test_towers_and_fusion_train_with_the_repetitions_seed(self, small_records,
                                                                 monkeypatch):
        from pcbnet import experiment
        calls = []

        def record(model, data, train_idx, cfg, seed, validation_idx=None):
            calls.append((model.spec.id, seed))
            return experiment.TrainResult([], 0, [])

        monkeypatch.setattr(experiment, "_train_single", record)
        cfg = ExperimentConfig(architecture=9, repetitions=2, base_seed=3, min_token_freq=1)
        next(run_sweep(small_records, [cfg]))
        for seed, trained in ((3, calls[:4]), (4, calls[4:])):
            assert sorted(trained[:3]) == [(1, seed), (2, seed), (3, seed)]
            assert trained[3] == (9, seed)
        assert len(calls) == 8

    @pytest.mark.parametrize("arch_id", [2, 9, 12])
    def test_steps_compute_in_float32_and_parameters_stay_float64(self, prepared,
                                                                  arch_id, monkeypatch):
        # a numpy float64 scalar in a step would widen it to float64 silently
        from pcbnet import autodiff, nn
        data, split = prepared
        seen: list[tuple[str, np.dtype]] = []
        result, step = autodiff._result, nn.Adam.step

        def spy_result(out, op_kind, inputs, backward_fn):
            seen.append((op_kind, out.dtype))

            def spy_backward(g):
                seen.append((f"{op_kind} gradient", g.dtype))
                backward_fn(g)
            return result(out, op_kind, inputs, spy_backward)

        def spy_step(self, lr=None):
            seen.extend((f"{k} gradient", p.grad.dtype) for k, p in self.params.items())
            step(self, lr)
            seen.extend(("moment", moments.dtype) for moments in (self.m, self.v))

        monkeypatch.setattr(autodiff, "_result", spy_result)
        monkeypatch.setattr(nn.Adam, "step", spy_step)
        cfg = ExperimentConfig(architecture=arch_id, text_epochs=1, rating_epochs=1,
                               batch_size=len(split.train), lr=1e-3)
        model = build(arch_id, vocab=data.vocab, seed=0)
        train(model, data, split.train, cfg, seed=0)
        assert any("moment" in name for name, _ in seen)
        assert [(name, dt) for name, dt in seen if dt != np.float32] == []
        assert {p.data.dtype for p in model.parameters().values()} == {np.dtype(np.float64)}

    def test_a_non_finite_loss_leaves_float64_parameters(self, prepared):
        data, split = prepared
        poisoned = dataclasses.replace(
            data, appraisal_features=np.full_like(data.appraisal_features, np.nan))
        model = build(2, seed=0)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        with pytest.raises(TrainingError, match="non-finite loss at step 0"):
            train(model, poisoned, split.train, ExperimentConfig(architecture=2), seed=0)
        for k, p in model.parameters().items():
            assert p.data.dtype == np.float64 and np.array_equal(p.data, before[k]), k

    @pytest.mark.parametrize("arch_id, finetune", [(2, False), (9, False), (9, True),
                                                   (12, False)])
    def test_trained_parameters_share_one_float32_arena_for_the_call(self, prepared, arch_id,
                                                                     finetune, monkeypatch):
        from pcbnet import nn
        data, split = prepared
        model = build(arch_id, vocab=data.vocab, seed=0)
        step, frozen_seen = nn.Adam.step, []

        def spy_step(self, lr=None):
            buffer = next(iter(self.params.values())).data.base
            assert buffer is not None and buffer.dtype == np.float32 and buffer.ndim == 1
            assert buffer.size == sum(p.data.size for p in self.params.values())
            assert all(p.data.base is buffer for p in self.params.values())
            frozen = [p for k, p in model.parameters().items() if k not in self.params]
            assert not any(np.shares_memory(p.data, buffer) for p in frozen)
            frozen_seen.append(len(frozen))
            step(self, lr)

        monkeypatch.setattr(nn.Adam, "step", spy_step)
        cfg = ExperimentConfig(architecture=arch_id, text_epochs=1, rating_epochs=2,
                               batch_size=16, lr=1e-3, finetune_fused=finetune)
        train(model, data, split.train, cfg, seed=0)
        assert frozen_seen and (arch_id != 9 or frozen_seen[-1] > 0)
        for k, p in model.parameters().items():
            assert p.data.dtype == np.float64 and p.data.base is None and p.grad is None, k

    def test_a_non_finite_loss_leaves_no_arena_and_no_gradient(self, prepared):
        # architecture 9's text tower trains; its appraisal tower fails at step 0
        data, split = prepared
        poisoned = dataclasses.replace(
            data, appraisal_features=np.full_like(data.appraisal_features, np.nan))
        model = build(9, vocab=data.vocab, seed=0)
        cfg = ExperimentConfig(architecture=9, text_epochs=1, lr=1e-3)
        with pytest.raises(TrainingError, match="non-finite loss at step 0"):
            train(model, poisoned, split.train, cfg, seed=0)
        for k, p in model.parameters().items():
            assert p.data.dtype == np.float64 and p.data.base is None and p.grad is None, k

    @pytest.mark.parametrize("arch_id", [1, 2, 9])
    def test_empty_train_index_is_a_size_error(self, prepared, arch_id):
        data, _ = prepared
        cfg = ExperimentConfig(architecture=arch_id, text_epochs=1, rating_epochs=2)
        with pytest.raises(SizeError, match="empty train index"):
            train(build(arch_id, vocab=data.vocab), data, [], cfg, seed=0)


class TestEvaluate:
    def test_empty_split_rejected(self, prepared):
        data, _ = prepared
        with pytest.raises(SizeError):
            evaluate(build(2), data, [], "promote")

    def test_unknown_pcb_target_is_a_config_error(self, prepared):
        data, split = prepared
        with pytest.raises(ConfigError, match="unknown PCB target 'loyalty'"):
            data.batch(split.test, "loyalty")
        with pytest.raises(ConfigError, match="unknown PCB target 'loyalty'"):
            evaluate(build(2), data, split.test, "loyalty")

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
        summary, _ = next(run_sweep(small_records, [cfg]))
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
        summary, _ = next(run_sweep(small_records, [cfg]))
        assert [r.seed for r in summary.rows] == [10, 11, 12]

    def test_workers_match_serial_results(self, small_records):
        cfg = ExperimentConfig(architecture=3, repetitions=3, rating_epochs=3,
                               lr=1e-3, base_seed=0)
        serial, _ = next(run_sweep(small_records, [cfg], workers=1))
        threaded, _ = next(run_sweep(small_records, [cfg], workers=3))
        assert [r.accuracy for r in serial.rows] == [r.accuracy for r in threaded.rows]
        assert [r.f1_weighted for r in serial.rows] == [r.f1_weighted for r in threaded.rows]

    @pytest.mark.parametrize("resplit, workers", [(False, 1), (True, 1), (False, 2)],
                             ids=["fixed-split", "resplit", "workers-2"])
    def test_returns_the_last_repetitions_model(self, small_records, resplit, workers):
        from pcbnet.experiment import run_repetition
        cfg = ExperimentConfig(architecture=12, repetitions=3, text_epochs=1, lr=1e-3,
                               base_seed=4, min_token_freq=1,
                               resplit_each_repetition=resplit)
        summary, model = next(run_sweep(small_records, [cfg], workers=workers))
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
        summary, _ = next(run_sweep(small_records, [cfg]))
        assert len(summary.rows) == 2

    def test_validation_curve_tracked_on_request(self, small_records):
        cfg = ExperimentConfig(architecture=3, repetitions=1, rating_epochs=6,
                               lr=1e-3, base_seed=0, track_validation=True)
        summary, _ = next(run_sweep(small_records, [cfg]))
        trace = summary.rows[0].diagnostics["validation_trace"]
        assert trace and all(0.0 <= acc <= 1.0 for _, acc in trace)


class TestSweep:
    """``run_sweep`` prepares each split once, keyed on everything that makes it."""

    SETUP = ("build_vocab_for_split", "featurize", "load_embeddings")

    @pytest.fixture
    def calls(self, monkeypatch):
        """The name of each set-up or repetition call, in call order."""
        from pcbnet import experiment
        calls = []
        for name in (*self.SETUP, "run_repetition"):
            def counted(*args, _name=name, _fn=getattr(experiment, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(experiment, name, counted)
        return calls

    def test_a_sweep_prepares_every_split_once_before_it_trains(self, tmp_path, calls):
        from pcbnet.cli import main
        from pcbnet.data import write_jsonl
        write_jsonl(generate_synthetic(SyntheticGeneratorConfig(
            record_count=60, mean_review_length=20), seed=2), tmp_path / "data.jsonl")
        (tmp_path / "train.json").write_text(json.dumps({
            "dataset": str(tmp_path / "data.jsonl"), "repetitions": 1, "text_epochs": 1,
            "rating_epochs": 1, "encoder_dim": 4}))
        assert main(["train", "--config", str(tmp_path / "train.json"), "--sweep",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == ["build_vocab_for_split", "featurize", "featurize",
                         *["run_repetition"] * 24]

    @pytest.mark.parametrize("resplit, embeddings, counts", [
        (False, False, (1, 2, 0)), (True, False, (2, 4, 0)),
        (False, True, (0, 2, 1)), (True, True, (0, 4, 1))],
        ids=["fixed", "resplit", "fixed-embeddings", "resplit-embeddings"])
    def test_set_up_calls_per_sweep(self, small_records, tmp_path, calls,
                                    resplit, embeddings, counts):
        from pcbnet.data import PCB_TARGETS
        from pcbnet.models import ARCHITECTURES
        path = None
        if embeddings:
            path = str(tmp_path / "emb.jsonl")
            TestEncoderSlot.write_embeddings(path, small_records, width=4)
        run_sweep(small_records, [
            ExperimentConfig(architecture=spec.id, pcb_target=target, repetitions=2,
                             resplit_each_repetition=resplit, encoder_dim=4,
                             precomputed_embeddings=path)
            for spec in ARCHITECTURES for target in PCB_TARGETS])
        assert tuple(map(calls.count, self.SETUP)) == counts
        assert "run_repetition" not in calls  # nothing trains until it is drawn

    @pytest.mark.parametrize("field, value", [
        ("base_seed", 1), ("split_ratios", (0.6, 0.2, 0.2)), ("min_token_freq", 10),
        ("max_sequence_length", 8), ("resplit_each_repetition", True),
        ("precomputed_embeddings", "emb.jsonl")])
    def test_configs_that_differ_in_a_key_field_run_as_if_alone(
            self, small_records, tmp_path, field, value):
        from pcbnet.models import save_model
        if field == "precomputed_embeddings":
            value = str(tmp_path / value)
            TestEncoderSlot.write_embeddings(value, small_records)
        cfg = ExperimentConfig(architecture=1, repetitions=2, text_epochs=1, lr=1e-3,
                               encoder_dim=8, min_token_freq=1)
        configs = [cfg, dataclasses.replace(cfg, **{field: value})]

        def outputs(summary, model, name):
            save_model(tmp_path / name, model)
            return summary.rows, (tmp_path / name).read_bytes()

        together = [outputs(*result, f"together{i}")
                    for i, result in enumerate(run_sweep(small_records, configs))]
        alone = [outputs(*next(run_sweep(small_records, [c])), f"alone{i}")
                 for i, c in enumerate(configs)]
        assert together == alone
        assert alone[0] != alone[1]


class TestTowers:
    @pytest.mark.parametrize("resplit", [False, True], ids=["fixed-split", "resplit"])
    def test_each_tower_is_its_same_repetition_baseline(self, small_records, resplit):
        from pcbnet.experiment import run_repetition
        base_seed = 5
        for rep in range(2):
            split = split_records(len(small_records), (0.8, 0.1, 0.1),
                                  base_seed + (rep if resplit else 0))
            data = featurize(small_records, build_vocab_for_split(small_records, split, 1))

            def trained(arch_id, finetune=False):
                cfg = ExperimentConfig(architecture=arch_id, repetitions=2, text_epochs=1,
                                       rating_epochs=3, lr=1e-3, base_seed=base_seed,
                                       min_token_freq=1, resplit_each_repetition=resplit,
                                       finetune_fused=finetune)
                return run_repetition(small_records, data, split, cfg, rep)[1]

            baselines = {arch_id: trained(arch_id) for arch_id in (1, 2, 3)}
            for fused in (7, 8, 9):
                for finetune in (False, True):
                    towers = trained(fused, finetune).components.values()
                    assert len(towers) == (3 if fused == 9 else 2)
                    for tower in towers:
                        baseline = baselines[tower.spec.id]
                        if finetune:  # the fusion phase trains the rest of the tower
                            got = tower.heads["pcb_head"].layers[-1].parameters()
                            want = baseline.heads["pcb_head"].layers[-1].parameters()
                        else:
                            got, want = tower.parameters(), baseline.parameters()
                        assert [path.split(".", 1)[1] for path in got] == list(want)
                        for (path, param), expected in zip(got.items(), want.values()):
                            assert param.data.tobytes() == expected.data.tobytes(), (
                                rep, finetune, path)


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
        summary, _ = next(run_sweep(small_records, [cfg]))
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
        summary, _ = next(run_sweep(small_records, [cfg]))
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
            next(run_sweep(small_records, [cfg]))
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
            next(run_sweep(small_records, [cfg]))
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
        summary, _ = next(run_sweep(small_records, [cfg]))
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
