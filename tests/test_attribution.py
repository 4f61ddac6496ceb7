import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from pcbnet import nn
from pcbnet.attribution import (AttributionReport, integrated_gradients,
                                rank_tokens, report_to_html, report_to_json)
from pcbnet.autodiff import (Tensor, backward_from, embedding_bag, embedding_lookup,
                             masked_mean)
from pcbnet.cli import main
from pcbnet.data import (APPRAISAL_WORDS, EMOTION_WORDS, SyntheticGeneratorConfig,
                         generate_synthetic, segment_emotion, segment_pcb, split_records,
                         write_jsonl)
from pcbnet.errors import CapabilityError, ConfigError, GraphError, ValidationError
from pcbnet.experiment import (ExperimentConfig, build_vocab_for_split,
                               featurize, train)
from pcbnet.models import ModelInstance, build, save_model
from pcbnet.text import token_mask


@pytest.fixture(scope="module")
def trained_text_model():
    """Architecture 1 trained on a small zero-noise set with planted lexicon."""
    cfg = SyntheticGeneratorConfig(record_count=300, noise_scale=0.0,
                                   mean_review_length=60)
    records = generate_synthetic(cfg, seed=31)
    split = split_records(len(records), (0.8, 0.1, 0.1), 0)
    vocab = build_vocab_for_split(records, split)
    data = featurize(records, vocab)
    model = build(1, vocab=vocab, seed=0)
    train(model, data, split.train,
          ExperimentConfig(architecture=1, text_epochs=12, lr=3e-3), seed=0)
    return cfg, records, split, model


class TestClosedFormLinearCase:
    def test_linear_model_zero_baseline_is_exact(self, trained_text_model):
        # architecture 1 is linear from token embeddings to logits, so with a
        # zero baseline the attribution is x * dF/dx exactly for any steps
        _, records, split, model = trained_text_model
        record = records[split.test[0]]
        for steps in (1, 4):
            report = integrated_gradients(model, record, steps=steps,
                                          baseline="zero", target_class=2)
            assert report.completeness_gap < 1e-10
        r1 = integrated_gradients(model, record, steps=1, baseline="zero",
                                  target_class=2)
        r64 = integrated_gradients(model, record, steps=64, baseline="zero",
                                   target_class=2)
        assert np.allclose(r1.scores, r64.scores, atol=1e-12)

    def test_matches_analytic_gradient(self, trained_text_model):
        _, records, split, model = trained_text_model
        record = records[split.test[1]]
        report = integrated_gradients(model, record, steps=1, baseline="zero",
                                      target_class=1)
        # dF/dx[l] = (P @ W)[:, target] / L for the mean-pool + linear path
        grad_row = (model.encoder.projection.weight.data
                    @ model.heads["pcb_head"].layers[0].weight.data)[:, 1]
        ids = model.encoder.vocab.ids(report.tokens)
        x = model.encoder.embedding.data[ids]
        expected = (x * grad_row / len(report.tokens)).sum(axis=1)
        assert np.allclose(report.scores, expected, atol=1e-10)

    def test_constant_output_gives_zero_attributions(self, trained_text_model):
        _, records, split, model_src = trained_text_model
        model = build(1, vocab=model_src.encoder.vocab, seed=0)
        head = model.heads["pcb_head"].layers[0]
        head.weight.data[...] = 0.0  # F is constant in the input
        head.bias.data[...] = 1.0
        report = integrated_gradients(model, records[split.test[0]], steps=8)
        assert np.allclose(report.scores, 0.0, atol=1e-15)
        assert report.completeness_gap < 1e-12


class TestCompleteness:
    def test_gap_shrinks_with_steps_on_nonlinear_model(self):
        cfg = SyntheticGeneratorConfig(record_count=120, noise_scale=0.0,
                                       mean_review_length=40)
        records = generate_synthetic(cfg, seed=37)
        split = split_records(len(records), (0.8, 0.1, 0.1), 0)
        vocab = build_vocab_for_split(records, split)
        data = featurize(records, vocab)
        # architecture 12 puts relu layers between embeddings and the logit
        model = build(12, vocab=vocab, seed=0)
        train(model, data, split.train,
              ExperimentConfig(architecture=12, text_epochs=4, lr=1e-3), seed=0)
        for idx in split.test[:4]:
            record = records[idx]
            gap16 = integrated_gradients(model, record, steps=16).completeness_gap
            gap4096 = integrated_gradients(model, record, steps=4096).completeness_gap
            assert gap4096 < gap16

    def test_token_at_baseline_gets_zero_attribution(self, trained_text_model):
        _, records, split, model = trained_text_model
        record = records[split.test[0]]
        report = integrated_gradients(model, record, steps=16, baseline="pad")
        pad_row = model.encoder.embedding.data[model.encoder.vocab.pad_id]
        ids = model.encoder.vocab.ids(report.tokens)
        for pos, tid in enumerate(ids):
            if np.array_equal(model.encoder.embedding.data[tid], pad_row):
                assert report.scores[pos] == 0.0

    def test_determinism(self, trained_text_model):
        _, records, split, model = trained_text_model
        record = records[split.test[2]]
        a = integrated_gradients(model, record, steps=32)
        b = integrated_gradients(model, record, steps=32)
        assert a.scores == b.scores
        assert a.completeness_gap == b.completeness_gap
        assert a == b


class TestContracts:
    def test_rating_only_model_rejected(self, trained_text_model):
        _, records, _, _ = trained_text_model
        with pytest.raises(CapabilityError):
            integrated_gradients(build(2), records[0])

    def test_bad_steps_and_baseline(self, trained_text_model):
        _, records, _, model = trained_text_model
        with pytest.raises(ConfigError):
            integrated_gradients(model, records[0], steps=0)
        with pytest.raises(ConfigError):
            integrated_gradients(model, records[0], baseline="noise")

    @pytest.mark.parametrize("name, value, refused", [
        ("steps", 2.5, True), ("steps", "3", True), ("steps", True, True),
        ("steps", np.int64(2), False), ("target_class", np.int64(1), False)])
    def test_arguments_follow_the_integer_rule(self, trained_text_model, name, value,
                                               refused):
        _, records, _, model = trained_text_model
        kwargs = {"steps": 2, name: value}
        if refused:
            with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                integrated_gradients(model, records[0], **kwargs)
        else:
            report = json.loads(report_to_json(integrated_gradients(model, records[0],
                                                                    **kwargs)))
            assert report[name] == value and type(report[name]) is int

    def test_unknown_pcb_target_is_refused_and_flags_are_restored(self,
                                                                  trained_text_model):
        _, records, _, trained = trained_text_model
        model = build(1, vocab=trained.encoder.vocab, seed=0)
        model.heads["pcb_head"].layers[0].weight.requires_grad = False
        before = {path: p.requires_grad for path, p in model.parameters().items()}
        with pytest.raises(ConfigError, match="unknown PCB target 'loyalty'"):
            integrated_gradients(model, records[0], pcb_target="loyalty")
        assert {path: p.requires_grad for path, p in model.parameters().items()} == before

    @pytest.mark.parametrize("target_class", [True, False, -1, 3, 1.0, "high"])
    def test_bad_target_class(self, trained_text_model, target_class):
        _, records, _, model = trained_text_model
        with pytest.raises(ConfigError, match="target_class"):
            integrated_gradients(model, records[0], target_class=target_class, steps=2)

    def test_gold_class_default_target(self, trained_text_model):
        _, records, split, model = trained_text_model
        record = records[split.test[0]]
        report = integrated_gradients(model, record, pcb_target="promote", steps=4)
        assert report.target_class == int(segment_pcb(record.pcb_promote))


class TestRankTokens:
    def make_report(self, tokens, scores):
        return AttributionReport(
            record_id="r", tokens=tokens, scores=scores, target_class=2,
            predicted_class=2, completeness_gap=0.0, output_value=1.0,
            baseline_value=0.0, steps=4, baseline="pad", pcb_target="promote")

    def test_magnitude_ordering(self):
        report = self.make_report(["a", "b", "c"], [0.5, -0.9, 0.1])
        top = rank_tokens(report, 2)
        assert [t[0] for t in top] == [1, 0]

    def test_full_k_is_permutation(self):
        report = self.make_report(["a", "b", "c"], [0.2, -0.1, 0.3])
        top = rank_tokens(report, 3)
        assert sorted(t[1] for t in top) == ["a", "b", "c"]

    def test_negative_k_is_refused(self):
        report = self.make_report(["a", "b", "c"], [0.2, -0.1, 0.3])
        assert rank_tokens(report, 0) == []
        for k in (-1, 1.5, "2", None, True):
            with pytest.raises(ConfigError, match="k must be"):
                rank_tokens(report, k)

    def test_ties_broken_by_earlier_position(self):
        report = self.make_report(["a", "b", "c"], [0.5, -0.5, 0.5])
        assert [t[0] for t in rank_tokens(report, 3)] == [0, 1, 2]

    def test_probability_extremes_surface_their_planted_words(self, trained_text_model):
        # the most and least promotable test records (by predicted High
        # probability) must surface their own planted lexicon words
        _, records, split, model = trained_text_model
        data = featurize(records, model.encoder.vocab)
        logits = model.forward(data.batch(split.test, "promote"))["pcb_logits"].data
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        high_prob = probs[:, 2] / probs.sum(axis=1)
        for pick in (split.test[int(np.argmax(high_prob))],
                     split.test[int(np.argmin(high_prob))]):
            record = records[pick]
            planted = set()
            for k, rating in enumerate(record.appraisals):
                if segment_pcb(rating) == 2:
                    planted |= set(APPRAISAL_WORDS[k][0])
                elif segment_pcb(rating) == 0:
                    planted |= set(APPRAISAL_WORDS[k][1])
            for e, rating in enumerate(record.emotions):
                if segment_emotion(rating):
                    planted |= set(EMOTION_WORDS[e])
            report = integrated_gradients(model, record, steps=32,
                                          target_class="predicted")
            top = {token for _, token, _ in rank_tokens(report, 10)}
            assert top & planted, record.id

    def test_planted_lexicon_words_surface_in_top10(self, trained_text_model):
        _, records, split, model = trained_text_model
        hits = total = 0
        for idx in split.test:
            record = records[idx]
            planted: set[str] = set()
            for k, rating in enumerate(record.appraisals):
                if segment_pcb(rating) == 2:
                    planted |= set(APPRAISAL_WORDS[k][0])
                elif segment_pcb(rating) == 0:
                    planted |= set(APPRAISAL_WORDS[k][1])
            for e, rating in enumerate(record.emotions):
                if segment_emotion(rating):
                    planted |= set(EMOTION_WORDS[e])
            if not planted:
                continue
            report = integrated_gradients(model, record, steps=32)
            top = {token for _, token, _ in rank_tokens(report, 10)}
            total += 1
            if top & planted:
                hits += 1
        assert total > 10
        assert hits / total >= 0.8


class TestSerialization:
    @pytest.mark.parametrize("field", ["completeness_gap", "output_value", "scores"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_non_finite_value_is_refused_not_written_as_invalid_json(self, field, value):
        report = AttributionReport(
            record_id="r", tokens=["a", "b"], scores=[0.5, -0.25], target_class=2,
            predicted_class=2, completeness_gap=0.0, output_value=1.0,
            baseline_value=0.0, steps=4, baseline="pad", pcb_target="promote")
        setattr(report, field, [0.5, value] if field == "scores" else value)
        with pytest.raises(ValidationError, match="record 'r'.*non-finite"):
            report_to_json(report)

    def test_json_round_trip_fields(self, trained_text_model):
        import json
        _, records, split, model = trained_text_model
        report = integrated_gradients(model, records[split.test[0]], steps=4)
        obj = json.loads(report_to_json(report))
        assert obj["record_id"] == records[split.test[0]].id
        assert len(obj["tokens"]) == len(obj["scores"])
        assert "completeness_gap" in obj

    def test_html_contains_tokens_and_no_timestamp(self, trained_text_model):
        _, records, split, model = trained_text_model
        record = records[split.test[0]]
        html_a = report_to_html(integrated_gradients(model, record, steps=4))
        html_b = report_to_html(integrated_gradients(model, record, steps=4))
        assert html_a == html_b  # deterministic output
        assert record.id in html_a
        assert "<span" in html_a


@pytest.fixture(scope="module")
def small_corpus():
    cfg = SyntheticGeneratorConfig(record_count=120, noise_scale=0.0,
                                   mean_review_length=40)
    records = generate_synthetic(cfg, seed=41)
    split = split_records(len(records), (0.8, 0.1, 0.1), 0)
    vocab = build_vocab_for_split(records, split)
    return records, split, vocab, featurize(records, vocab)


class TestModelGradientsUntouched:
    @pytest.mark.parametrize("arch_id", [12, 9])
    def test_no_parameter_gradient_and_flags_restored(self, small_corpus, arch_id):
        records, split, vocab, data = small_corpus
        model = build(arch_id, vocab=vocab, seed=0)
        train(model, data, split.train,
              ExperimentConfig(architecture=arch_id, text_epochs=1, rating_epochs=2,
                               lr=1e-3), seed=0)
        flags = {path: p.requires_grad for path, p in model.parameters().items()}
        if arch_id == 9:  # the frozen towers are part of what must be kept
            assert not all(flags.values()) and any(flags.values())
        integrated_gradients(model, records[split.test[0]], steps=8)
        for path, p in model.parameters().items():
            assert p.grad is None, path
            assert p.requires_grad == flags[path], path

    def test_training_step_after_attribution_is_unchanged(self, small_corpus):
        records, split, vocab, data = small_corpus
        cfg = ExperimentConfig(architecture=12, text_epochs=1, batch_size=16, lr=1e-3)
        attributed, plain = build(12, vocab=vocab, seed=0), build(12, vocab=vocab, seed=0)
        integrated_gradients(attributed, records[split.test[0]], steps=8)
        for model in (attributed, plain):
            train(model, data, split.train[:16], cfg, seed=0)  # exactly one step
        got, want = attributed.parameters(), plain.parameters()
        for path in want:
            assert np.array_equal(got[path].data, want[path].data), path


TEXT_ARCHITECTURES = [1, 4, 5, 6, 7, 8, 9, 10, 11, 12]


def widened(model):
    """``model`` with each parameter widened to float64 in place, exactly: the
    arithmetic that integrated gradients runs a float32 model in."""
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)
    return model


def per_token_reference(model, record, target_class, steps, baseline):
    """Integrated gradients as one batch-1 pass per α-step through the
    per-token path: the gradient reaches every token embedding through the
    encoder projection's and ``masked_mean``'s backward and is summed over the
    steps. F(x) and F(x') come from ``embedding_bag``, the pooling the model
    itself runs, and the projection.

    Returns (scores, F(x), F(x'), predicted class).
    """
    encoder = model.encoder
    batch = featurize([record], encoder.vocab, encoder.max_sequence_length).batch(
        [0], "promote")
    ids, mask = batch.token_ids, token_mask(batch.token_ids, encoder.vocab.pad_id)
    x = embedding_lookup(encoder.embedding, ids).data
    if baseline == "pad":
        x_base = np.broadcast_to(encoder.embedding.data[encoder.vocab.pad_id],
                                 x.shape).copy()
        p_base = embedding_bag(encoder.embedding, np.full_like(ids, encoder.vocab.pad_id),
                               mask)
    else:
        x_base = np.zeros_like(x)
        p_base = Tensor(np.zeros((1, x.shape[2])))

    def logits(pooled):
        features = encoder.projection(pooled)
        return model.forward(replace(batch, text_features=features))["pcb_logits"]

    params = [p for p in model.parameters().values() if p.requires_grad]
    for p in params:
        p.requires_grad = False
    try:
        grad_sum = np.zeros_like(x)
        for j in range(steps):
            emb = Tensor(x_base + (j + 0.5) / steps * (x - x_base), requires_grad=True)
            out = logits(masked_mean(emb, mask))
            seed = np.zeros_like(out.data)
            seed[0, target_class] = 1.0
            backward_from(out, seed)
            grad_sum += emb.grad
        f_x = float(logits(embedding_bag(encoder.embedding, ids, mask)).data[0, target_class])
        f_base = float(logits(p_base).data[0, target_class])
        predicted = int(np.argmax(model.forward(batch)["pcb_logits"].data[0]))
    finally:
        for p in params:
            p.requires_grad = True
    scores = ((x - x_base) * (grad_sum / steps))[0, :int(mask.sum())].sum(axis=1)
    return scores, f_x, f_base, predicted


class TestPooledAlphaBatch:
    @pytest.mark.parametrize("baseline", ["pad", "zero"])
    @pytest.mark.parametrize("arch_id", TEXT_ARCHITECTURES)
    def test_matches_per_token_reference(self, small_corpus, arch_id, baseline):
        records, split, vocab, _ = small_corpus
        model = build(arch_id, vocab=vocab, seed=0)
        wide = widened(build(arch_id, vocab=vocab, seed=0))
        record = records[split.test[1]]
        gold = int(segment_pcb(record.pcb_promote))
        for steps in (1, 7, 128, 300):  # 300 spans three α-blocks
            report = integrated_gradients(model, record, steps=steps, baseline=baseline)
            scores, f_x, f_base, predicted = per_token_reference(
                wide, record, gold, steps, baseline)
            assert report.target_class == gold
            # the benchmark's tolerance for a recomputation in another order
            assert np.abs(np.asarray(report.scores) - scores).max() \
                <= 1e-9 * np.abs(scores).max(), steps
            assert report.output_value == f_x
            assert report.baseline_value == f_base
            assert report.predicted_class == predicted

    @pytest.mark.parametrize("arch_id", TEXT_ARCHITECTURES)
    def test_output_value_is_the_models_own_logit(self, small_corpus, arch_id):
        # the logit of the model widened to float64, as its checkpoint loads
        records, split, vocab, _ = small_corpus
        model = build(arch_id, vocab=vocab, seed=0)
        wide = widened(build(arch_id, vocab=vocab, seed=0))
        for i in split.test[:3]:
            report = integrated_gradients(model, records[i], steps=4)
            batch = featurize([records[i]], vocab, model.encoder.max_sequence_length).batch(
                [0], "promote")
            logits = wide.forward(batch)["pcb_logits"].data[0]
            assert logits.dtype == np.float64
            assert report.output_value == logits[report.target_class]

    def test_only_the_alpha_batch_records_a_graph(self, small_corpus, monkeypatch):
        records, split, vocab, _ = small_corpus
        model = build(12, vocab=vocab, seed=0)
        calls = []
        forward = ModelInstance.forward

        def recording_forward(self, batch):
            out = forward(self, batch)
            path = batch.alpha_path
            calls.append((None if path is None else len(path), len(batch.text_features.data),
                          out["pcb_logits"]))
            return out

        monkeypatch.setattr(ModelInstance, "forward", recording_forward)
        integrated_gradients(model, records[split.test[0]], target_class="predicted",
                             steps=300)
        # F(x), which also gives the predicted class, and F(x'): one row each, no graph
        assert [(steps, rows, logits.shape, logits.node is None)
                for steps, rows, logits in calls[:2]] == [(None, 1, (1, 3), True)] * 2
        # then one graph per α-block: at most 128 steps, each read off the 2-row basis
        assert [(steps, rows, logits.shape, logits.node is not None)
                for steps, rows, logits in calls[2:]] == [
            (128, 2, (128, 3), True), (128, 2, (128, 3), True), (44, 2, (44, 3), True)]


# (weight, rows it has as a product's right operand) -> what the α-path reads it
# with: "basis" runs on at most 2 rows, "one row" on 1, "per step" on a row per α
_PRODUCTS = {
    12: {("encoder.projection.weight", 128): "one row",
         ("appraisal_head.layer0.weight", 128): "basis",
         ("emotion_head.layer0.weight", 60): "basis",
         ("emotion_head.layer1.weight", 512): "per step",
         ("pcb_head.layer0.weight", 128): "basis",  # the text embedding's rows
         ("pcb_head.layer0.weight", 60): "basis",  # the appraisal head's
         ("pcb_head.layer0.weight", 8): "per step",  # the emotion head's, past its ReLU
         ("pcb_head.layer0.weight", 196): "one row",  # all of them, in F(x) and F(x')
         ("pcb_head.layer1.weight", 512): "per step"},
    9: {("text_model.encoder.projection.weight", 128): "one row",
        ("appraisal_model.pcb_head.layer0.weight", 20): "one row",
        ("appraisal_model.pcb_head.layer1.weight", 1024): "one row",
        ("emotion_model.pcb_head.layer0.weight", 8): "one row",
        ("emotion_model.pcb_head.layer1.weight", 1024): "one row",
        ("pcb_head.layer0.weight", 128): "basis",  # the text tower's rows
        ("pcb_head.layer0.weight", 512): "one row",  # each rating tower's
        ("pcb_head.layer0.weight", 1152): "one row",  # all of them, in F(x) and F(x')
        ("pcb_head.layer1.weight", 1024): "per step",
        ("pcb_head.layer2.weight", 512): "per step"},
}


@pytest.mark.parametrize("arch_id", sorted(_PRODUCTS))
def test_products_before_the_first_relu_run_on_the_basis(small_corpus, monkeypatch, arch_id):
    records, split, vocab, _ = small_corpus
    model = build(arch_id, vocab=vocab, seed=0)
    weights = {name: p for name, p in model.parameters().items() if name.endswith(".weight")}
    rows: dict[tuple[str, int], set[int]] = {}
    expansions = set()
    matmul = nn.matmul

    def recording_matmul(a, b):
        owner = [name for name, p in weights.items() if np.shares_memory(b.data, p.data)]
        if owner:
            rows.setdefault((owner[0], b.shape[0]), set()).add(a.shape[0])
        else:  # a fixed [1 - α, α] matrix, or a column of ones, times a 1- or 2-row value
            expansions.add((a.shape, b.shape[0]))
        return matmul(a, b)

    monkeypatch.setattr(nn, "matmul", recording_matmul)
    integrated_gradients(model, records[split.test[0]], steps=128)
    assert set(rows) == set(_PRODUCTS[arch_id])
    want = {"basis": {1, 2}, "one row": {1}, "per step": {1, 128}}
    for product, seen in rows.items():
        assert seen <= want[_PRODUCTS[arch_id][product]], (product, seen)
        assert max(seen) == max(want[_PRODUCTS[arch_id][product]]), (product, seen)
    assert expansions and all(a[0] in (2, 128) and a[1] == inner <= 2
                              for a, inner in expansions), expansions


@pytest.mark.parametrize("arch_id", [1, 12])
def test_an_alpha_path_needs_frozen_parameters(small_corpus, monkeypatch, arch_id):
    # the α-path reads weight rows as constants, so a model with a parameter
    # that would train is refused before the walk records anything
    _, _, vocab, data = small_corpus
    model = build(arch_id, vocab=vocab, seed=0)
    batch = data.batch([0], "promote")
    basis = Tensor(np.zeros((2, model.encoder_dim)), requires_grad=True)
    batch.text_features = basis
    batch.alpha_path = np.array([[0.75, 0.25], [0.25, 0.75]])
    products = []
    monkeypatch.setattr(nn, "matmul", lambda a, b: products.append((a, b)))
    with pytest.raises(GraphError, match="'encoder.embedding' must be frozen on an α-path"):
        model.forward(batch)
    assert products == [] and basis.grad is None
    assert all(p.requires_grad and p.grad is None for p in model.parameters().values())


class TestStoredDtype:
    """Integrated gradients computes in float64 whatever dtype the model stores."""

    @pytest.mark.parametrize("arch_id", [1, 9, 12])
    def test_a_float32_model_its_float64_copy_and_its_checkpoint_agree(
            self, small_corpus, tmp_path, arch_id):
        records, split, vocab, data = small_corpus
        model = build(arch_id, vocab=vocab, seed=0)
        train(model, data, split.train, ExperimentConfig(
            architecture=arch_id, text_epochs=1, rating_epochs=2, lr=1e-3), seed=0)
        held = {k: p.data for k, p in model.parameters().items()}
        assert {a.dtype for a in held.values()} == {np.dtype(np.float32)}
        wide = widened(copy.deepcopy(model))
        chosen = [records[i] for i in split.test[:3]]
        reports = {}
        for record in chosen:
            for baseline in ("pad", "zero"):
                got, want = (report_to_json(integrated_gradients(
                    m, record, steps=16, baseline=baseline)) for m in (model, wide))
                assert got == want, (record.id, baseline)
                reports[record.id, baseline] = got
        # the call put back the very arrays the model held
        assert all(p.data is held[k] for k, p in model.parameters().items())

        checkpoint, dataset = tmp_path / "model.params", tmp_path / "records.jsonl"
        save_model(checkpoint, model, meta={"pcb_target": "promote"})
        write_jsonl(chosen, dataset)
        out_dir = tmp_path / "attributions"
        assert main(["attribute", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--records", ",".join(r.id for r in chosen), "--steps", "16",
                     "--out", str(out_dir)]) == 0
        for record in chosen:
            written = (out_dir / f"{record.id}.json").read_text()
            assert written == reports[record.id, "pad"] + "\n", record.id
