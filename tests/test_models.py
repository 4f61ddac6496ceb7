import hashlib
import json

import numpy as np
import pytest

from pcbnet.autodiff import backward
from pcbnet.data import SyntheticGeneratorConfig, generate_synthetic
from pcbnet.errors import ConfigError, InputError, ValidationError
from pcbnet.experiment import ExperimentConfig, compute_loss, featurize, train
from pcbnet.models import Batch, build, describe, load_model, save_model
from pcbnet.nn import Adam
from pcbnet.serialize import load_params, save_params
from pcbnet.text import Vocabulary

from architecture_fixtures import DRAW_SHA256, FIXTURES, INIT_SHA256, PARAMETER_SHAPES


@pytest.fixture(scope="module")
def tiny_data():
    records = generate_synthetic(
        SyntheticGeneratorConfig(record_count=12, noise_scale=0.3,
                                 mean_review_length=40), seed=1)
    vocab = Vocabulary.build([r.text for r in records], min_freq=1)
    return featurize(records, vocab)


def batch_of(data, n=4, target="promote"):
    return data.batch(list(range(n)), target)


class TestDescribe:
    @pytest.mark.parametrize("arch_id", range(1, 13))
    def test_matches_hand_written_fixture(self, arch_id):
        assert describe(build(arch_id, encoder_dim=128)) == FIXTURES[arch_id]

    def test_all_twelve_distinct(self):
        blobs = {json.dumps(describe(build(k)), sort_keys=True) for k in range(1, 13)}
        assert len(blobs) == 12

    def test_stable_across_seeds(self):
        assert describe(build(12, seed=1)) == describe(build(12, seed=999))

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError):
            build(13)
        with pytest.raises(ConfigError):
            build(0)

    def test_theoretical_chain_edges(self):
        desc = describe(build(12))
        edges = {tuple(e) for e in desc["edges"]}
        assert ("TextEmbedding", "AppraisalHead") in edges
        assert ("AppraisalHead", "EmotionHead") in edges
        for source in ("TextEmbedding", "AppraisalHead", "EmotionHead"):
            assert (source, "FusionConcat") in edges


def text_to_pcb_paths(desc):
    """All node-name paths from TextEmbedding to PCBHead."""
    children: dict[str, list[str]] = {}
    for a, b in desc["edges"]:
        children.setdefault(a, []).append(b)
    paths, stack = [], [("TextEmbedding", ["TextEmbedding"])]
    while stack:
        node, path = stack.pop()
        if node == "PCBHead":
            paths.append(path)
            continue
        for nxt in children.get(node, []):
            stack.append((nxt, path + [nxt]))
    return paths


class TestBottleneckProperty:
    @pytest.mark.parametrize("arch_id,limit", [(4, 60), (5, 8), (6, 8)])
    def test_constrained_paths_pass_through_narrow_layer(self, arch_id, limit):
        desc = describe(build(arch_id))
        widths = {n["name"]: n["widths"][-1] for n in desc["nodes"]}
        paths = text_to_pcb_paths(desc)
        assert paths
        for path in paths:
            interior = path[1:-1]
            assert interior and min(widths[n] for n in interior) <= limit

    @pytest.mark.parametrize("arch_id", [1, 10, 11, 12])
    def test_unconstrained_models_have_a_wide_path(self, arch_id):
        desc = describe(build(arch_id))
        widths = {n["name"]: n["widths"][-1] for n in desc["nodes"]}
        paths = text_to_pcb_paths(desc)
        wide = [p for p in paths
                if all(widths[n] > 60 for n in p[1:-1]) or len(p) == 2]
        assert wide


class TestBuildShapes:
    @pytest.mark.parametrize("arch_id", range(1, 13))
    def test_parameter_paths_and_shapes_are_pinned(self, arch_id):
        params = build(arch_id).parameters()
        got = [(path, p.data.shape) for path, p in params.items()]
        assert got == PARAMETER_SHAPES[arch_id]

    @pytest.mark.parametrize("arch_id", range(1, 13))
    def test_initialization_is_pinned(self, arch_id):
        digest = hashlib.sha256()
        for p in build(arch_id, seed=0).parameters().values():
            assert p.data.dtype == np.float32 and p.data.flags.c_contiguous
            digest.update(p.data.tobytes())
        assert digest.hexdigest() == INIT_SHA256[arch_id]

    @pytest.mark.parametrize("arch_id", range(1, 13))
    def test_each_float32_init_is_its_float64_draw_rounded_once(self, arch_id, monkeypatch):
        # the draws that reach parameter() are the float64 values the builder
        # drew before parameters were float32, and each is rounded once
        from pcbnet import autodiff, nn, text
        draws = {}

        def recording(data, path):
            draws[path] = np.asarray(data)
            return autodiff.parameter(data, path)

        monkeypatch.setattr(nn, "parameter", recording)
        monkeypatch.setattr(text, "parameter", recording)
        params = build(arch_id, seed=0).parameters()
        assert draws.keys() == params.keys()
        digest = hashlib.sha256()
        for path, p in params.items():
            assert draws[path].dtype == np.float64
            digest.update(np.ascontiguousarray(draws[path]).tobytes())
            assert np.array_equal(p.data, draws[path].astype(np.float32)), path
        assert digest.hexdigest() == DRAW_SHA256[arch_id]

    def test_build3_parameter_shapes(self):
        shapes = [p.data.shape for p in build(3).parameters().values()]
        assert shapes == [(8, 1024), (1024,), (1024, 512), (512,), (512, 3), (3,)]

    def test_build12_fusion_width(self):
        model = build(12, encoder_dim=128)
        first = model.heads["pcb_head"].layers[0]
        assert first.weight.shape == (128 + 60 + 8, 512)

    def test_parameter_paths_unique_in_multimodal(self):
        model = build(9)
        params = model.parameters()
        assert len(params) == len(set(params))
        assert any(p.startswith("text_model.") for p in params)
        assert any(p.startswith("appraisal_model.") for p in params)
        assert any(p.startswith("emotion_model.") for p in params)


class TestForward:
    def test_text_baseline_contract(self, tiny_data):
        model = build(1, vocab=tiny_data.vocab, seed=0)
        out = model.forward(batch_of(tiny_data))
        assert set(out) == {"pcb_logits"}
        assert out["pcb_logits"].shape == (4, 3)

    def test_multitask_aux_outputs(self, tiny_data):
        model = build(10, vocab=tiny_data.vocab, seed=0)
        out = model.forward(batch_of(tiny_data))
        assert set(out) == {"pcb_logits", "appraisal_logits"}
        assert out["appraisal_logits"].shape == (4, 60)

    def test_theoretical_all_outputs(self, tiny_data):
        model = build(12, vocab=tiny_data.vocab, seed=0)
        out = model.forward(batch_of(tiny_data))
        assert set(out) == {"pcb_logits", "appraisal_logits", "emotion_logits"}
        assert out["emotion_logits"].shape == (4, 8)

    def test_zeroed_model6_uniform_softmax(self, tiny_data):
        model = build(6, vocab=tiny_data.vocab, seed=0)
        for p in model.parameters().values():
            p.data[...] = 0.0
        out = model.forward(batch_of(tiny_data))
        logits = out["pcb_logits"].data
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_missing_modality_named(self, tiny_data):
        model = build(2)
        batch = batch_of(tiny_data)
        batch.appraisal_features = None
        with pytest.raises(InputError, match="Appraisals"):
            model.forward(batch)

    def test_missing_text_named(self, tiny_data):
        model = build(1, vocab=tiny_data.vocab)
        batch = batch_of(tiny_data)
        batch.token_ids = None
        with pytest.raises(InputError, match="Text"):
            model.forward(batch)

    @pytest.mark.parametrize("arch_id", [1, 9])
    def test_missing_precomputed_text_named(self, tiny_data, arch_id):
        model = build(arch_id, encoder_dim=8, precomputed=True)
        batch = batch_of(tiny_data)  # token ids do not stand in for text features
        assert batch.token_ids is not None and batch.text_features is None
        with pytest.raises(InputError, match="Text"):
            model.forward(batch)
        batch.text_features = np.ones((4, 8))
        assert model.forward(batch)["pcb_logits"].shape == (4, 3)

    @pytest.mark.parametrize("arch_id", [1, 9, 12])
    def test_text_features_stand_in_for_token_ids(self, tiny_data, arch_id):
        model = build(arch_id, vocab=tiny_data.vocab, seed=0)
        batch = batch_of(tiny_data)
        batch.text_features = np.random.default_rng(0).normal(size=(4, model.encoder_dim))
        both = model.forward(batch)["pcb_logits"].data
        batch.token_ids = None
        assert np.array_equal(model.forward(batch)["pcb_logits"].data, both)

    def test_multimodal_forward_shapes(self, tiny_data):
        model = build(9, vocab=tiny_data.vocab, seed=0)
        out = model.forward(batch_of(tiny_data))
        assert out["pcb_logits"].shape == (4, 3)


class TestGradientRouting:
    def reachable_params(self, model, loss):
        backward(loss)
        got = {path for path, p in model.parameters().items()
               if p.grad is not None and np.any(p.grad != 0)}
        for p in model.parameters().values():
            p.grad = None
        return got

    @pytest.mark.parametrize("arch_id", [10, 11, 12])
    def test_pcb_loss_reaches_every_on_path_parameter(self, tiny_data, arch_id):
        from pcbnet.autodiff import cross_entropy
        model = build(arch_id, vocab=tiny_data.vocab, seed=3)
        batch = batch_of(tiny_data)
        out = model.forward(batch)
        got = self.reachable_params(model, cross_entropy(out["pcb_logits"],
                                                         batch.pcb_labels))
        # in these graphs the auxiliary heads feed the fusion concat, so every
        # parameter sits on the PCB path; the off-path set is empty
        assert got == set(model.parameters())

    def test_aux_loss_alone_leaves_pcb_head_untouched(self, tiny_data):
        from pcbnet.autodiff import binary_cross_entropy
        model = build(10, vocab=tiny_data.vocab, seed=3)
        batch = batch_of(tiny_data)
        out = model.forward(batch)
        got = self.reachable_params(
            model, binary_cross_entropy(out["appraisal_logits"], np.eye(3)[
                batch.appraisal_target_classes].reshape(len(batch.pcb_labels), -1)))
        assert not any(p.startswith("pcb_head") for p in got)
        assert any(p.startswith("appraisal_head") for p in got)

    def test_joint_loss_populates_all_heads(self, tiny_data):
        model = build(12, vocab=tiny_data.vocab, seed=3)
        batch = batch_of(tiny_data)
        cfg = ExperimentConfig(architecture=12)
        loss = compute_loss(model, batch, cfg)
        backward(loss)
        for path, p in model.parameters().items():
            assert p.grad is not None, path

    def test_theoretical_chain_jacobian_nonzero(self, tiny_data):
        # perturbing appraisal logits must move the emotion logits
        model = build(12, vocab=tiny_data.vocab, seed=3)
        batch = batch_of(tiny_data, n=2)
        out = model.forward(batch)
        app = out["appraisal_logits"].data
        emo_head = model.heads["emotion_head"]
        from pcbnet.autodiff import Tensor
        base = emo_head(Tensor(app)).data
        bumped = emo_head(Tensor(app + 0.5)).data
        assert not np.allclose(base, bumped)


class TestFreezeAndPenultimate:
    def test_penultimate_widths(self, tiny_data):
        model = build(7, vocab=tiny_data.vocab, seed=0)
        batch = batch_of(tiny_data)
        text_pen = model.components["text"].penultimate(batch)
        app_pen = model.components["appraisals"].penultimate(batch)
        assert text_pen.shape == (4, 128)
        assert app_pen.shape == (4, 512)

    @pytest.mark.parametrize("arch_id", range(1, 13))
    def test_penultimate_is_what_the_pcb_head_reads_last(self, tiny_data, arch_id):
        model = build(arch_id, vocab=tiny_data.vocab, seed=0)
        batch = batch_of(tiny_data)
        hidden = model.penultimate(batch)
        assert hidden.shape == (4, model.spec.penultimate_width(model.encoder_dim))
        logits = model.heads["pcb_head"].layers[-1](hidden)
        assert logits.data.tobytes() == model.forward(batch)["pcb_logits"].data.tobytes()

    def test_penultimate_refuses_a_missing_modality(self):
        with pytest.raises(InputError, match="Appraisals"):
            build(2).penultimate(Batch())

    def test_frozen_components_receive_no_gradient(self, tiny_data):
        from pcbnet.autodiff import cross_entropy
        model = build(7, vocab=tiny_data.vocab, seed=0)
        cfg = ExperimentConfig(architecture=7, text_epochs=1, rating_epochs=1)
        train(model, tiny_data, range(8), cfg, seed=0)  # towers train, then freeze
        batch = batch_of(tiny_data)
        out = model.forward(batch)
        backward(cross_entropy(out["pcb_logits"], batch.pcb_labels))
        for path, p in model.parameters().items():
            if path.startswith(("text_model.", "appraisal_model.")):
                assert p.grad is None, path
        trainable = {k for k, p in model.parameters().items() if p.requires_grad}
        assert trainable == {p for p in model.parameters() if p.startswith("pcb_head")}


class TestCheckpoint:
    def test_save_load_round_trip(self, tiny_data, tmp_path):
        # the float32 parameters are saved widened, exactly, and load as float64
        model = build(12, vocab=tiny_data.vocab, seed=5)
        batch = batch_of(tiny_data)
        path = tmp_path / "model.params"
        save_model(path, model, meta={"pcb_target": "promote"})
        loaded, meta = load_model(path)
        assert meta["pcb_target"] == "promote"
        params = loaded.parameters()
        for name, p in model.parameters().items():
            assert params[name].data.dtype == np.float64
            assert np.array_equal(params[name].data, p.data), name
            p.data = p.data.astype(np.float64)
        before = model.forward(batch)["pcb_logits"].data
        after = loaded.forward(batch)["pcb_logits"].data
        assert after.dtype == np.float64 and np.array_equal(before, after)
        assert all(p.data.flags.writeable and p.data.flags.c_contiguous
                   for p in params.values())
        backward(compute_loss(loaded, batch, ExperimentConfig(architecture=12)))
        Adam(params, lr=1e-3).step()
        assert not np.array_equal(loaded.forward(batch)["pcb_logits"].data, after)

    def test_checkpoint_carries_architecture(self, tiny_data, tmp_path):
        model = build(3, seed=5)
        path = tmp_path / "model.params"
        save_model(path, model)
        loaded, meta = load_model(path)
        assert loaded.spec.id == 3
        assert meta["architecture"]["family"] == "Baseline"

    @pytest.mark.parametrize("key, value", [
        ("architecture_id", None), ("architecture_id", "12"), ("architecture_id", 12.0),
        ("architecture_id", True), ("encoder_dim", [8]), ("encoder_dim", -8),
        ("vocab", "<pad> <unk>"), ("vocab", ["<pad>", 1]), ("vocab", {"a": 1}),
        ("max_sequence_length", "256"), ("max_sequence_length", 2.5),
        ("max_sequence_length", -2), ("max_sequence_length", 0),
        ("pcb_target", "promot"), ("pcb_target", ["promote"]),
        ("architecture_id", 13), ("architecture_id", 0), ("architecture_id", -1),
        ("encoder_dim", 0), ("encoder_dim", 10**6), ("encoder_dim", 4096),
        ("vocab", ["a", "b", "<pad>", "<unk>"]), ("vocab", ["<pad>", "<unk>", "a", "a"]),
    ])
    def test_bad_metadata_is_a_validation_error(self, tiny_data, tmp_path, key, value):
        path = tmp_path / "model.params"
        save_model(path, build(12, vocab=tiny_data.vocab, encoder_dim=8, seed=5))
        tensors, meta = load_params(path)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        save_params(path, tensors, meta)
        with pytest.raises(ValidationError, match=key):
            load_model(path)

    @pytest.mark.parametrize("change", ["drop_tensor", "add_tensor", "empty_vocab"])
    def test_tensors_that_do_not_fit_are_a_validation_error(self, tiny_data, tmp_path,
                                                             change):
        path = tmp_path / "model.params"
        save_model(path, build(12, vocab=tiny_data.vocab, encoder_dim=8, seed=5))
        tensors, meta = load_params(path)
        if change == "drop_tensor":
            del tensors["pcb_head.layer0.bias"]
        elif change == "add_tensor":
            tensors["pcb_head.extra"] = np.zeros(3)
        else:
            meta["vocab"] = []
        save_params(path, tensors, meta)
        with pytest.raises(ValidationError, match="checkpoint"):
            load_model(path)

    def test_a_flipped_data_byte_is_refused(self, tiny_data, tmp_path):
        path = tmp_path / "model.params"
        save_model(path, build(12, vocab=tiny_data.vocab, encoder_dim=8, seed=5))
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0x01  # a low mantissa byte of the last value
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="sha256"):
            load_model(path)

    def test_precomputed_checkpoint_is_a_config_refusal(self, tmp_path):
        path = tmp_path / "model.params"
        save_model(path, build(1, encoder_dim=8, precomputed=True))
        with pytest.raises(ConfigError, match="externally computed embeddings"):
            load_model(path)
