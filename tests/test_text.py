import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.autodiff import backward, masked_mean, mean
from pcbnet.data import SyntheticGeneratorConfig, generate_synthetic
from pcbnet.errors import ValidationError
from pcbnet.text import (PAD_TOKEN, UNK_TOKEN, PrecomputedEncoder, TextEncoder,
                         TextEncoderConfig, Vocabulary, encode_texts,
                         save_precomputed_embeddings, tokenize)


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("The hotel was great!") == ["the", "hotel", "was", "great", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_is_standalone(self):
        assert tokenize("don't") == ["don", "'", "t"]

    def test_round_trip_on_generated_reviews(self):
        cfg = SyntheticGeneratorConfig(record_count=1000, noise_scale=0.3,
                                       mean_review_length=60)
        for record in generate_synthetic(cfg, seed=5):
            tokens = tokenize(record.text)
            assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=60))
    @settings(max_examples=150)
    def test_round_trip_property(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=60))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestVocabulary:
    def test_build_min_freq_and_order(self):
        vocab = Vocabulary.build(["red red blue", "blue green"], min_freq=2)
        assert vocab.tokens == [PAD_TOKEN, UNK_TOKEN, "blue", "red"]

    def test_oov_maps_to_unk(self):
        vocab = Vocabulary.build(["a a"], min_freq=2)
        assert vocab.ids(["a", "zebra"]) == [vocab.token_to_id["a"], vocab.unk_id]

    def test_save_load_round_trip(self, tmp_path):
        vocab = Vocabulary.build(["x x y y z"], min_freq=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.token_to_id == vocab.token_to_id


def small_encoder(dim=6, seed=0, texts=("alpha beta gamma beta alpha",)):
    vocab = Vocabulary.build(texts, min_freq=1)
    enc = TextEncoder(vocab, TextEncoderConfig(embedding_dim=dim),
                      np.random.default_rng(seed))
    return vocab, enc


class TestEncoder:
    def test_output_shape(self):
        vocab, enc = small_encoder()
        batch = encode_texts(["alpha beta", "gamma", "beta beta alpha", "alpha"],
                             vocab)
        out = enc.encode(batch)
        assert out.shape == (4, 6)

    def test_default_width_contract(self):
        vocab = Vocabulary.build(["alpha beta gamma"], min_freq=1)
        enc = TextEncoder(vocab, TextEncoderConfig(), np.random.default_rng(0))
        batch = encode_texts(["alpha", "beta gamma", "gamma", "alpha beta"], vocab)
        assert enc.encode(batch).shape == (4, 128)

    def test_mask_zero_exactly_on_pads(self):
        vocab, _ = small_encoder()
        batch = encode_texts(["alpha beta gamma", "alpha"], vocab)
        assert batch.attention_mask.tolist() == [[1, 1, 1], [1, 0, 0]]
        assert batch.token_ids[1, 1] == vocab.pad_id

    def test_repeated_token_with_identity_projection(self):
        vocab, enc = small_encoder()
        enc.projection.weight.data = np.eye(6)
        enc.projection.bias.data = np.zeros(6)
        batch = encode_texts(["beta beta beta"], vocab)
        out = enc.encode(batch)
        row = enc.embedding.data[vocab.token_to_id["beta"]]
        assert np.allclose(out.data[0], row, atol=1e-12)

    def test_padding_does_not_change_embedding(self):
        vocab, enc = small_encoder()
        short = encode_texts(["alpha beta gamma"], vocab)
        padded_ids = np.concatenate(
            [short.token_ids, np.full((1, 5), vocab.pad_id)], axis=1)
        padded_mask = np.concatenate([short.attention_mask, np.zeros((1, 5))], axis=1)
        from pcbnet.text import EncodedBatch
        out_short = enc.encode(short)
        out_padded = enc.encode(EncodedBatch(padded_ids, padded_mask))
        assert np.allclose(out_short.data, out_padded.data, atol=1e-12)

    def test_permutation_invariance_over_unmasked_tokens(self):
        vocab, enc = small_encoder()
        a = enc.encode(encode_texts(["alpha beta gamma"], vocab))
        b = enc.encode(encode_texts(["gamma alpha beta"], vocab))
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_gradients_reach_only_present_rows(self):
        vocab, enc = small_encoder()
        batch = encode_texts(["alpha beta"], vocab)
        backward(mean(enc.encode(batch)))
        grad = enc.embedding.grad
        present = {vocab.token_to_id["alpha"], vocab.token_to_id["beta"]}
        for row in range(len(vocab)):
            if row in present:
                assert np.any(grad[row] != 0)
            else:
                assert np.all(grad[row] == 0)

    def test_encode_matches_per_token_pool_and_project(self):
        # the fused bag and the per-token ops integrated gradients pool with
        # share one pooling expression, so the outputs agree bit for bit
        vocab, enc = small_encoder()
        batch = encode_texts(["alpha gamma beta", "beta", "gamma gamma alpha beta"],
                             vocab)
        via_bag = enc.encode(batch)
        pooled = masked_mean(enc.token_embeddings(batch), batch.attention_mask)
        assert np.array_equal(via_bag.data, enc.projection(pooled).data)


class TestPrecomputedEncoder:
    def test_load_and_embed(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_precomputed_embeddings(path, {"r1": np.array([1.0, 2.0]),
                                           "r2": np.array([3.0, 4.0])})
        enc = PrecomputedEncoder.load(path)
        assert enc.output_dim == 2
        out = enc.embed_records(["r2", "r1"])
        assert np.array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])
        assert not out.requires_grad

    def test_missing_record_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_precomputed_embeddings(path, {"r1": np.array([1.0])})
        enc = PrecomputedEncoder.load(path)
        with pytest.raises(ValidationError, match="r9"):
            enc.embed_records(["r9"])

    def test_ragged_widths_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "embedding": [1.0]}\n'
                        '{"id": "b", "embedding": [1.0, 2.0]}\n')
        with pytest.raises(ValidationError):
            PrecomputedEncoder.load(path)
