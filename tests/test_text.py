import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.autodiff import backward, embedding_lookup, masked_mean, mean
from pcbnet.data import SyntheticGeneratorConfig, generate_synthetic
from pcbnet.errors import ValidationError
from pcbnet.models import Batch, build
from pcbnet.text import (PAD_TOKEN, UNK_TOKEN, TextEncoder, Vocabulary, encode_texts,
                         load_embeddings, save_precomputed_embeddings, token_mask, tokenize)

from oracles import reference_encode_texts


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


# In-vocabulary words, out-of-vocabulary words, punctuation, separators and
# the literal special tokens
_WORDS = ("alpha", "beta", "gamma", "Beta", "zebra", "qux9", "!", "'", ",.", "  ", "\t\n",
          PAD_TOKEN, UNK_TOKEN)


class TestEncodeTexts:
    vocab = Vocabulary.build(["alpha beta gamma beta alpha ! ,"], min_freq=1)

    @given(st.lists(st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join),
                    max_size=6),
           st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_the_list_based_reference(self, texts, max_sequence_length):
        got = encode_texts(texts, self.vocab, max_sequence_length)
        ids, mask = reference_encode_texts(texts, self.vocab, max_sequence_length)
        for array, want in ((got, ids), (token_mask(got, self.vocab.pad_id), mask)):
            assert (array.dtype, array.shape) == (want.dtype, want.shape)
            assert array.tobytes() == want.tobytes()

    @pytest.mark.parametrize("texts", [[], [""], ["", " ", "\n"]])
    def test_all_empty_input_is_one_pad_column(self, texts):
        got = encode_texts(texts, self.vocab)
        mask = token_mask(got, self.vocab.pad_id)
        assert got.shape == mask.shape == (len(texts), 1)
        assert not got.any() and not mask.any()

    def test_long_text_keeps_its_head(self):
        got = encode_texts(["alpha beta gamma zebra", "beta"], self.vocab, 3)
        ids = self.vocab.token_to_id
        assert got.tolist() == [[ids["alpha"], ids["beta"], ids["gamma"]],
                                [ids["beta"], 0, 0]]
        assert token_mask(got, self.vocab.pad_id).tolist() == [[1, 1, 1], [1, 0, 0]]

    def test_a_literal_pad_token_is_not_padding(self):
        got = encode_texts(["<pad>", "alpha <pad> <unk>"], self.vocab)
        ids = self.vocab.token_to_id
        assert "<" not in ids and ">" not in ids
        assert got.tolist() == [[1, 1, 1, 0, 0, 0, 0],  # "<", "pad", ">"
                                [ids["alpha"], 1, 1, 1, 1, 1, 1]]
        assert token_mask(got, self.vocab.pad_id).tolist() == [[1, 1, 1, 0, 0, 0, 0],
                                                               [1] * 7]

    def test_out_of_vocabulary_tokens_are_unk_and_unmasked(self):
        got = encode_texts(["zebra alpha", "qux9"], self.vocab)
        assert got.tolist() == [[self.vocab.unk_id, self.vocab.token_to_id["alpha"]],
                                [self.vocab.unk_id, self.vocab.pad_id]]
        assert self.vocab.unk_id == 1
        assert token_mask(got, self.vocab.pad_id).tolist() == [[1, 1], [1, 0]]

    def test_traced_peak_is_at_most_twice_the_output(self):
        records = generate_synthetic(SyntheticGeneratorConfig(record_count=1400), seed=1)
        texts = [r.text for r in records]
        vocab = Vocabulary.build(texts)
        tracemalloc.start()
        try:
            got = encode_texts(texts, vocab, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = got.nbytes
        assert peak <= 2 * output, f"peak {peak} bytes for {output} bytes of output"


def small_encoder(dim=6, seed=0, texts=("alpha beta gamma beta alpha",)):
    vocab = Vocabulary.build(texts, min_freq=1)
    enc = TextEncoder(vocab, dim, np.random.default_rng(seed))
    return vocab, enc


class TestEncoder:
    def test_output_shape(self):
        vocab, enc = small_encoder()
        ids = encode_texts(["alpha beta", "gamma", "beta beta alpha", "alpha"],
                             vocab)
        out = enc.encode(ids)
        assert out.shape == (4, 6)

    def test_default_width_contract(self):
        vocab = Vocabulary.build(["alpha beta gamma"], min_freq=1)
        enc = build(1, vocab=vocab, seed=0).encoder  # encoder_dim defaults to 128
        ids = encode_texts(["alpha", "beta gamma", "gamma", "alpha beta"], vocab)
        assert enc.encode(ids).shape == (4, 128)

    def test_mask_zero_exactly_on_pads(self):
        vocab, _ = small_encoder()
        ids = encode_texts(["alpha beta gamma", "alpha"], vocab)
        mask = token_mask(ids, vocab.pad_id)
        assert mask.tolist() == [[1, 1, 1], [1, 0, 0]]
        assert (mask.dtype, mask.flags.c_contiguous) == (np.float64, True)
        assert ids[1, 1] == vocab.pad_id

    def test_repeated_token_with_identity_projection(self):
        vocab, enc = small_encoder()
        enc.projection.weight.data = np.eye(6)
        enc.projection.bias.data = np.zeros(6)
        ids = encode_texts(["beta beta beta"], vocab)
        out = enc.encode(ids)
        row = enc.embedding.data[vocab.token_to_id["beta"]]
        assert np.allclose(out.data[0], row, atol=1e-12)

    def test_padding_does_not_change_embedding(self):
        vocab, enc = small_encoder()
        short = encode_texts(["alpha beta gamma"], vocab)
        padded_ids = np.concatenate([short, np.full((1, 5), vocab.pad_id)], axis=1)
        out_short = enc.encode(short)
        out_padded = enc.encode(padded_ids)
        assert np.allclose(out_short.data, out_padded.data, atol=1e-12)

    def test_permutation_invariance_over_unmasked_tokens(self):
        vocab, enc = small_encoder()
        a = enc.encode(encode_texts(["alpha beta gamma"], vocab))
        b = enc.encode(encode_texts(["gamma alpha beta"], vocab))
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_gradients_reach_only_present_rows(self):
        vocab, enc = small_encoder()
        ids = encode_texts(["alpha beta"], vocab)
        backward(mean(enc.encode(ids)))
        grad = enc.embedding.grad
        present = {vocab.token_to_id["alpha"], vocab.token_to_id["beta"]}
        for row in range(len(vocab)):
            if row in present:
                assert np.any(grad[row] != 0)
            else:
                assert np.all(grad[row] == 0)

    def test_encode_matches_per_token_pool_and_project(self):
        # encode pools token-count bags; the per-token masked mean agrees bit
        # for bit on an integer-valued table, where every summation order is
        # exact, and to rounding on the random one
        vocab, enc = small_encoder()
        ids = encode_texts(["alpha gamma beta", "beta", "gamma gamma alpha beta"],
                             vocab)

        def both():
            pooled = masked_mean(embedding_lookup(enc.embedding, ids),
                                 token_mask(ids, vocab.pad_id))
            return enc.encode(ids).data, enc.projection(pooled).data

        via_bag, per_token = both()
        np.testing.assert_allclose(via_bag, per_token, rtol=1e-12, atol=1e-14)
        enc.embedding.data = np.round(enc.embedding.data * 100)
        via_bag, per_token = both()
        assert np.array_equal(via_bag, per_token)


class TestPrecomputedEncoder:
    """The precomputed-embedding slot: ``load_embeddings`` and a model built without an
    encoder."""

    def test_load_and_embed(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_precomputed_embeddings(path, {"r1": np.array([1.0, 2.0]),
                                           "r2": np.array([3.0, 4.0])})
        rows = load_embeddings(path, ["r2", "r1"])
        assert rows.shape == (2, 2)
        model = build(1, encoder_dim=2, precomputed=True)
        out = model.embed_text(Batch(text_features=rows))
        assert np.array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])
        assert not out.requires_grad

    def test_missing_record_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_precomputed_embeddings(path, {"r1": np.array([1.0])})
        with pytest.raises(ValidationError, match="r9"):
            load_embeddings(path, ["r1", "r9"])

    @pytest.mark.parametrize("line", [
        '{"id": "a", "embedding": ["x", 1.0]}',
        '{"id": "a", "embedding": [[1.0], [1.0, 2.0]]}',
        '{"id": "a", "embedding": [1' + "0" * 5000 + ']}',
        '{"id": "a", "embedding": [1' + "0" * 400 + ']}',
        '{"id": "a", "embedding": [true, 1.0]}',
        '{"id": "a", "embedding": ["1.5"]}',
        '{"id": "a", "embedding": [NaN]}',
        '{"id": "a", "embedding": [-Infinity, 1.0]}',
        '{"id": "a", "embedding": 1.0}',
        '{"id": null, "embedding": [1.0]}',
        '{"id": true, "embedding": [1.0]}',
        '{"id": ["a"], "embedding": [1.0]}',
    ], ids=["non-numeric", "ragged", "over-long-integer", "integer-past-float64", "bool",
            "numeric-string", "nan", "infinity", "scalar", "null-id", "bool-id", "list-id"])
    def test_malformed_record_is_a_validation_error(self, tmp_path, line):
        path = tmp_path / "emb.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_embeddings(path, ["a"])

    def test_integer_id_is_its_decimal_string(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": 7, "embedding": [1, 2.5]}\n')
        assert load_embeddings(path, ["7"]).tolist() == [[1.0, 2.5]]

    def test_a_repeated_id_is_listed_with_the_line_it_repeats(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": 7, "embedding": [1.0]}\n'
                        '{"id": "a", "embedding": [2.0]}\n'
                        '{"id": "7", "embedding": [3.0]}\n')
        with pytest.raises(ValidationError, match="1 invalid rows\nline 3: id '7' repeats line 1$"):
            load_embeddings(path, ["7", "a"])

    def test_raw_unicode_line_separators_stay_inside_an_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a\x85b", "embedding": [1.0]}\r\n\n'
                        '{"id": "c\u2028d", "embedding": [2.0]}\n'
                        '{"id": "e", "embedding": [3.0, 4.0]}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 4: embedding width 2 != 1"):
            load_embeddings(path, ["a\x85b"])
        path.write_text(path.read_text(encoding="utf-8").rsplit("{", 1)[0], encoding="utf-8")
        rows = load_embeddings(path, ["c\u2028d", "a\x85b"])
        assert rows.tolist() == [[2.0], [1.0]]

    def test_ragged_widths_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "embedding": [1.0]}\n'
                        '{"id": "b", "embedding": [1.0, 2.0]}\n')
        with pytest.raises(ValidationError):
            load_embeddings(path, ["a", "b"])

    def test_a_carriage_return_between_json_tokens_is_whitespace(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_bytes(b'{"id":\r"a",\r"embedding":\r[1.0,\r2.0]}\r\n{"id": "b", '
                         b'"embedding": [3.0, 4.0]}\r')
        assert load_embeddings(path, ["b", "a"]).tolist() == [[3.0, 4.0], [1.0, 2.0]]

    def test_every_bad_line_is_listed(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "embedding": [1.0]}\n'
                        'not json\n'
                        '{"id": "b", "embedding": [true]}\n'
                        '{"id": "c"}\n')
        with pytest.raises(ValidationError) as info:
            load_embeddings(path, ["a"])
        lines = str(info.value).split("\n")
        assert lines[0] == f"{path}: 3 invalid rows"
        assert [line.split(":")[0] for line in lines[1:]] == ["line 2", "line 3", "line 4"]

    def test_bad_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_bytes(b'{"id": "a", "embedding": [1.0]}\r\n'
                         b'{"id": "caf\xe9", "embedding": [1.0]}\n')
        with pytest.raises(ValidationError, match=f"{path}: line 2: not UTF-8 text"):
            load_embeddings(path, ["a"])
