import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet import data
from pcbnet.data import (APPRAISAL_COUNT, DEFAULT_APPRAISAL_NAMES, EMOTION_COUNT,
                         EMOTION_WORDS, Level, ReviewRecord, SyntheticGeneratorConfig,
                         discretize_unit, generate_synthetic, ingest, planted_emotions,
                         planted_pcb, record_to_obj, segment_emotion, segment_pcb, split_records,
                         write_appraisal_names, write_csv, write_jsonl)
from pcbnet.errors import ConfigError, SizeError, ValidationError
from pcbnet.text import tokenize


class TestSegmentation:
    def test_pcb_table(self):
        expected = {1: Level.LOW, 2: Level.LOW, 3: Level.MODERATE,
                    4: Level.MODERATE, 5: Level.MODERATE,
                    6: Level.HIGH, 7: Level.HIGH}
        for rating, level in expected.items():
            assert segment_pcb(rating) == level

    def test_emotion_table(self):
        expected = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1}
        for rating, flag in expected.items():
            assert segment_emotion(rating) == flag

    @pytest.mark.parametrize("bad", [0, 8, -1, 100])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValidationError):
            segment_pcb(bad)
        with pytest.raises(ValidationError):
            segment_emotion(bad)

    @given(st.integers(1, 7))
    def test_total_and_exhaustive(self, rating):
        assert segment_pcb(rating) in (Level.LOW, Level.MODERATE, Level.HIGH)
        assert segment_emotion(rating) in (0, 1)


class TestSplit:
    def test_1400_gives_1120_140_140(self):
        split = split_records(1400, (0.8, 0.1, 0.1), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (1120, 140, 140)

    def test_10_gives_8_1_1(self):
        split = split_records(10, (0.8, 0.1, 0.1), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_same_seed_identical(self):
        a = split_records(57, (0.8, 0.1, 0.1), seed=42)
        b = split_records(57, (0.8, 0.1, 0.1), seed=42)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_too_few_records(self):
        with pytest.raises(SizeError):
            split_records(2, (0.8, 0.1, 0.1), seed=0)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            split_records(10, (0.8, 0.1, 0.2), seed=0)

    @pytest.mark.parametrize("ratios", [(1.2, -0.1, -0.1), (-0.5, 0.75, 0.75),
                                        (float("nan"), 0.5, 0.5)])
    def test_ratio_outside_unit_interval(self, ratios):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            split_records(10, ratios, seed=0)

    @given(st.integers(3, 400), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80)
    def test_disjoint_and_covering(self, n, seed):
        split = split_records(n, (0.8, 0.1, 0.1), seed=seed)
        combined = split.train + split.validation + split.test
        assert sorted(combined) == list(range(n))
        assert len(set(combined)) == n


def make_record(i=0, **overrides):
    fields = dict(
        id=f"r{i}", text="fine visit overall .",
        appraisals=tuple([4] * APPRAISAL_COUNT),
        emotions=tuple([4] * EMOTION_COUNT),
        pcb_repurchase=4, pcb_promote=4)
    fields.update(overrides)
    return ReviewRecord(**fields)


class TestIngest:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl([make_record(i) for i in range(3)], path)
        assert len(ingest(path)) == 3

    def test_out_of_range_value_cites_row(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [json.dumps({"id": "a", "text": "t",
                            "appraisals": [4] * APPRAISAL_COUNT,
                            "emotions": [4] * EMOTION_COUNT,
                            "pcb_repurchase": 4, "pcb_promote": 4}),
                json.dumps({"id": "b", "text": "t",
                            "appraisals": [9] + [4] * (APPRAISAL_COUNT - 1),
                            "emotions": [4] * EMOTION_COUNT,
                            "pcb_repurchase": 4, "pcb_promote": 4})]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="line 2"):
            ingest(path)

    def test_all_bad_rows_collected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        bad = json.dumps({"id": "x", "text": "t",
                          "appraisals": [4] * (APPRAISAL_COUNT - 1),
                          "emotions": [4] * EMOTION_COUNT,
                          "pcb_repurchase": 4, "pcb_promote": 4})
        path.write_text(bad + "\n" + "not json\n")
        with pytest.raises(ValidationError, match="2 invalid rows"):
            ingest(path)

    @pytest.mark.parametrize("field, value", [
        ("text", None), ("text", ["a", "b"]), ("text", 5),
        ("id", None), ("id", True), ("id", 1.5), ("id", ["a"])])
    def test_non_string_text_or_id_cites_row(self, tmp_path, field, value):
        bad = record_to_obj(make_record(1))
        bad[field] = value
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record_to_obj(make_record(0))) + "\n"
                        + json.dumps(bad) + "\n")
        with pytest.raises(ValidationError, match=f"1 invalid rows\nline 2: {field} must be"):
            ingest(path)

    def test_integer_id_is_its_decimal_string(self, tmp_path):
        obj = record_to_obj(make_record(0))
        obj["id"] = 42
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert ingest(path)[0].id == "42"

    def test_a_repeated_id_is_listed_with_the_line_it_repeats(self, tmp_path):
        objs = [record_to_obj(make_record(i)) for i in range(4)]
        objs[0]["id"], objs[2]["id"], objs[3]["id"] = 7, "7", "r1"  # 7 reads as "7"
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        with pytest.raises(ValidationError, match=(
                "2 invalid rows\nline 3: id '7' repeats line 1\n"
                "line 4: id 'r1' repeats line 2$")):
            ingest(path)

    def test_a_repeated_csv_id_is_listed_with_the_line_it_repeats(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv([make_record(0), make_record(1), make_record(0, text="other .")], path)
        with pytest.raises(ValidationError, match="1 invalid rows\nline 4: id 'r0' repeats line 2$"):
            ingest(path)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_raw_unicode_line_separator_stays_inside_its_text(self, tmp_path, separator):
        records = [make_record(0, text=f"fine{separator}visit ."), make_record(1)]
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(record_to_obj(r), ensure_ascii=False) + "\n"
                                for r in records), encoding="utf-8")
        assert ingest(path) == records

    def test_rows_are_numbered_by_physical_line(self, tmp_path):
        good = json.dumps(record_to_obj(make_record(0)))
        path = tmp_path / "data.jsonl"
        # \x0c and \x1e split a str.splitlines line; a raw one is bad JSON here
        path.write_bytes(f"{good}\r\nnot\x0cjson\r\n\r\n{good[:-1]}\x1e}}\r\n".encode())
        with pytest.raises(ValidationError) as info:
            ingest(path)
        message = str(info.value)
        assert "2 invalid rows" in message
        assert "\nline 2: invalid JSON" in message and "\nline 4: invalid JSON" in message

    def test_csv_rows_are_numbered_by_the_line_they_start_on(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv([make_record(0, text="x\ny\nz"), make_record(1)], path)
        # a record refuses an appraisal of 9, so the second row gets it as text
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw.replace("r1,fine visit overall .,4,", "r1,fine visit overall .,9,"),
                        encoding="utf-8")
        assert raw.split("\n")[4].startswith("r1,")  # the header, then "x / y / z" on 2-4
        with pytest.raises(ValidationError, match="1 invalid rows\nline 5: appraisal rating"):
            ingest(path)

    def test_jsonl_round_trip_bit_exact(self, tmp_path):
        records = generate_synthetic(
            SyntheticGeneratorConfig(record_count=40, mean_review_length=50), seed=3)
        path = tmp_path / "dataset.jsonl"
        write_jsonl(records, path)
        assert ingest(path) == records

    def test_csv_round_trip_bit_exact(self, tmp_path):
        records = generate_synthetic(
            SyntheticGeneratorConfig(record_count=25, mean_review_length=50), seed=4)
        path = tmp_path / "dataset.csv"
        write_csv(records, path)
        assert ingest(path) == records

    @pytest.mark.parametrize("fmt, write", [("jsonl", write_jsonl), ("csv", write_csv)])
    def test_a_carriage_return_in_a_text_survives_the_round_trip(self, tmp_path, fmt, write):
        records = [make_record(0, text="fine\rvisit ."), make_record(1, text="fine\r\nvisit ."),
                   make_record(2, text="\r\n\r"), make_record(3)]
        path = tmp_path / f"data.{fmt}"
        write(records, path)
        assert ingest(path) == records

    def test_a_carriage_return_between_json_tokens_is_whitespace(self, tmp_path):
        records = [make_record(i) for i in range(2)]
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(record_to_obj(r), separators=(",\r", ":\r")) + "\n"
                                for r in records), newline="")
        assert ingest(path) == records

    def test_appraisal_names_sidecar(self, tmp_path):
        path = tmp_path / "names.txt"
        write_appraisal_names(path)
        names = path.read_text(encoding="utf-8").split("\n")
        assert names == [*DEFAULT_APPRAISAL_NAMES, ""]
        assert names[0] == "novelty"
        # the sidecar is for readers outside the program, which has none
        assert not hasattr(data, "read_appraisal_names")


@pytest.fixture(scope="module")
def default_corpus():
    return generate_synthetic(SyntheticGeneratorConfig(), seed=1)


class Interrupted(Exception):
    pass


def interrupted_after(records, n):
    yield from records[:n]
    raise Interrupted


class TestWriters:
    """``write_jsonl`` and ``write_csv`` stream their rows into one atomic write."""

    @pytest.mark.parametrize("write", [write_jsonl, write_csv])
    def test_traced_peak_is_below_half_the_file(self, default_corpus, tmp_path, write):
        path = tmp_path / "corpus"
        tracemalloc.start()
        try:
            write(default_corpus, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 0.5 * size, f"peak {peak} bytes for a {size}-byte file"

    @pytest.mark.parametrize("write", [write_jsonl, write_csv])
    def test_an_exception_mid_stream_leaves_the_target_untouched(self, default_corpus,
                                                                 tmp_path, write):
        path = tmp_path / "corpus"
        with pytest.raises(Interrupted):
            write(interrupted_after(default_corpus, 300), path)
        assert list(tmp_path.iterdir()) == []
        path.write_text("old\n")
        with pytest.raises(Interrupted):
            write(interrupted_after(default_corpus, 300), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "old\n"

    def test_jsonl_bytes_are_one_sorted_json_object_per_line(self, tmp_path):
        records = [make_record(i, text=f"caf\u00e9 {i}\u2028!") for i in range(3)]
        path = tmp_path / "data.jsonl"
        write_jsonl(records, path)
        assert path.read_bytes() == "".join(
            json.dumps(record_to_obj(r), sort_keys=True) + "\n" for r in records).encode()


class TestIngestNeverTracebacks:
    @pytest.mark.parametrize("raw", [
        b"\xff\xfe not utf-8\n",                 # invalid UTF-8
        b"5\n", b"null\n", b'"text"\n', b"[1, 2]\n",  # JSON values that are not objects
        b"[" * 100_000 + b"\n",                  # nesting deeper than the decoder's limit
        b'{"id": ' + b"9" * 5000 + b"}\n",       # an integer too long to convert
        b'{"id": "a", "text": "t", "appraisals": 4, "emotions": [], '
        b'"pcb_repurchase": 4, "pcb_promote": 4}\n',
    ])
    def test_bad_jsonl_is_a_validation_error(self, tmp_path, raw):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(raw)
        with pytest.raises(ValidationError):
            ingest(path)

    def test_bad_csv_is_a_validation_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        for raw in (b"\xff,\n", b'"' + b"a" * 200_000 + b'"\n'):
            path.write_bytes(raw)
            with pytest.raises(ValidationError):
                ingest(path)
        write_csv([make_record(0)], path)
        path.write_bytes(path.read_bytes()[:-2] + b"4.5\n")  # the last rating, pcb_promote
        with pytest.raises(ValidationError, match="line 2: non-integer rating value"):
            ingest(path)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_bad_utf8_names_its_line(self, tmp_path, fmt):
        path = tmp_path / f"data.{fmt}"
        (write_jsonl if fmt == "jsonl" else write_csv)([make_record(0), make_record(1)], path)
        raw = path.read_bytes()
        cut = raw.index(b"r1")
        path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
        line = raw[:cut].count(b"\n") + 1
        with pytest.raises(ValidationError, match=f"{path}: line {line}: not UTF-8 text"):
            ingest(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ingest(tmp_path / "absent.jsonl")


class TestGenerator:
    def test_zero_noise_is_its_own_oracle(self):
        cfg = SyntheticGeneratorConfig(record_count=120, noise_scale=0.0,
                                       mean_review_length=60)
        for record in generate_synthetic(cfg, seed=9):
            assert planted_emotions(record.appraisals, cfg) == record.emotions
            assert planted_pcb(record.appraisals, record.emotions,
                               cfg, "repurchase") == record.pcb_repurchase
            assert planted_pcb(record.appraisals, record.emotions,
                               cfg, "promote") == record.pcb_promote

    def test_zero_weights_collapse_to_midpoint(self):
        cfg = SyntheticGeneratorConfig(
            record_count=30, noise_scale=0.0, mean_review_length=40,
            appraisal_emotion_weights=np.zeros((APPRAISAL_COUNT, EMOTION_COUNT)),
            repurchase_appraisal_weights=np.zeros(APPRAISAL_COUNT),
            repurchase_emotion_weights=np.zeros(EMOTION_COUNT),
            promote_appraisal_weights=np.zeros(APPRAISAL_COUNT),
            promote_emotion_weights=np.zeros(EMOTION_COUNT))
        for record in generate_synthetic(cfg, seed=2):
            assert set(record.emotions) == {4}
            assert record.pcb_repurchase == 4
            assert record.pcb_promote == 4

    def test_default_config_mean_token_length(self):
        cfg = SyntheticGeneratorConfig(record_count=1000)
        records = generate_synthetic(cfg, seed=6)
        lengths = [len(tokenize(r.text)) for r in records]
        assert 150 <= np.mean(lengths) <= 230

    def test_determinism(self):
        cfg = SyntheticGeneratorConfig(record_count=20, mean_review_length=50)
        assert generate_synthetic(cfg, seed=8) == generate_synthetic(cfg, seed=8)

    def test_monotone_in_positive_weight_appraisal(self):
        cfg = SyntheticGeneratorConfig(record_count=1, noise_scale=0.0)
        rng = np.random.default_rng(12)
        positive_dims = [k for k in range(APPRAISAL_COUNT)
                         if cfg.promote_appraisal_weights[k] > 0]
        for _ in range(200):
            appraisals = list(rng.integers(1, 8, size=APPRAISAL_COUNT))
            k = positive_dims[int(rng.integers(len(positive_dims)))]
            if appraisals[k] == 7:
                continue
            bumped = list(appraisals)
            bumped[k] += 1
            for target in ("promote", "repurchase"):
                before = planted_pcb(appraisals, planted_emotions(appraisals, cfg),
                                     cfg, target)
                after = planted_pcb(bumped, planted_emotions(bumped, cfg),
                                    cfg, target)
                assert after >= before

    def test_flagged_emotions_have_lexicon_token_in_text(self):
        cfg = SyntheticGeneratorConfig(record_count=150, noise_scale=0.2,
                                       mean_review_length=60)
        for record in generate_synthetic(cfg, seed=13):
            tokens = set(tokenize(record.text))
            for e, rating in enumerate(record.emotions):
                if segment_emotion(rating):
                    assert tokens & set(EMOTION_WORDS[e]), (
                        f"record {record.id}: no lexicon token for emotion {e}")

    def test_filler_pool_disjoint_from_lexicon(self):
        from pcbnet.data import _FILLER_WORDS, APPRAISAL_WORDS, EMOTION_WORDS
        signal = {w for pair in APPRAISAL_WORDS for ws in pair for w in ws}
        signal |= {w for ws in EMOTION_WORDS for w in ws}
        assert not signal & set(_FILLER_WORDS)

    # Any change to the generator's draw order changes these digests; update them only
    # for a deliberate change of the corpus. Below the signal sentences' own length no
    # filler is drawn, so mean_review_length 0 and 30 give the same corpus.
    @pytest.mark.parametrize("overrides, digest", [
        ({}, "2f1b104dfde67875a7e845220635fb73433ab0fce6d43cbaa4c88ef23547f6eb"),
        ({"text_signal": 0.3},
         "a4b36152acf88f9be6a2e6393f57002c71e270e6348223914cc1ae6f20ec1681"),
        ({"noise_scale": 0.0},
         "410c35133a29560bae84a89bed2a272448bad960d2373d403f46258cb6aeb79d"),
        ({"mean_review_length": 0},
         "6f35b0aea3f054e7954afa47331e34321a8ec5a67ee906544f48dfec762986c5"),
        ({"mean_review_length": 30},
         "6f35b0aea3f054e7954afa47331e34321a8ec5a67ee906544f48dfec762986c5"),
        ({"record_count": 1},
         "a7d0d864a97889c4046f79bff2a12ef60df209129f77556d8d80c3a362293f59"),
    ], ids=["defaults", "text_signal_0.3", "noise_0", "length_0", "length_30", "one_record"])
    def test_corpus_bytes_are_pinned(self, tmp_path, overrides, digest):
        cfg = SyntheticGeneratorConfig(**{"record_count": 40, **overrides})
        path = tmp_path / "corpus.jsonl"
        write_jsonl(generate_synthetic(cfg, seed=7), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("x, rating", [
        (math.nan, 1), (math.inf, 7), (-math.inf, 1), (0.0, 4), (-0.0, 4),
        (1 / 6, 5), (-1 / 6, 4), (0.5, 6), (-0.5, 3),  # y = 4.5, 3.5, 5.5, 2.5: half-up
        (math.nextafter(1.0, 2.0), 7), (math.nextafter(1.0, 0.0), 7),
        (-math.nextafter(1.0, 2.0), 1), (-math.nextafter(1.0, 0.0), 1),
    ])
    def test_discretize_unit_edges(self, x, rating):
        for value in (x, np.float64(x)):
            got = discretize_unit(value)
            assert type(got) is int and got == rating


class TestRecordValidation:
    """A record checks itself when it is made, in the library as at ingest."""

    @pytest.mark.parametrize("overrides, message", [
        ({"text": None}, "text must be a string, got NoneType"),
        ({"appraisals": (4,) * 19}, "expected 20 appraisal ratings, got 19"),
        ({"emotions": (4,) * 9}, "expected 8 emotion ratings, got 9"),
        ({"appraisals": 4}, "appraisals must be a list of ratings"),
        ({"pcb_promote": 8}, r"pcb_promote must be in \[1, 7\], got 8"),
        ({"id": 1.5}, "id must be a string or an integer"),
    ], ids=["text-none", "19-appraisals", "9-emotions", "scalar-appraisals", "pcb-8",
            "float-id"])
    def test_malformed_record_is_refused_when_made(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            make_record(**overrides)

    def test_ratings_are_stored_as_tuples_and_an_integer_id_as_its_string(self):
        record = make_record(id=7, appraisals=[4] * APPRAISAL_COUNT, emotions=[5] * EMOTION_COUNT)
        assert record.id == "7"
        assert record.appraisals == (4,) * APPRAISAL_COUNT
        assert record.emotions == (5,) * EMOTION_COUNT

    def test_rating_bounds_enforced(self):
        with pytest.raises(ValidationError):
            record = make_record(pcb_promote=4, pcb_repurchase=4,
                                 emotions=tuple([0] + [4] * 7))
            [segment_emotion(e) for e in record.emotions]
