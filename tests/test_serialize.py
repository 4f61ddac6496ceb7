import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.errors import ValidationError
from pcbnet.serialize import (FORMAT_NAME, FORMAT_VERSION, MAGIC, load_params,
                              save_params)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def load_or_validation_error(path, raw):
    """Load ``raw`` from ``path``; any exception but ValidationError fails the test."""
    path.write_bytes(raw)
    try:
        load_params(path)
    except ValidationError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=12)
counts = st.integers(-2, 3) | st.integers(2 ** 62, 2 ** 100) | st.just(float("inf"))
index_entries = st.fixed_dictionaries(
    {"name": st.text(max_size=4) | json_values, "offset": counts | json_values,
     "shape": st.lists(counts, max_size=70) | st.lists(json_values, max_size=3) | json_values})


class TestParamsFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.params"
        tensors = {
            "head.weight": np.arange(12, dtype=np.float64).reshape(3, 4),
            "head.bias": np.array([1.5, -2.5, 0.0]),
            "scalarish": np.array(7.0),
        }
        save_params(path, tensors, meta={"architecture_id": 2, "note": "x"})
        loaded, meta = load_params(path)
        assert meta == {"architecture_id": 2, "note": "x"}
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].shape == tensors[name].shape

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_refused_naming_the_file_and_the_tensor(self, tmp_path,
                                                                          value):
        path = tmp_path / "model.params"
        weight = np.arange(12, dtype=np.float64).reshape(3, 4)
        weight[2, 1] = value
        save_params(path, {"head.bias": np.zeros(3), "head.weight": weight})
        with pytest.raises(ValidationError) as info:
            load_params(path)
        message = str(info.value)
        assert str(path) in message and "'head.weight'" in message
        assert "non-finite" in message and "head.bias" not in message

    def test_versioned_header(self, tmp_path):
        path = tmp_path / "m.params"
        save_params(path, {"w": np.zeros(2)}, meta={})
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        assert f'"version":{FORMAT_VERSION}'.encode() in raw

    def test_byte_identical_for_identical_input(self, tmp_path):
        tensors = {"a": np.array([1.0, 2.0]), "b": np.eye(2)}
        p1, p2 = tmp_path / "one.params", tmp_path / "two.params"
        save_params(p1, tensors, meta={"k": 1})
        save_params(p2, tensors, meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_the_header_carries_a_sha256_digest(self, tmp_path):
        path = tmp_path / "m.params"
        save_params(path, {"w": np.arange(3.0)}, meta={"k": 1})
        raw = path.read_bytes()
        (n,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
        digest = json.loads(raw[len(MAGIC) + 8:len(MAGIC) + 8 + n])["sha256"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")

    @pytest.mark.parametrize("where", ["data", "meta"])
    def test_a_flipped_byte_is_refused_naming_the_file(self, tmp_path, where):
        path = tmp_path / "m.params"
        save_params(path, {"w": np.arange(6.0)}, meta={"note": "x"})
        raw = bytearray(path.read_bytes())
        i = len(raw) - 3 if where == "data" else raw.index(b'"x"') + 1
        raw[i] ^= 0x01  # the data stay finite; the note becomes "y"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="sha256") as info:
            load_params(path)
        assert str(path) in str(info.value)

    def test_a_file_without_a_digest_is_refused(self, tmp_path):
        path = tmp_path / "m.params"
        header = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "meta": {},
                             "tensors": [{"name": "w", "shape": [1], "offset": 0}]}).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + bytes(8))
        with pytest.raises(ValidationError, match="no sha256 digest"):
            load_params(path)

    @pytest.mark.parametrize("header, wording", [
        ([], "header is not a JSON object"),
        ({"format": FORMAT_NAME, "version": FORMAT_VERSION + 1, "meta": {}, "tensors": []},
         "unsupported version"),
        ({"format": FORMAT_NAME, "version": FORMAT_VERSION, "meta": {}},
         "lacks the tensor index or the metadata"),
        ({"format": FORMAT_NAME, "version": FORMAT_VERSION, "tensors": []},
         "lacks the tensor index or the metadata"),
        ({"format": FORMAT_NAME, "version": FORMAT_VERSION, "meta": {},
          "tensors": [{"name": "w", "shape": [1] * 65, "offset": 0}]},
         "tensor 'w' has shape"),  # numpy allows at most 64 dimensions
    ], ids=["not-an-object", "unsupported-version", "no-index", "no-metadata",
            "65-dimensions"])
    def test_a_malformed_header_is_refused_naming_the_file(self, tmp_path, header, wording):
        path = tmp_path / "m.params"
        raw = json.dumps(header).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + bytes(8))
        with pytest.raises(ValidationError, match=wording) as info:
            load_params(path)
        assert str(path) in str(info.value)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.params"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValidationError):
            load_params(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "m.params"
        save_params(path, {"w": np.zeros(3)}, meta={})
        assert [p.name for p in tmp_path.iterdir()] == ["m.params"]

    def test_a_failed_write_leaves_the_target_and_closes_its_file(self, tmp_path):
        from pcbnet.serialize import atomic_writer
        path = tmp_path / "m.params"
        save_params(path, {"w": np.zeros(3)}, meta={})
        before = path.read_bytes()
        for binary in (True, False):
            with pytest.raises(KeyError):
                with atomic_writer(path, binary=binary) as fh:
                    fh.write(b"partial" if binary else "partial")
                    raise KeyError("stop")
            assert fh.closed
            assert [p.name for p in tmp_path.iterdir()] == ["m.params"]
            assert path.read_bytes() == before
        with atomic_writer(path) as fh:
            fh.write("caf\u00e9\n")
        assert fh.closed
        assert path.read_bytes() == "caf\u00e9\n".encode()

    def test_every_truncation_is_a_validation_error(self, tmp_path):
        path = tmp_path / "m.params"
        save_params(path, {"w": np.arange(6.0).reshape(2, 3)}, meta={"k": 1})
        raw = path.read_bytes()
        cut = tmp_path / "cut.params"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValidationError):
                load_params(cut)

    @given(st.lists(index_entries | json_values, max_size=3), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_tensor_index(self, fuzz_dir, index, data_values):
        header = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION,
                             "meta": {}, "tensors": index}).encode()
        raw = MAGIC + struct.pack("<Q", len(header)) + header + bytes(8 * data_values)
        load_or_validation_error(fuzz_dir / "fuzz.params", raw)

    def test_deep_or_huge_header_values_are_validation_errors(self, tmp_path):
        path = tmp_path / "m.params"
        for header in (b"[" * 100_000 + b"]" * 100_000, b'{"a": ' + b"9" * 5000 + b"}"):
            path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
            with pytest.raises(ValidationError):
                load_params(path)
