import numpy as np
import pytest

from pcbnet.errors import ValidationError
from pcbnet.serialize import (FORMAT_VERSION, MAGIC, load_params, save_params)


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

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.params"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValidationError):
            load_params(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "m.params"
        save_params(path, {"w": np.zeros(3)}, meta={})
        assert [p.name for p in tmp_path.iterdir()] == ["m.params"]

    def test_every_truncation_is_a_validation_error(self, tmp_path):
        path = tmp_path / "m.params"
        save_params(path, {"w": np.arange(6.0).reshape(2, 3)}, meta={"k": 1})
        raw = path.read_bytes()
        cut = tmp_path / "cut.params"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValidationError):
                load_params(cut)
