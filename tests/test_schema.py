from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.data import SyntheticGeneratorConfig
from pcbnet.errors import ConfigError
from pcbnet.experiment import ExperimentConfig
from pcbnet.schema import specs

# (config class, the arguments every construction needs)
CONFIGS = {SyntheticGeneratorConfig: {}, ExperimentConfig: {"architecture": 1}}
DECLARED = [(cls, key) for cls in CONFIGS for key in sorted(specs(cls))]

HOSTILE = [
    float("nan"), float("inf"), float("-inf"), -1, -1.5, 0, 0.0, 1e308, -1e308,
    10**30, -10**30, 10**5000, True, False, "", "x", "nan", None, [], {}, [1.0], [1.0, 2.0],
    [0.8, 0.1, float("nan")], [0.8, True, 0.1], [[1.0, 2.0], [3.0]], [[[0.0]]],
    [[0.1] * 8] * 20, [[0.1] * 8] * 19 + [[0.1] * 7 + [float("inf")]], [0.1] * 20,
    [0.1] * 19 + ["0.1"], [[0.1] * 8] * 19 + [[0.1] * 7 + [[0.1]]],
]
VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.text(max_size=4),
    st.recursive(st.none() | st.booleans() | st.floats() | st.integers(),
                 lambda inner: st.lists(inner, max_size=21), max_leaves=30),
)


def construct_or_config_error(cls, key, value):
    try:
        cls(**{**CONFIGS[cls], key: value})
    except ConfigError as exc:
        assert key in str(exc)


class TestDeclaredFields:
    @pytest.mark.parametrize("cls, key", DECLARED, ids=[k for _, k in DECLARED])
    def test_every_hostile_value_is_accepted_or_a_config_error(self, cls, key):
        for value in HOSTILE:
            construct_or_config_error(cls, key, value)

    @pytest.mark.parametrize("cls, key", DECLARED, ids=[k for _, k in DECLARED])
    @given(value=VALUES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_construction_succeeds_or_is_a_config_error(self, cls, key, value):
        construct_or_config_error(cls, key, value)

    @pytest.mark.parametrize("cfg, key, value", [
        (SyntheticGeneratorConfig(record_count=3), "noise_scale", float("nan")),
        (ExperimentConfig(architecture=1), "lr", -1.0),
    ], ids=["noise_scale", "lr"])
    def test_a_built_config_refuses_assignment(self, cfg, key, value):
        before = getattr(cfg, key)
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, key, value)
        assert getattr(cfg, key) == before

    def test_a_weight_array_is_a_read_only_copy(self):
        w = np.full(8, 0.1)
        gen = SyntheticGeneratorConfig(record_count=3, promote_emotion_weights=w)
        stored = gen.promote_emotion_weights
        assert stored is not w and not np.shares_memory(stored, w)
        w[0] = float("nan")
        assert np.array_equal(stored, np.full(8, 0.1))
        for weights in (stored, gen.appraisal_emotion_weights):  # given and default
            with pytest.raises(ValueError, match="read-only"):
                weights.flat[0] = float("inf")
        assert np.isfinite(gen.appraisal_emotion_weights).all()

    def test_numpy_scalars_are_accepted(self):
        cfg = ExperimentConfig(architecture=np.int64(2), lr=np.float64(1e-3),
                               batch_size=np.int32(8), aux_loss_weight=np.float32(0.5))
        assert cfg.batch_size == 8 and cfg.lr == 1e-3
        gen = SyntheticGeneratorConfig(record_count=np.int64(3), noise_scale=np.float32(0.5))
        assert gen.record_count == 3

    def test_conversions(self):
        assert ExperimentConfig(architecture=1, split_ratios=[0.8, 0.1, 0.1]).split_ratios \
            == (0.8, 0.1, 0.1)
        gen = SyntheticGeneratorConfig(promote_emotion_weights=[1] * 8)
        weights = gen.promote_emotion_weights
        assert weights.dtype == np.float64 and weights.shape == (8,)
