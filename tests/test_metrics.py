import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.errors import SizeError
from pcbnet.metrics import accuracy_score, confusion_matrix, weighted_f1

from oracles import (brute_force_accuracy, brute_force_weighted_f1,
                     majority_class_accuracy)

labels = st.lists(st.integers(0, 2), min_size=1, max_size=40)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy_score([0, 1, 2], [0, 1, 2]) == 1.0
        assert weighted_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_hand_tallied_case(self):
        # predictions all High vs labels [H, H, L, M]:
        # High: tp=2 fp=2 fn=0 -> p=0.5 r=1 f1=2/3, support 2/4
        # Low and Moderate: no predictions -> f1=0
        y_true = [2, 2, 0, 1]
        y_pred = [2, 2, 2, 2]
        assert accuracy_score(y_true, y_pred) == 0.5
        assert abs(weighted_f1(y_true, y_pred) - 0.5 * (2 / 3)) < 1e-12

    def test_single_class_degenerate(self):
        assert weighted_f1([1, 1, 1], [1, 1, 1]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(SizeError):
            accuracy_score([], [])

    @given(st.integers(1, 200), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100)
    def test_exact_error_count_identity(self, n, seed):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, 3, size=n)
        y_pred = rng.integers(0, 3, size=n)
        errors = int((y_true != y_pred).sum())
        # 1 - errors/N with the subtraction done in exact integer arithmetic
        assert accuracy_score(y_true, y_pred) == (n - errors) / n


class TestWeightedF1:
    @given(labels, st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150)
    def test_matches_brute_force(self, y_true, seed):
        y_pred = list(np.random.default_rng(seed).integers(0, 3, size=len(y_true)))
        ours = weighted_f1(y_true, y_pred)
        oracle = brute_force_weighted_f1(y_true, y_pred)
        assert abs(ours - oracle) < 1e-12
        assert abs(accuracy_score(y_true, y_pred)
                   - brute_force_accuracy(y_true, y_pred)) == 0.0

    def test_zero_precision_recall_class_scores_zero(self):
        # class 0 has support but no predictions and no overlap
        assert weighted_f1([0, 0], [1, 2]) == 0.0

    def test_confusion_matrix_counts(self):
        cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 1], 3)
        assert cm.tolist() == [[1, 1, 0], [0, 1, 0], [0, 1, 0]]


class TestMajorityBaseline:
    def test_equals_majority_share(self):
        train = [0, 0, 0, 1, 2]
        test = [0, 1, 0, 2]
        assert majority_class_accuracy(train, test) == 0.5

    @given(labels)
    def test_self_majority_bound(self, y):
        # predicting the majority of y on y scores exactly the majority share
        share = max(np.bincount(y, minlength=3)) / len(y)
        assert abs(majority_class_accuracy(y, y) - share) < 1e-12
