import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.autodiff import Tensor, backward, matmul, mean
from pcbnet.data import SyntheticGeneratorConfig, generate_synthetic, split_records
from pcbnet.errors import OptimizerError
from pcbnet.experiment import ExperimentConfig, build_vocab_for_split, featurize, train
from pcbnet.models import build
from pcbnet.nn import _ADAM_BLOCK, Adam, FFNNHead, LinearLayer, arena


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestLayers:
    def test_linear_layer_shapes_and_paths(self):
        layer = LinearLayer(4, 3, "head.layer0", make_rng())
        assert layer.weight.shape == (4, 3)
        assert layer.bias.shape == (3,)
        assert set(layer.parameters()) == {"head.layer0.weight", "head.layer0.bias"}
        out = layer(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)

    def test_ffnn_head_chains_widths(self):
        head = FFNNHead(20, [1024, 512, 3], "pcb_head", make_rng())
        shapes = [p.data.shape for p in head.parameters().values()]
        assert (20, 1024) in shapes and (1024, 512) in shapes and (512, 3) in shapes
        out = head(Tensor(np.zeros((5, 20))))
        assert out.shape == (5, 3)

    def test_final_layer_emits_raw_logits(self):
        head = FFNNHead(2, [3], "h", make_rng())
        x = np.array([[10.0, -10.0]])
        expected = x @ head.layers[0].weight.data + head.layers[0].bias.data
        assert np.allclose(head(Tensor(x)).data, expected)

    def test_forward_holds_one_buffer_per_layer(self):
        # a rating tower's full-batch forward, graph kept as training keeps it:
        # bias and relu write into the matmul's output instead of two copies
        widths = (1024, 512, 3)
        head = FFNNHead(20, widths, "pcb_head", make_rng())
        x = Tensor(make_rng(1).normal(size=(1120, 20)))
        tracemalloc.start()
        try:
            out = head(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.node is not None
        assert peak <= 1.05 * sum(1120 * w * 8 for w in widths)

    def test_init_is_seed_controlled(self):
        a = LinearLayer(6, 4, "l", make_rng(7)).weight.data
        b = LinearLayer(6, 4, "l", make_rng(7)).weight.data
        assert np.array_equal(a, b)


class TestAdam:
    def test_first_step_magnitude(self):
        # bias-corrected ratio m_hat/sqrt(v_hat) is 1 at t=1 for any constant grad
        p = Tensor(np.array([0.0]), requires_grad=True, path="p")
        p.grad = np.array([1.0])
        Adam({"p": p}, lr=1e-5).step()
        assert abs(p.data[0] + 1e-5) < 1e-12

    def test_zero_grad_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, path="p")
        p.grad = np.zeros(2)
        Adam({"p": p}, lr=0.1).step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_two_steps_match_reference_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.5
        # independent scripted recurrence
        m = v = 0.0
        theta = 1.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        p = Tensor(np.array([1.0]), requires_grad=True, path="p")
        opt = Adam({"p": p}, lr=lr)
        for _ in range(2):
            p.grad = np.array([g])
            opt.step()
        assert abs(p.data[0] - theta) < 1e-12

    def test_missing_grad_names_parameter(self):
        first = Tensor(np.array([1.0]), requires_grad=True, path="w")
        first.grad = np.array([1.0])
        p = Tensor(np.array([0.0]), requires_grad=True, path="pcb_head.bias")
        with pytest.raises(OptimizerError, match="pcb_head.bias"):
            Adam({"w": first, "pcb_head.bias": p}).step()
        # checked before any parameter is updated
        assert first.data[0] == 1.0 and first.grad is not None

    def test_grads_cleared_after_step(self):
        p = Tensor(np.array([0.0]), requires_grad=True, path="p")
        p.grad = np.array([1.0])
        Adam({"p": p}).step()
        assert p.grad is None

    def test_one_step_decreases_quadratic_bowl(self):
        # f(p) = mean(p^2); any lr below the curvature bound must reduce f
        p = Tensor(np.array([[0.7, -1.3]]), requires_grad=True, path="p")
        opt = Adam({"p": p}, lr=0.05)
        loss0 = float((p.data ** 2).mean())
        loss = mean(matmul(p, Tensor(p.data.T)))  # p . p
        backward(loss)
        opt.step()
        assert float((p.data ** 2).mean()) < loss0

    def test_in_place_matches_textbook_update_bit_for_bit(self):
        # "big" spans two blocks and ends in a partial one
        big = (3, _ADAM_BLOCK // 2 + 7)
        assert _ADAM_BLOCK < big[0] * big[1] < 2 * _ADAM_BLOCK
        assert (big[0] * big[1]) % _ADAM_BLOCK != 0
        shapes = {"w": (20, 16), "b": (16,), "e": (7, 4), "big": big,
                  "one": (1,), "scalar": ()}
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        # in one arena a block spans parameters; apart, each is walked alone
        for packed in (True, False):
            rng = make_rng(5)
            params = {k: Tensor(rng.normal(size=s), requires_grad=True, path=k)
                      for k, s in shapes.items()}
            flat = arena(params.values(), np.float64) if packed else None
            buffers = {k: p.data for k, p in params.items()}
            theta = {k: p.data.copy() for k, p in params.items()}
            m = {k: np.zeros(s) for k, s in shapes.items()}
            v = {k: np.zeros(s) for k, s in shapes.items()}
            opt = Adam(params, lr=lr)
            for t in range(1, 6):
                lr_t = lr * (1.0 - t / 10)  # as under the linear schedule
                grads = {k: rng.normal(size=s) for k, s in shapes.items()}
                # Kingma & Ba (2015), Section 2: the bias corrections folded
                # into the step size and epsilon
                root_bc2 = math.sqrt(1.0 - b2 ** t)
                step_size, eps_hat = lr_t * root_bc2 / (1.0 - b1 ** t), eps * root_bc2
                for k, g in grads.items():
                    m[k] = b1 * m[k] + (1.0 - b1) * g
                    v[k] = b2 * v[k] + (1.0 - b2) * g * g
                    theta[k] = theta[k] - m[k] * step_size / (np.sqrt(v[k]) + eps_hat)
                    params[k].grad = g.copy()
                opt.step(lr=lr_t)
            for k, p in params.items():
                assert p.data is buffers[k], k  # updated in place
                assert not packed or np.shares_memory(p.data, flat), k
                assert np.array_equal(p.data, theta[k]), (packed, k)
            # the moments are flat, in the parameters' order
            assert np.array_equal(opt.m, np.concatenate([m[k].ravel() for k in shapes]))
            assert np.array_equal(opt.v, np.concatenate([v[k].ravel() for k in shapes]))

    def test_non_contiguous_parameter_is_refused_not_dropped(self):
        # a flat view of a transposed buffer would be a copy, and the update
        # would land in the copy; the optimizer refuses it when it is made
        rng = make_rng(6)
        params = {"ok": Tensor(rng.normal(size=(4, 3)), requires_grad=True, path="ok"),
                  "t": Tensor(rng.normal(size=(3, 4)).T, requires_grad=True, path="t")}
        before = {k: p.data.copy() for k, p in params.items()}
        for p in params.values():
            p.grad = np.ones(p.data.shape)
        with pytest.raises(OptimizerError, match="'t' is not C-contiguous"):
            Adam(params, lr=0.1)
        for k, p in params.items():
            assert np.array_equal(p.data, before[k]) and p.grad is not None, k

    def test_parameters_of_two_dtypes_are_refused(self):
        params = {"a": Tensor(np.zeros(2), requires_grad=True, path="a"),
                  "b": Tensor(np.zeros(2, np.float32), requires_grad=True, path="b")}
        with pytest.raises(OptimizerError, match="mix dtypes"):
            Adam(params)

    def test_a_parameter_rebound_after_construction_is_refused(self):
        # the optimizer updates the buffers it was given; a new one would be skipped
        kept = Tensor(np.zeros(2), requires_grad=True, path="kept")
        p = Tensor(np.zeros(3), requires_grad=True, path="p")
        opt = Adam({"kept": kept, "p": p}, lr=0.1)
        p.data = np.ones(3)
        kept.grad, p.grad = np.ones(2), np.ones(3)
        with pytest.raises(OptimizerError, match="'p' was rebound"):
            opt.step()
        assert np.array_equal(kept.data, [0.0, 0.0]) and np.array_equal(p.data, [1.0] * 3)
        assert opt.step_count == 0

    def test_gradient_of_another_shape_is_refused(self):
        p = Tensor(np.zeros((3, 4)), requires_grad=True, path="p")
        p.grad = np.zeros((4, 3))
        with pytest.raises(OptimizerError, match="shape"):
            Adam({"p": p}).step()


class TestLinearSchedule:
    """The lr ``train`` hands ``Adam.step``: ``base * (1 - step / T)`` over its T steps."""

    @pytest.fixture(scope="class")
    def rates(self):
        """``rates(epochs, base)``: each step's lr in a full-batch rating run.

        The recorder replaces ``Adam.step``, so no parameter moves and any
        ``base`` trains without a non-finite loss.
        """
        records = generate_synthetic(SyntheticGeneratorConfig(record_count=20), seed=0)
        split = split_records(len(records), (0.8, 0.1, 0.1), 0)
        data = featurize(records, build_vocab_for_split(records, split, min_token_freq=1))

        def run(epochs, base):
            seen = []
            cfg = ExperimentConfig(architecture=3, rating_epochs=epochs, lr=base)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Adam, "step", lambda self, lr=None: seen.append(lr))
                assert train(build(3, seed=0), data, split.train, cfg, seed=0).steps == epochs
            return seen

        return run

    def test_endpoints_and_midpoint(self, rates):
        values = rates(100, 1e-5)
        assert values[0] == 1e-5
        assert abs(values[50] - 5e-6) < 1e-20
        # the last of the 100 steps is one decrement of base / 100 above 0
        assert abs(values[99] - 1e-7) < 1e-20

    @given(st.integers(1, 60), st.floats(1e-8, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_non_increasing_and_exactly_zero_at_end(self, rates, total, base):
        values = rates(total, base)
        assert values == [base * (1 - t / total) for t in range(total)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[0] == base
        # the rate falls by base / total a step, so the last step's is one
        # decrement above 0 and the next would be exactly 0
        assert all(v > 0 for v in values)
        assert abs(values[-1] - base / total) <= 1e-12 * base
