import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.autodiff import Tensor, backward, matmul, mean
from pcbnet.errors import ConfigError, OptimizerError
from pcbnet.nn import _ADAM_BLOCK, Adam, FFNNHead, LinearLayer, LinearSchedule


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
        rng = make_rng(5)
        # "big" spans two blocks and ends in a partial one
        big = (3, _ADAM_BLOCK // 2 + 7)
        assert _ADAM_BLOCK < big[0] * big[1] < 2 * _ADAM_BLOCK
        assert (big[0] * big[1]) % _ADAM_BLOCK != 0
        shapes = {"w": (20, 16), "b": (16,), "e": (7, 4), "big": big,
                  "one": (1,), "scalar": ()}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True, path=k)
                  for k, s in shapes.items()}
        buffers = {k: p.data for k, p in params.items()}
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        theta = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = Adam(params, lr=lr)
        for t in range(1, 6):
            lr_t = lr * (1.0 - t / 10)  # as under the linear schedule
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                theta[k] = theta[k] - lr_t * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
                params[k].grad = g.copy()
            opt.step(lr=lr_t)
        for k, p in params.items():
            assert p.data is buffers[k], k  # updated in place
            assert np.array_equal(p.data, theta[k]), k
            assert np.array_equal(opt.m[k], m[k]), k
            assert np.array_equal(opt.v[k], v[k]), k

    def test_non_contiguous_parameter_is_refused_not_dropped(self):
        # a flat view of a transposed buffer would be a copy, and the update
        # would land in the copy; the step must refuse it before any update
        rng = make_rng(6)
        params = {"ok": Tensor(rng.normal(size=(4, 3)), requires_grad=True, path="ok"),
                  "t": Tensor(rng.normal(size=(3, 4)).T, requires_grad=True, path="t")}
        before = {k: p.data.copy() for k, p in params.items()}
        for p in params.values():
            p.grad = np.ones(p.data.shape)
        opt = Adam(params, lr=0.1)
        with pytest.raises(OptimizerError, match="contiguous"):
            opt.step()
        for k, p in params.items():
            assert np.array_equal(p.data, before[k]), k
        assert opt.step_count == 0

    def test_gradient_of_another_shape_is_refused(self):
        p = Tensor(np.zeros((3, 4)), requires_grad=True, path="p")
        p.grad = np.zeros((4, 3))
        with pytest.raises(OptimizerError, match="shape"):
            Adam({"p": p}).step()


class TestLinearSchedule:
    def test_endpoints_and_midpoint(self):
        s = LinearSchedule(base_lr=1e-5, total_steps=100)
        assert s.lr_at(0) == 1e-5
        assert abs(s.lr_at(50) - 5e-6) < 1e-20
        assert s.lr_at(100) == 0.0

    def test_zero_total_steps_rejected(self):
        with pytest.raises(ConfigError):
            LinearSchedule(base_lr=1e-5, total_steps=0)

    @given(st.integers(1, 500), st.floats(1e-8, 1.0))
    @settings(max_examples=60)
    def test_non_increasing_and_exactly_zero_at_end(self, total, base):
        s = LinearSchedule(base_lr=base, total_steps=total)
        values = [s.lr_at(t) for t in range(total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == base
        assert values[-1] == 0.0
        assert all(v >= 0 for v in values)

