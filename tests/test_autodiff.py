import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbnet.autodiff import (Tensor, add, backward, backward_from,
                             binary_cross_entropy, concat, cross_entropy,
                             dense_epilogue, embedding_bag, embedding_lookup,
                             frozen, grouped_cross_entropy, masked_mean, matmul,
                             mean, relu)
from pcbnet.errors import (DimensionError, GraphError, LabelError,
                           VocabularyError)

from oracles import check_op_gradients

RNG = np.random.default_rng(2024)


def scalarize(t):
    return mean(t)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_scalar_product_rule(self):
        a = Tensor([[2.0]], requires_grad=True)
        b = Tensor([[3.0]], requires_grad=True)
        out = matmul(a, b)
        assert out.data[0, 0] == 6.0
        backward(out)
        assert a.grad[0, 0] == 3.0
        assert b.grad[0, 0] == 2.0

    def test_constant_operand_gets_no_gradient(self):
        x = RNG.normal(size=(3, 4))
        for const_first in (True, False):
            const = Tensor(x if const_first else x.T)
            w = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
            out = matmul(const, w) if const_first else matmul(w, const)
            backward(mean(out))
            assert const.grad is None
            assert w.grad is not None
        check_op_gradients(lambda ts: scalarize(matmul(Tensor(x), ts[0])),
                           [RNG.normal(size=(4, 2))])
        check_op_gradients(lambda ts: scalarize(matmul(ts[0], Tensor(x))),
                           [RNG.normal(size=(2, 3))])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_match_finite_differences(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check_op_gradients(lambda ts: scalarize(matmul(ts[0], ts[1])), [a, b])


class TestAddAndActivations:
    def test_bias_add_broadcast(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = add(x, b)
        assert np.array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))
        backward(mean(out))
        assert np.allclose(b.grad, [0.5, 0.5])

    def test_constant_bias_gets_no_gradient(self):
        bias = Tensor(np.array([1.0, -2.0]))
        x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        backward(mean(add(x, bias)))
        assert bias.grad is None
        assert np.allclose(x.grad, 1.0 / 6.0)
        check_op_gradients(lambda ts: scalarize(add(ts[0], Tensor(bias.data))),
                           [RNG.normal(size=(3, 2))])
        const = Tensor(RNG.normal(size=(3, 2)))
        check_op_gradients(lambda ts: scalarize(add(const, ts[0])),
                           [RNG.normal(size=2)])

    def test_no_general_broadcast(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 1))))

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        backward(mean(relu(x)))
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0 / 3.0])

    def test_relu_backward_example(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        out = mean(relu(x))  # sum/2
        backward(out)
        assert np.array_equal(x.grad * 2, [0.0, 1.0])

    def test_activation_gradients(self):
        x = RNG.normal(size=(4, 3)) + np.sign(RNG.normal(size=(4, 3))) * 0.1
        check_op_gradients(lambda ts: scalarize(relu(ts[0])), [x])


def dense(x, w, b, hidden, fused):
    """One dense layer: the epilogue op, or the matmul -> add -> relu chain."""
    if fused:
        return dense_epilogue(matmul(x, w), b, hidden)
    z = add(matmul(x, w), b)
    return relu(z) if hidden else z


class TestDenseEpilogue:
    SHAPES = [(6, 5), (5, 4), (4,), (4, 7), (7,), (16, 3), (3,)]

    @staticmethod
    def _arrays(integer):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=shape) for shape in TestDenseEpilogue.SHAPES]
        if integer:  # many pre-activations exactly 0, where relu' := 0
            arrays = [np.round(2 * a) for a in arrays]
        return arrays

    @staticmethod
    def _net(ts, fused):
        """Three consumers read ``a``, as architecture 12's appraisal logits:
        the auxiliary loss, a hidden layer, and the concat of the last layer."""
        x, w1, b1, w2, b2, w3, b3 = ts
        a = dense(x, w1, b1, False, fused)
        h = dense(a, w2, b2, True, fused)
        logits = dense(concat([x, a, h], axis=1), w3, b3, False, fused)
        loss = add(cross_entropy(logits, np.array([0, 2, 1, 1, 0, 2])),
                   binary_cross_entropy(a, (a.data > 0).astype(np.float64)))
        return [a, h, logits, loss]

    def _run(self, fused, integer, x_grad):
        leaves = [Tensor(a, requires_grad=i > 0 or x_grad)
                  for i, a in enumerate(self._arrays(integer))]
        values = self._net(leaves, fused)
        backward(values[-1])
        return ([v.data.tobytes() for v in values],
                [None if t.grad is None else t.grad.tobytes() for t in leaves])

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_values_and_leaf_gradients_are_the_chains_bytes(self, integer, x_grad):
        fused = self._run(True, integer, x_grad)
        assert fused == self._run(False, integer, x_grad)
        grads = fused[1]
        assert (grads[0] is not None) == x_grad and None not in grads[1:]

    def test_frozen_values_are_the_chains_bytes(self):
        for integer in (False, True):
            leaves = [Tensor(a, requires_grad=True) for a in self._arrays(integer)]
            recorded = [v.data.tobytes() for v in self._net(leaves, True)]
            with frozen(leaves):
                fused = self._net(leaves, True)
                chain = self._net(leaves, False)
            assert all(v.node is None and not v.requires_grad for v in fused + chain)
            assert [v.data.tobytes() for v in fused] == recorded
            assert [v.data.tobytes() for v in chain] == recorded

    def test_takes_over_the_matmul_output(self):
        x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        z = matmul(x, Tensor(RNG.normal(size=(2, 4))))
        buffer = z.data
        out = dense_epilogue(z, Tensor(RNG.normal(size=4), requires_grad=True), True)
        assert out.data is buffer
        assert out.node.op_kind == "dense_epilogue"
        assert out.node.inputs[0] is z

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor(np.array([[1.0, 0.0, -1.0]]), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        backward(mean(dense_epilogue(matmul(x, Tensor(np.eye(3))), b, True)))
        assert np.array_equal(x.grad, [[1.0 / 3.0, 0.0, 0.0]])
        assert np.array_equal(b.grad, [1.0 / 3.0, 0.0, 0.0])

    def test_constant_bias_gets_no_gradient(self):
        x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        bias = Tensor(RNG.normal(size=4))
        backward(mean(dense_epilogue(matmul(x, Tensor(RNG.normal(size=(2, 4)))), bias, True)))
        assert bias.grad is None and x.grad is not None

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            dense_epilogue(Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)), False)
        with pytest.raises(DimensionError):
            dense_epilogue(Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 2))), True)

    def test_gradients_match_finite_differences(self):
        while True:
            x, w, b = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2)), RNG.normal(size=2)
            if np.abs(x @ w + b).min() > 1e-2:  # away from relu's kink
                break
        for hidden in (False, True):
            check_op_gradients(
                lambda ts: scalarize(dense_epilogue(matmul(ts[0], ts[1]), ts[2], hidden)),
                [x, w, b])


class TestConcat:
    def test_1d_example(self):
        out = concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_single_tensor_identity(self):
        x = np.array([[1.0, 2.0]])
        assert np.array_equal(concat([Tensor(x)], axis=1).data, x)

    def test_fusion_shape_arithmetic(self):
        parts = [Tensor(np.zeros((2, 128))), Tensor(np.zeros((2, 60))),
                 Tensor(np.zeros((2, 8)))]
        assert concat(parts, axis=1).shape == (2, 196)

    def test_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_backward_slices_upstream(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        out = concat([a, b], axis=1)
        upstream = RNG.normal(size=(2, 5))
        backward_from(out, upstream)
        assert np.array_equal(a.grad, upstream[:, :3])
        assert np.array_equal(b.grad, upstream[:, 3:])

    def test_gradients_match_finite_differences(self):
        arrays = [RNG.normal(size=(2, 3)), RNG.normal(size=(2, 2))]
        check_op_gradients(lambda ts: scalarize(concat(ts, axis=1)), arrays)


class TestBackwardContract:
    def test_identity_loss(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        backward(x)
        assert x.grad == 1.0

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GraphError):
            backward(x)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mean(x)
        backward(loss)
        first = x.grad.copy()
        loss2 = mean(x)
        backward(loss2)
        assert np.allclose(x.grad, 2 * first)

    @staticmethod
    def _graph(leaves):
        """Same-shape and bias add, add(x, x), fan-out, concat, relu, matmul(p, p)."""
        a, b, w, bias, c, p, x = leaves
        s = add(a, b)                          # one g read for both operands
        sw = matmul(s, w)
        h = add(sw, bias)                      # bias-add hands g on
        hc = concat([h, c], axis=1)            # views of the upstream gradient
        r = relu(hc)                           # masks its g in place
        pp = matmul(p, p)                      # one tensor on both sides
        xx = add(x, x)                         # one tensor as both operands
        y = matmul(r, pp)
        yx = add(y, xx)
        rx = relu(xx)                          # xx fans out to yx and rx
        out = add(yx, rx)
        return [s, sw, h, hc, r, pp, xx, y, yx, rx, out]

    def test_no_gradient_buffer_is_shared(self):
        # only leaves keep a gradient, and no two of them share memory
        shapes = [(3, 4), (3, 4), (4, 4), (4,), (3, 2), (6, 6), (3, 6)]
        leaves = [Tensor(RNG.normal(size=shape), requires_grad=True) for shape in shapes]
        interior = self._graph(leaves)
        out = interior[-1]
        upstream = RNG.normal(size=out.shape)
        seed = upstream.copy()
        backward_from(out, upstream)
        once = [t.grad.copy() for t in leaves]
        backward_from(out, upstream)           # the same graph again
        for t, g in zip(leaves, once):
            # p's two products add in another order on the second pass
            np.testing.assert_allclose(t.grad, 2 * g, rtol=1e-12, atol=1e-12)
        loss = cross_entropy(out, np.array([0, 5, 2]))
        backward(loss)
        interior.append(loss)
        assert np.array_equal(upstream, seed)
        assert all(t.grad is None for t in interior)
        assert all(t.grad is not None for t in leaves)
        for i, t in enumerate(leaves):
            assert not np.shares_memory(t.grad, upstream), i
            for j, u in enumerate(leaves + interior):
                assert not np.shares_memory(t.grad, u.data), (i, j)
                if u is not t and u.grad is not None:
                    assert not np.shares_memory(t.grad, u.grad), (i, j)

    def test_graph_with_handed_on_gradients_matches_finite_differences(self):
        shapes = [(3, 4), (3, 4), (4, 4), (4,), (3, 2), (6, 6), (3, 6)]
        arrays = [RNG.normal(size=shape) * 0.5 for shape in shapes]
        check_op_gradients(lambda ts: scalarize(self._graph(ts)[-1]), arrays)

    def test_two_layer_mlp_matches_finite_differences(self):
        w1 = RNG.normal(size=(5, 4)) * 0.5
        b1 = RNG.normal(size=4) * 0.1
        w2 = RNG.normal(size=(4, 2)) * 0.5
        b2 = RNG.normal(size=2) * 0.1
        x = RNG.normal(size=(3, 5))

        def build_loss(ts):
            h = relu(add(matmul(Tensor(x), ts[0]), ts[1]))
            return mean(add(matmul(h, ts[2]), ts[3]))

        check_op_gradients(build_loss, [w1, b1, w2, b2])

    def test_diamond_graph_gradient(self):
        # x feeds two consumers; gradients must sum
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        left = relu(x)
        right = matmul(x, Tensor(w))
        loss = mean(concat([left, right], axis=1))
        backward(loss)
        expected = np.array([[1.0, 1.0]]) / 4.0 + np.array([[1.0, 1.0]]) / 4.0 @ w.T
        assert np.allclose(x.grad, expected)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            x = Tensor(rng.normal(size=(2, 4)))
            loss = cross_entropy(matmul(x, w), np.array([0, 2]))
            backward(loss)
            return loss.data.copy(), w.grad.copy()
        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


class TestFrozen:
    def test_records_no_graph_inside_and_restores_after(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
        with_graph = matmul(relu(x), w)
        with frozen([x, w]):
            out = matmul(relu(x), w)
        assert out.node is None and not out.requires_grad
        assert out.data.tobytes() == with_graph.data.tobytes()
        assert x.requires_grad and w.requires_grad
        backward(mean(matmul(relu(x), w)))
        assert x.grad is not None and w.grad is not None

    def test_a_flag_that_was_off_stays_off(self):
        x, c = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2))
        with frozen([x, c]):
            assert not x.requires_grad
        assert x.requires_grad and not c.requires_grad

    def test_nested_blocks_restore_at_their_own_exit(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        with frozen([x]):
            with frozen([x, y]):
                assert relu(x).node is None and relu(y).node is None
            assert not x.requires_grad and y.requires_grad
            assert relu(x).node is None and relu(y).node is not None
        assert x.requires_grad and y.requires_grad

    def test_restored_when_the_block_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with frozen([x]):
                raise RuntimeError
        assert x.requires_grad and relu(x).node is not None

    def test_a_tensor_made_inside_still_records(self):
        w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        with frozen([w]):
            path = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
            backward(mean(matmul(path, w)))
        assert path.grad is not None and w.grad is None

class TestPoolingAndLookup:
    def test_mean_scalar(self):
        x = Tensor(np.array([[1.0, 3.0]]), requires_grad=True)
        out = mean(x)
        assert out.data == 2.0
        backward(out)
        assert np.allclose(x.grad, [[0.5, 0.5]])

    def test_masked_mean_ignores_padding(self):
        emb = RNG.normal(size=(1, 4, 3))
        mask_full = np.array([[1.0, 1.0, 0.0, 0.0]])
        out = masked_mean(Tensor(emb), mask_full)
        assert np.allclose(out.data[0], emb[0, :2].mean(axis=0))

    def test_masked_mean_all_masked_row_is_zero(self):
        out = masked_mean(Tensor(RNG.normal(size=(1, 3, 2))), np.zeros((1, 3)))
        assert np.array_equal(out.data, np.zeros((1, 2)))

    def test_masked_mean_gradients(self):
        emb = RNG.normal(size=(2, 3, 4))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        check_op_gradients(lambda ts: scalarize(masked_mean(ts[0], mask)), [emb])

    def test_embedding_lookup_and_scatter_gradient(self):
        table = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([[0, 2, 2]])
        out = embedding_lookup(table, ids)
        assert np.array_equal(out.data[0, 1], table.data[2])
        backward_from(out, np.ones((1, 3, 3)))
        assert np.allclose(table.grad[2], 2.0)  # used twice
        assert np.allclose(table.grad[1], 0.0)  # unused row
        assert np.allclose(table.grad[4], 0.0)

    def test_embedding_lookup_out_of_range(self):
        with pytest.raises(VocabularyError):
            embedding_lookup(Tensor(np.zeros((3, 2))), np.array([[0, 3]]))

    def test_embedding_gradients_match_finite_differences(self):
        table = RNG.normal(size=(6, 3))
        ids = np.array([[1, 4, 1], [0, 5, 2]])
        check_op_gradients(
            lambda ts: scalarize(embedding_lookup(ts[0], ids)), [table])


class TestEmbeddingBag:
    TABLE = RNG.normal(size=(7, 3))
    IDS = np.array([[2, 5, 2, 0], [1, 0, 0, 0], [3, 3, 3, 6]])
    MASK = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                     [1.0, 1.0, 0.0, 1.0]])

    def test_forward_equals_two_op_path(self):
        def both(rows):
            return (embedding_bag(rows, self.IDS, self.MASK).data,
                    masked_mean(embedding_lookup(rows, self.IDS), self.MASK).data)

        # on an integer-valued table every order of summation is exact
        bag, two_op = both(Tensor(RNG.integers(-50, 50, size=(7, 3)).astype(np.float64)))
        assert np.array_equal(bag, two_op)
        bag, two_op = both(Tensor(self.TABLE))
        np.testing.assert_allclose(bag, two_op, rtol=1e-12, atol=0)
        assert np.array_equal(bag[1], np.zeros(3))  # all-pad row

    def test_table_gradient_matches_two_op_path(self):
        upstream = RNG.normal(size=(3, 3))
        fused = Tensor(self.TABLE, requires_grad=True)
        two_op = Tensor(self.TABLE, requires_grad=True)
        backward_from(embedding_bag(fused, self.IDS, self.MASK), upstream)
        backward_from(masked_mean(embedding_lookup(two_op, self.IDS), self.MASK),
                      upstream)
        assert np.allclose(fused.grad, two_op.grad, rtol=1e-12, atol=1e-15)

    def test_absent_tokens_get_exactly_zero_gradient(self):
        table = Tensor(self.TABLE, requires_grad=True)
        backward(mean(embedding_bag(table, self.IDS, self.MASK)))
        # ids 1 and 0 appear only at masked positions, id 4 nowhere
        for row in (0, 1, 4):
            assert np.array_equal(table.grad[row], np.zeros(3))
        for row in (2, 3, 5, 6):
            assert np.all(table.grad[row] != 0.0)

    def test_gradients_match_finite_differences(self):
        check_op_gradients(
            lambda ts: scalarize(embedding_bag(ts[0], self.IDS, self.MASK)),
            [self.TABLE.copy()])

    def test_out_of_range_id(self):
        with pytest.raises(VocabularyError):
            embedding_bag(Tensor(np.zeros((3, 2))), np.array([[0, 3]]),
                          np.ones((1, 2)))

    def test_mask_shape_mismatch(self):
        with pytest.raises(DimensionError):
            embedding_bag(Tensor(np.zeros((3, 2))), np.array([[0, 1]]),
                          np.ones((1, 3)))

    def test_op_kinds(self):
        table = Tensor(self.TABLE, requires_grad=True)
        assert embedding_bag(table, self.IDS, self.MASK).node.op_kind == "embedding_bag"
        pooled = masked_mean(embedding_lookup(table, self.IDS), self.MASK)
        assert pooled.node.op_kind == "masked_mean"


class TestLosses:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor([[0.0, 0.0, 0.0]]), np.array([1]))
        assert abs(loss.item() - np.log(3)) < 1e-12

    def test_saturated_correct_class(self):
        loss = cross_entropy(Tensor([[1000.0, 0.0, 0.0]]), np.array([0]))
        assert loss.item() < 1e-12

    def test_log_sum_exp_oracle_value(self):
        # hand calculation: lse(1, 2, 0.5) = 2 + ln(e^-1 + 1 + e^-1.5)
        logits = np.array([[1.0, 2.0, 0.5]])
        expected = (2.0 + np.log(np.exp(-1.0) + 1.0 + np.exp(-1.5))) - 2.0
        loss = cross_entropy(Tensor(logits), np.array([1]))
        assert abs(loss.item() - expected) < 1e-12

    def test_out_of_range_target_names_index(self):
        with pytest.raises(LabelError, match="index 1"):
            cross_entropy(Tensor(np.zeros((3, 3))), np.array([0, 5, 1]))

    def test_bce_half(self):
        loss = binary_cross_entropy(Tensor([[0.0]]), np.array([[1.0]]))
        assert abs(loss.item() - np.log(2)) < 1e-12

    def test_bce_stable_at_large_logit(self):
        loss = binary_cross_entropy(Tensor([[50.0]]), np.array([[1.0]]))
        assert 0 <= loss.item() < 1e-12

    def test_bce_matches_per_element_oracle(self):
        z = RNG.normal(size=(2, 3)) * 3
        t = (RNG.random((2, 3)) > 0.5).astype(float)
        sig = 1 / (1 + np.exp(-z))
        expected = -(t * np.log(sig) + (1 - t) * np.log(1 - sig)).mean()
        loss = binary_cross_entropy(Tensor(z), t)
        assert abs(loss.item() - expected) < 1e-10

    def test_bce_rejects_non_binary(self):
        with pytest.raises(LabelError):
            binary_cross_entropy(Tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_loss_non_negativity(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=4.0, size=(3, 4))
        targets = rng.integers(0, 4, size=3)
        assert cross_entropy(Tensor(z), targets).item() >= 0.0
        flags = rng.integers(0, 2, size=(3, 4)).astype(float)
        assert binary_cross_entropy(Tensor(z), flags).item() >= 0.0

    def test_loss_gradients_match_finite_differences(self):
        z = RNG.normal(size=(4, 3))
        targets = np.array([0, 2, 1, 1])
        check_op_gradients(lambda ts: cross_entropy(ts[0], targets), [z])
        flags = (RNG.random((4, 3)) > 0.5).astype(float)
        check_op_gradients(lambda ts: binary_cross_entropy(ts[0], flags), [z])

    def test_grouped_cross_entropy_matches_blockwise(self):
        z = RNG.normal(size=(2, 6))
        t = np.array([[0, 2], [1, 1]])
        loss = grouped_cross_entropy(Tensor(z), t, groups=2)
        pieces = []
        for g in range(2):
            block = z[:, 3 * g:3 * g + 3]
            lse = np.log(np.exp(block).sum(axis=1))
            pieces.append(lse - block[np.arange(2), t[:, g]])
        assert abs(loss.item() - np.mean(pieces)) < 1e-10

    def test_grouped_cross_entropy_gradients(self):
        z = RNG.normal(size=(3, 9))
        t = RNG.integers(0, 3, size=(3, 3))
        check_op_gradients(lambda ts: grouped_cross_entropy(ts[0], t, groups=3), [z])

    def test_loss_weight_scales_value_and_gradient(self):
        z = RNG.normal(size=(2, 3))
        targets = np.array([0, 1])
        t1 = Tensor(z.copy(), requires_grad=True)
        t2 = Tensor(z.copy(), requires_grad=True)
        l1 = grouped_cross_entropy(t1, targets[:, None], groups=1)
        l2 = grouped_cross_entropy(t2, targets[:, None], groups=1, weight=2.5)
        backward(l1)
        backward(l2)
        assert abs(l2.item() - 2.5 * l1.item()) < 1e-12
        assert np.allclose(t2.grad, 2.5 * t1.grad)


# Margins of 100 nats: a probability of e^-100 is subnormal in float32.
CONFIDENT = np.array([[100.0, 0.0, 40.0, 60.0, -3.0, 2.0],
                      [0.0, 100.0, -100.0, 1.0, 50.0, 49.0],
                      [-80.0, 20.0, 0.0, 0.5, -0.5, 100.0],
                      [1.0, 2.0, 3.0, 100.0, 35.0, -70.0]])
GROUPED_TARGETS = np.array([[0, 1], [1, 2], [2, 2], [0, 0]])
FLAGS = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, 1.0, 0.0, 0.0, 1.0],
                  [1.0, 0.0, 0.0, 1.0, 1.0, 0.0]])
# The loss-gradient floor: 2^32 times the dtype's smallest normal number.
FLOOR = {np.float32: 2.0 ** -94, np.float64: 2.0 ** -990}


def formula_ce_grad(z, targets, groups, weight):
    """The grouped cross-entropy gradient without a floor, operation for operation."""
    b, c = z.shape[0], z.shape[1] // groups
    zz = z.reshape(b, groups, c)
    m = zz.max(axis=-1, keepdims=True)
    lsm = zz - m - np.log(np.exp(zz - m).sum(axis=-1, keepdims=True))
    dz = np.exp(lsm)
    dz[np.arange(b)[:, None], np.arange(groups)[None, :], targets] -= 1.0
    return dz.reshape(b, groups * c) * (weight * 1.0 / (b * groups))


def formula_bce_grad(z, t, weight):
    """The binary cross-entropy gradient without a floor, operation for operation."""
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return (sig - t) * (weight * 1.0 / z.size)


LOSS_CASES = {
    "cross_entropy": (lambda x: cross_entropy(x, GROUPED_TARGETS[:, 0]),
                      lambda z: formula_ce_grad(z, GROUPED_TARGETS[:, :1], 1, 1.0)),
    "grouped_cross_entropy": (
        lambda x: grouped_cross_entropy(x, GROUPED_TARGETS, groups=2, weight=0.5),
        lambda z: formula_ce_grad(z, GROUPED_TARGETS, 2, 0.5)),
    "binary_cross_entropy": (lambda x: binary_cross_entropy(x, FLAGS, weight=0.5),
                             lambda z: formula_bce_grad(z, FLAGS.astype(z.dtype), 0.5)),
}


def loss_grad(loss_fn, z):
    x = Tensor(z, requires_grad=True)
    backward(loss_fn(x))
    return x.grad


class TestLossGradientFloor:
    @pytest.mark.parametrize("case", LOSS_CASES)
    def test_float32_gradient_holds_nothing_between_zero_and_the_floor(self, case):
        loss_fn, formula = LOSS_CASES[case]
        z = CONFIDENT.astype(np.float32)
        magnitude = np.abs(formula(z))
        assert np.any((magnitude > 0) & (magnitude < FLOOR[np.float32]))  # inputs bite
        grad = loss_grad(loss_fn, z)
        assert grad.dtype == np.float32
        tiny = (grad != 0) & (np.abs(grad) < FLOOR[np.float32])
        assert not tiny.any(), grad[tiny]

    @pytest.mark.parametrize("case", LOSS_CASES)
    def test_float32_entries_at_or_above_the_floor_are_the_formulas_bits(self, case):
        loss_fn, formula = LOSS_CASES[case]
        z = CONFIDENT.astype(np.float32)
        expected = formula(z)
        below = np.abs(expected) < FLOOR[np.float32]
        assert (~below).sum() > z.shape[0]  # not only the target entries stay
        grad = loss_grad(loss_fn, z)
        assert np.array_equal(grad[~below], expected[~below])
        assert np.all(grad[below] == 0.0)

    @pytest.mark.parametrize("case", LOSS_CASES)
    def test_float64_gradient_is_the_formulas_bits(self, case):
        loss_fn, formula = LOSS_CASES[case]
        grad = loss_grad(loss_fn, CONFIDENT.copy())
        assert grad.dtype == np.float64
        assert np.array_equal(grad, formula(CONFIDENT))

