"""Unit tests for the autodiff Tensor: ops, broadcasting, backward."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, is_grad_enabled, no_grad


class TestConstruction:
    def test_promotes_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_shape_and_len(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.ndim == 2
        assert t.size == 12
        assert len(t) == 3

    def test_zeros_ones_randn(self):
        assert Tensor.zeros(2, 3).data.sum() == 0
        assert Tensor.ones(2, 3).data.sum() == 6
        r = Tensor.randn(5, 5, rng=np.random.default_rng(0))
        assert r.shape == (5, 5)

    def test_ensure_passthrough(self):
        t = Tensor([1.0])
        assert Tensor.ensure(t) is t
        assert isinstance(Tensor.ensure(3.0), Tensor)

    def test_item_scalar(self):
        assert Tensor(5.0).item() == 5.0

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        d = (a * 2).detach()
        assert not d.requires_grad
        assert np.allclose(d.data, [2.0, 4.0])


class TestForwardValues:
    def test_add_mul_sub_div(self):
        a, b = Tensor([2.0, 4.0]), Tensor([1.0, 2.0])
        assert np.allclose((a + b).data, [3, 6])
        assert np.allclose((a - b).data, [1, 2])
        assert np.allclose((a * b).data, [2, 8])
        assert np.allclose((a / b).data, [2, 2])

    def test_scalar_right_ops(self):
        a = Tensor([2.0])
        assert (1 + a).data[0] == 3
        assert (3 * a).data[0] == 6
        assert (4 - a).data[0] == 2
        assert (8 / a).data[0] == 4

    def test_pow_and_sqrt(self):
        a = Tensor([4.0, 9.0])
        assert np.allclose((a ** 2).data, [16, 81])
        assert np.allclose(a.sqrt().data, [2, 3])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_exp_log_inverse(self):
        a = Tensor([0.5, 1.5])
        assert np.allclose(a.exp().log().data, a.data)

    def test_activations(self):
        a = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(a.relu().data, [0, 0, 2])
        assert np.allclose(a.tanh().data, np.tanh(a.data))
        assert np.allclose(a.sigmoid().data, 1 / (1 + np.exp(-a.data)))
        assert np.allclose(a.abs().data, [1, 0, 2])

    def test_clip(self):
        a = Tensor([-2.0, 0.5, 3.0])
        assert np.allclose(a.clip(-1, 1).data, [-1, 0.5, 1])

    def test_reductions(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert a.sum().item() == 10
        assert a.mean().item() == 2.5
        assert np.allclose(a.sum(axis=0).data, [4, 6])
        assert np.allclose(a.mean(axis=1, keepdims=True).data, [[1.5], [3.5]])
        assert a.max().item() == 4
        assert a.min().item() == 1
        assert np.allclose(a.var().data, np.var(a.data))

    def test_matmul(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_reshape_transpose(self):
        a = Tensor(np.arange(6.0))
        assert a.reshape(2, 3).shape == (2, 3)
        assert a.reshape((3, 2)).shape == (3, 2)
        m = Tensor(np.arange(6.0).reshape(2, 3))
        assert m.T.shape == (3, 2)
        t3 = Tensor(np.zeros((2, 3, 4))).transpose(1, 0, 2)
        assert t3.shape == (3, 2, 4)

    def test_getitem(self):
        a = Tensor(np.arange(10.0))
        assert np.allclose(a[2:5].data, [2, 3, 4])
        m = Tensor(np.arange(6.0).reshape(2, 3))
        assert m[1, 2].data == 5

    def test_concat_and_stack(self):
        a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])
        assert Tensor.concat([a, b], axis=0).shape == (4, 1)
        assert Tensor.concat([a, b], axis=1).shape == (2, 2)
        assert Tensor.stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])],
                            axis=0).shape == (2, 2)

    def test_pad1d(self):
        a = Tensor(np.ones((2, 3)))
        padded = a.pad1d(2, 1)
        assert padded.shape == (2, 6)
        assert padded.data[0, 0] == 0
        assert padded.data[0, 2] == 1


class TestBackward:
    def test_add_broadcast_grad(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_mul_div_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)) + 3, requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)) + 3, requires_grad=True)
        check_gradients(lambda: (a * b / (a + b)).sum(), [a, b])

    def test_matmul_grad(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched_matmul_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum() * 0.1, [a, b])

    def test_activation_grads(self, rng):
        a = Tensor(rng.standard_normal((4,)) * 0.5 + 1.5, requires_grad=True)
        check_gradients(lambda: a.tanh().sum(), [a])
        check_gradients(lambda: a.sigmoid().sum(), [a])
        check_gradients(lambda: a.exp().sum(), [a])
        check_gradients(lambda: a.log().sum(), [a])
        check_gradients(lambda: a.sqrt().sum(), [a])

    def test_max_grad_with_ties(self):
        a = Tensor([1.0, 3.0, 3.0], requires_grad=True)
        a.max().backward()
        # Gradient splits equally across tied maxima.
        assert np.allclose(a.grad, [0, 0.5, 0.5])

    def test_mean_axis_grad(self, rng):
        a = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        check_gradients(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_getitem_grad(self, rng):
        a = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        check_gradients(lambda: (a[1:3] * 2).sum(), [a])

    def test_concat_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        check_gradients(
            lambda: (Tensor.concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_pad_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        check_gradients(lambda: (a.pad1d(1, 2) ** 2).sum(), [a])

    def test_transpose_reshape_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_gradients(
            lambda: (a.transpose(2, 0, 1).reshape(4, 6) ** 2).sum(), [a])

    def test_grad_accumulates_on_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a + a  # a appears twice in the product and once alone
        out.backward()
        assert np.allclose(a.grad, [5.0])  # d(a^2+a)/da = 2a+1

    def test_backward_seed_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [3.0, 30.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None


class TestNoGrad:
    def test_context_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2
        assert is_grad_enabled()
        assert not out.requires_grad
        assert out._prev == ()

    def test_nested_restores_state(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_exception_restores_state(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_grad_mode_is_per_thread(self):
        # A enters, B enters, A exits, B exits: with one process-wide
        # flag B's exit would restore A's "disabled" and leak it.
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(5)
            a_out.set()
            seen["a"] = is_grad_enabled()

        def thread_b():
            a_in.wait(5)
            with no_grad():
                b_in.set()
                a_out.wait(5)
                seen["b_inside"] = is_grad_enabled()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == {"a": True, "b_inside": False}
        assert is_grad_enabled()
