"""Model stack: init, forward/backward, SGD, EMA, snapshots."""

import hashlib

import numpy as np
import pytest

from cssl.datastore import stack_bytes
from cssl.errors import CsslError
from cssl.model import (
    EncoderStack,
    backward,
    ema_update,
    forward,
    init_stack,
    sgd_step,
)
from cssl.numerics import Rng, finite_difference_gradient

DIMS = ([8, 16, 8], [8, 8], [8, 8])


def small_stack(seed=1):
    return init_stack(Rng(seed), *DIMS)


def zeros_like(stack):
    return stack.like(np.zeros_like(stack.flat))


def scalar_stack(w):
    """1-d encoder weight ``w``; identity projector and predictor."""
    return EncoderStack(((1, 1),) * 3, np.array([w, 0.0, 1.0, 0.0, 1.0, 0.0]))


def identity_stack(d):
    """Single-layer identity encoder, projector and predictor of width d."""
    stack = EncoderStack(((d, d),) * 3, np.zeros(3 * (d * d + d)))
    for mlp in (stack.encoder, stack.projector, stack.predictor):
        mlp.weights[0][...] = np.eye(d)
    return stack


class TestInit:
    def test_deterministic(self):
        a, b = small_stack(), small_stack()
        assert stack_bytes(a) == stack_bytes(b)

    def test_bad_predictor_dims(self):
        with pytest.raises(CsslError, match="predictor_dims must map"):
            init_stack(Rng(1), [8, 16, 8], [8, 8], [8, 4])

    def test_chain_violation(self):
        with pytest.raises(CsslError, match="projector_dims must start at"):
            init_stack(Rng(1), [8, 16, 8], [4, 8], [8, 8])

    def test_non_finite_rejected(self):
        flat = scalar_stack(0.0).flat
        flat[0] = np.nan
        with pytest.raises(CsslError, match="parameters: contains NaN"):
            EncoderStack(((1, 1),) * 3, flat)

    def test_vector_must_fit_the_layout(self):
        for flat in (np.zeros(5), np.zeros(6, dtype=np.float32),
                     np.zeros((1, 6))):
            with pytest.raises(CsslError, match="needs 6 float64 values"):
                EncoderStack(((1, 1),) * 3, flat)

    def test_he_variance(self):
        stack = init_stack(Rng(3), [100, 100], [100, 100], [100, 100])
        for mlp in (stack.encoder, stack.projector, stack.predictor):
            var = float(mlp.weights[0].var())
            assert abs(var - 0.02) < 0.3 * 0.02
            assert np.all(mlp.biases[0] == 0.0)


class TestForward:
    def test_zero_params_zero_output(self):
        stack = small_stack()
        for mlp in (stack.encoder, stack.projector, stack.predictor):
            for w in mlp.weights:
                w[...] = 0.0
        out = forward(stack, Rng(2).gaussian_matrix(4, 8), want_pred=True)
        assert np.all(out.features == 0.0)
        assert np.all(out.proj == 0.0)
        assert np.all(out.pred == 0.0)

    def test_identity_single_layers(self):
        stack = identity_stack(8)
        x = Rng(4).gaussian_matrix(5, 8)
        out = forward(stack, x, want_pred=True)
        np.testing.assert_array_equal(out.proj, x)
        np.testing.assert_array_equal(out.pred, x)

    def test_matches_scalar_loop_oracle(self):
        stack = small_stack(7)
        x = Rng(8).gaussian_matrix(3, 8)
        out = forward(stack, x, want_pred=True)

        def naive_mlp(p, inp):
            cur = inp
            for k, (w, b) in enumerate(zip(p.weights, p.biases)):
                nxt = np.zeros((cur.shape[0], w.shape[0]))
                for i in range(cur.shape[0]):
                    for o in range(w.shape[0]):
                        acc = b[o]
                        for j in range(cur.shape[1]):
                            acc += w[o, j] * cur[i, j]
                        nxt[i, o] = acc
                if k < len(p.weights) - 1:
                    nxt = np.where(nxt > 0, nxt, 0.0)
                cur = nxt
            return cur

        feats = naive_mlp(stack.encoder, x)
        proj = naive_mlp(stack.projector, feats)
        pred = naive_mlp(stack.predictor, proj)
        np.testing.assert_allclose(out.features, feats, atol=1e-12)
        np.testing.assert_allclose(out.proj, proj, atol=1e-12)
        np.testing.assert_allclose(out.pred, pred, atol=1e-12)

    def test_deterministic(self):
        stack = small_stack(9)
        x = Rng(10).gaussian_matrix(6, 8)
        a = forward(stack, x, want_pred=True)
        b = forward(stack, x, want_pred=True)
        np.testing.assert_array_equal(a.pred, b.pred)


class TestBackward:
    def test_zero_grads_give_zero_param_grads(self):
        stack = small_stack(11)
        x = Rng(12).gaussian_matrix(4, 8)
        g = backward(stack, forward(stack, x, want_pred=True),
                     np.zeros((4, 8)), np.zeros((4, 8)))
        assert g.layout == stack.layout
        assert np.all(g.flat == 0.0)

    def test_single_linear_layer_structure(self):
        # proj = W x: dL/dW = G^T x for upstream G, hand-checked on 2x2.
        stack = identity_stack(2)
        stack.projector.weights[0][...] = [[2.0, -1.0], [0.5, 3.0]]
        x = np.array([[1.0, 2.0], [3.0, -4.0]])
        g_out = np.array([[1.0, 0.0], [0.0, 1.0]])
        grads = backward(stack, forward(stack, x), g_out)
        want = np.zeros((2, 2))
        for o in range(2):
            for j in range(2):
                for i in range(2):
                    want[o, j] += g_out[i, o] * x[i, j]
        np.testing.assert_allclose(grads.projector.weights[0], want, atol=1e-14)

    def test_full_stack_matches_parameter_fd(self):
        stack = small_stack(13)
        frozen_target = Rng(14).gaussian_matrix(4, 8)
        x = Rng(15).gaussian_matrix(4, 8)

        def loss_of_params(theta):
            stack.flat[...] = theta
            out = forward(stack, x, want_pred=True)
            return float(np.sum((out.pred - frozen_target) ** 2)
                         + np.sum(out.proj ** 2))

        theta0 = stack.flat.copy()
        fd = finite_difference_gradient(
            lambda v: loss_of_params(v.ravel()), theta0.reshape(1, -1))
        stack.flat[...] = theta0
        out = forward(stack, x, want_pred=True)
        grads = backward(stack, out, 2.0 * out.proj,
                         2.0 * (out.pred - frozen_target))
        analytic = grads.flat
        scale = max(float(np.max(np.abs(fd))), 1e-10)
        assert float(np.max(np.abs(analytic - fd.ravel()))) / scale < 1e-6


class TestSgd:
    def test_basic_step(self):
        stack = scalar_stack(0.0)
        g = zeros_like(stack)
        g.encoder.weights[0][...] = 1.0
        sgd_step(stack, g, np.zeros_like(stack.flat), lr=0.1, momentum=0.0,
                 weight_decay=0.0)
        assert stack.encoder.weights[0][0, 0] == pytest.approx(-0.1)

    def test_zero_grad_zero_wd_fixed_point(self):
        stack = small_stack(16)
        before = stack_bytes(stack)
        velocity = np.zeros_like(stack.flat)
        for _ in range(3):
            sgd_step(stack, zeros_like(stack), velocity, lr=0.5, momentum=0.9,
                     weight_decay=0.0)
        assert stack_bytes(stack) == before

    def test_momentum_matches_scalar_recurrence(self):
        stack = scalar_stack(2.0)
        lr, mom, wd, grad = 0.1, 0.9, 0.01, 0.7
        velocity = np.zeros_like(stack.flat)
        p, v = 2.0, 0.0
        for _ in range(2):
            g = zeros_like(stack)
            g.encoder.weights[0][...] = grad
            sgd_step(stack, g, velocity, lr, mom, wd)
            v = mom * v + grad + wd * p
            p = p - lr * v
        assert stack.encoder.weights[0][0, 0] == pytest.approx(p, abs=1e-15)


class TestEma:
    def test_m_zero_copies_online(self):
        online = small_stack(17)
        target = small_stack(18)
        ema_update(target, online, 0.0)
        np.testing.assert_array_equal(target.encoder.weights[0],
                                      online.encoder.weights[0])

    def test_m_one_would_freeze(self):
        # the config rejects ema_momentum = 1; the update itself freezes
        online = small_stack(19)
        target = small_stack(20)
        before = [w.copy() for w in target.encoder.weights]
        ema_update(target, online, 1.0)
        for w0, w1 in zip(before, target.encoder.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_gap_decay_matches_scalar_recurrence(self):
        online = small_stack(21)
        target = small_stack(22)
        gap0 = target.encoder.weights[0][0, 0] - online.encoder.weights[0][0, 0]
        for _ in range(100):
            ema_update(target, online, 0.99)
        gap = target.encoder.weights[0][0, 0] - online.encoder.weights[0][0, 0]
        assert gap == pytest.approx(gap0 * 0.99 ** 100, rel=1e-9)

    def test_contraction_every_coordinate(self):
        online = small_stack(23)
        target = small_stack(24)
        before = np.abs(target.encoder.weights[0] - online.encoder.weights[0])
        ema_update(target, online, 0.9)
        after = np.abs(target.encoder.weights[0] - online.encoder.weights[0])
        assert np.all(after <= before + 1e-15)

    def test_target_forward_no_predictor(self):
        # the target's projection never reads its predictor part
        online = small_stack(25)
        target = online.clone()
        for w in target.predictor.weights:
            w[...] = np.nan
        x = Rng(26).gaussian_matrix(3, 8)
        np.testing.assert_array_equal(forward(target, x).proj,
                                      forward(online, x).proj)


class TestSnapshot:
    def test_isolation_under_training(self):
        stack = small_stack(27)
        snap = stack.clone()
        digest = hashlib.sha256(stack_bytes(snap)).hexdigest()
        velocity = np.zeros_like(stack.flat)
        rng = Rng(28)
        for _ in range(10):
            x = rng.gaussian_matrix(4, 8)
            out = forward(stack, x, want_pred=True)
            grads = backward(stack, out, 0.01 * out.proj)
            sgd_step(stack, grads, velocity, 0.01, 0.9, 1e-4)
        assert hashlib.sha256(stack_bytes(snap)).hexdigest() == digest

    def test_snapshot_of_snapshot(self):
        snap = small_stack(29).clone()
        assert stack_bytes(snap.clone()) == stack_bytes(snap)

    def test_snapshot_replays_forward(self):
        stack = small_stack(30)
        x = Rng(31).gaussian_matrix(5, 8)
        want = forward(stack, x, want_pred=True).pred
        snap = stack.clone()
        # train the live stack, then replay through the snapshot
        g = zeros_like(stack)
        for w in g.encoder.weights:
            w[...] = 0.3
        sgd_step(stack, g, np.zeros_like(stack.flat), 0.2, 0.9, 0.0)
        np.testing.assert_array_equal(forward(snap, x, want_pred=True).pred,
                                      want)

    def test_views_share_the_flat_vector_and_copies_share_nothing(self):
        stack = small_stack(32)
        stack.encoder.weights[0][1, 2] = 7.5  # the first weight is 16 x 8
        assert stack.flat[1 * 8 + 2] == 7.5
        stack.predictor.biases[-1][-1] = -2.5
        assert stack.flat[-1] == -2.5
        other = stack.clone()
        assert not np.shares_memory(other.flat, stack.flat)
        for mine, theirs in zip((other.encoder, other.projector,
                                 other.predictor),
                                (stack.encoder, stack.projector,
                                 stack.predictor)):
            for a, b in zip(mine.weights + mine.biases,
                            theirs.weights + theirs.biases):
                assert not np.shares_memory(a, b)
