"""Linear probing and the stability/plasticity measures."""

import numpy as np
import pytest

from cssl import evaluate
from cssl.continual import build_class_il, build_domain_il, encoder_features
from cssl.datastore import gen_synthetic
from cssl.errors import CsslError, DivergenceDetected
from cssl.evaluate import (
    AccuracyMatrix,
    ProbeConfig,
    avg_accuracy,
    fill_accuracy_matrix,
    linear_probe,
    plasticity,
    stability,
)
from cssl.model import init_stack
from cssl.numerics import Rng

from reference import (
    brute_force_plasticity,
    brute_force_stability,
    per_checkpoint_probe,
)


def blobs(n=100, margin=5.0, seed=3):
    rng = Rng(seed)
    a = rng.gaussian_matrix(n, 2) + np.array([0.0, 0.0])
    b = rng.gaussian_matrix(n, 2) + np.array([margin, margin])
    x = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    return x, y


class TestLinearProbe:
    def test_separable_blobs(self):
        x, y = blobs(margin=5.0)
        acc = linear_probe(x[None], y, ProbeConfig(), Rng(1))[2][0]
        assert acc >= 0.99

    def test_shuffled_labels_near_chance(self):
        rng = Rng(2)
        x = rng.gaussian_matrix(500, 8)
        for seed in (1, 2, 3):
            perm = Rng(seed).permutation(500)
            y = np.repeat(np.arange(10), 50)[perm]
            acc = linear_probe(x[None], y, ProbeConfig(), Rng(seed))[2][0]
            assert 0.05 <= acc <= 0.2

    def test_identical_features_raise(self):
        x = np.ones((40, 4))
        y = np.array([0, 1] * 20)
        with pytest.raises(CsslError, match="feature matrix 0 of 1"):
            linear_probe(x[None], y, ProbeConfig(), Rng(1))

    def test_single_class_raises(self):
        x = Rng(1).gaussian_matrix(20, 3)
        with pytest.raises(CsslError, match="at least two classes"):
            linear_probe(x[None], np.zeros(20, dtype=int), ProbeConfig(),
                         Rng(1))

    def test_deterministic(self):
        x, y = blobs(margin=1.0)
        a = linear_probe(x[None], y, ProbeConfig(), Rng(5))[2][0]
        b = linear_probe(x[None], y, ProbeConfig(), Rng(5))[2][0]
        assert a == b

    def test_column_permutation_invariance(self):
        rng = Rng(6)
        x = rng.gaussian_matrix(200, 6)
        y = (x[:, 0] + 0.3 * x[:, 3] > 0).astype(int)
        perm = Rng(7).permutation(6)
        a = linear_probe(x[None], y, ProbeConfig(), Rng(8))[2][0]
        b = linear_probe(x[None][..., perm], y, ProbeConfig(),
                         Rng(8))[2][0]
        assert a == b

    def test_generator_separability_example(self):
        ds = gen_synthetic(10, 32, 200, 1.0, 0.3, seed=42)
        _w, _b, acc = linear_probe(ds.x[None], ds.y, ProbeConfig(), Rng(1))
        assert acc[0] >= 0.95

    def test_one_constant_slice_is_named(self):
        rng = Rng(4)
        x = np.stack([rng.gaussian_matrix(40, 4), np.ones((40, 4)),
                      rng.gaussian_matrix(40, 4)])
        y = np.array([0, 1] * 20)
        with pytest.raises(CsslError, match="feature matrix 1 of 3"):
            linear_probe(x, y, ProbeConfig(), Rng(1))

    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    def test_row_max_matches_numpy_max(self, k):
        # linear_probe takes the max over the classes, the middle axis of
        # its (C, k, n) logits, with np.maximum.reduce; the rows of the
        # sample-major (C, n, k) logits are that buffer's columns
        rng = Rng(k)
        logits = rng.gaussian_matrix(3 * 16, k).reshape(3, 16, k)
        logits[0, 0] = 0.0
        logits[0, 1, ::2] = -0.0
        logits[0, 2] = -0.0
        logits[1, 0, :] = 1.5  # all tied
        logits[1, 1, -2:] = 7.0  # tie at the maximum
        logits[1, 2, 0] = 1e308
        logits[1, 3, :] = -1e308
        logits[2, 0, 1] = -1e300
        out = np.empty((3, 16))
        got = np.maximum.reduce(np.ascontiguousarray(
            logits.transpose(0, 2, 1)), axis=1, out=out)
        want = logits.max(axis=-1)
        assert got is out
        np.testing.assert_array_equal(got, want)
        # a -0.0 in place of +0.0 cannot move the softmax: x - (+-0) == x
        # and exp(+-0) == 1
        assert np.array_equal(np.exp(logits - got[..., None]),
                              np.exp(logits - want[..., None]))

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 10, 15, 16, 17, 24, 25])
    def test_class_sum_matches_numpy_row_sum(self, k):
        # linear_probe's softmax denominator is np.add.reduce over the
        # middle axis of its (C, k, n) buffer, and tests/reference.py
        # spells that out as adding the classes in order. numpy reduces a
        # middle axis one class row at a time; a numpy that reorders it
        # fails here, and the probe's weights then move in their last bits
        rng = Rng(100 + k)
        rows = np.exp(3.0 * rng.gaussian_matrix(3 * 40, k)).reshape(3, 40, k)
        rows[0, 0] = rng.gaussian_matrix(1, k)[0]  # signs mixed
        rows[1, 0, ::3] = 0.0
        rows[2, 0, 0] = 1e300
        g = np.ascontiguousarray(rows.transpose(0, 2, 1))
        out = np.empty((3, 40))
        got = np.add.reduce(g, axis=1, out=out)
        want = g[:, 0].copy()
        for j in range(1, k):
            want += g[:, j]
        assert got is out
        assert np.array_equal(got, want), (
            "numpy no longer adds the middle axis in order")

    def test_diverging_probe_raises(self):
        # lr * 2 * l2_penalty = 1000: the decay term alone multiplies the
        # weights by -999 every epoch, so they overflow to inf and then NaN
        x, y = blobs(margin=5.0)
        cfg = ProbeConfig(l2_penalty=1000.0)
        x2 = np.stack([x, x[:, ::-1]])
        with pytest.raises(DivergenceDetected, match=(
                r"feature matrix 0 of 2 diverged \(probe.lr 0.5, "
                r"probe.l2_penalty 1000.0\)")):
            linear_probe(x2, y, cfg, Rng(1))
        assert linear_probe(x2, y, ProbeConfig(), Rng(1))[2].min() >= 0.99

    @pytest.mark.parametrize("scenario",
                             ["class_il", "domain_il", "domain_il_25"])
    @pytest.mark.parametrize("with_ft", [False, True])
    def test_stacked_probe_equals_per_checkpoint(self, scenario, with_ft):
        # class-IL: 5 tasks of 2 classes; domain-IL: 3 tasks of 10 classes,
        # whose class sums take numpy's 8-accumulator row sum, or of 25
        # classes, whose accumulators hold three terms each
        T = 5 if scenario == "class_il" else 3
        classes = 25 if scenario == "domain_il_25" else 10
        ds = gen_synthetic(classes, 8, 12, 1.0, 0.5, seed=2)
        stream = (build_class_il(ds, T) if scenario == "class_il"
                  else build_domain_il(ds, T, 2))
        dims = dict(encoder_dims=[8, 10, 6], projector_dims=[6, 6],
                    predictor_dims=[6, 6])
        seq = [init_stack(Rng(10 + j), **dims) for j in range(T)]
        ft = [init_stack(Rng(20 + j), **dims) for j in range(T)]
        cfg = ProbeConfig(epochs=200)
        am = fill_accuracy_matrix(seq, ft if with_ft else None, stream, cfg,
                                  seed=3)
        root = Rng(3)
        for i, task in enumerate(stream.tasks):
            probed = seq + ([ft[i]] if with_ft else [])
            feats = np.stack([encoder_features(c, task.x) for c in probed])
            split = f"probe-split-{i}"
            w, b, acc = evaluate.linear_probe(feats, task.y, cfg,
                                              root.derive(split))
            assert w.shape[0] == b.shape[0] == acc.shape[0] == len(probed)
            for c, x in enumerate(feats):
                rw, rb, racc = per_checkpoint_probe(x, task.y, cfg,
                                                    root.derive(split))
                assert np.array_equal(w[c], rw) and np.array_equal(b[c], rb)
                assert acc[c] == racc
                if c < T:
                    assert am.a[i, c] == racc
                else:
                    assert am.ft[i] == racc
        assert (am.ft is not None) == with_ft


class TestAccuracyMatrix:
    def test_single_task_grid(self):
        ds = gen_synthetic(2, 8, 30, 1.0, 0.5, seed=1)
        stream = build_class_il(ds, 1)
        from cssl.continual import TrainConfig, run_sequence
        from cssl.losses import Method, PnrConfig, Regime
        cfg = TrainConfig(epochs_per_task=2, batch_size=16, lr=0.05, seed=1,
                          loss=PnrConfig(method=Method.SIMCLR, regime=Regime.FT),
                          encoder_dims=[8, 12, 6], projector_dims=[6, 6],
                          predictor_dims=[6, 6])
        res = run_sequence(stream, cfg)
        am = fill_accuracy_matrix(res.checkpoints, res.ft_checkpoints, stream,
                                  ProbeConfig(), seed=1)
        assert am.a.shape == (1, 1)
        assert 0.0 <= am.a[0, 0] <= 1.0
        am2 = fill_accuracy_matrix(res.checkpoints, res.ft_checkpoints, stream,
                                   ProbeConfig(), seed=1)
        np.testing.assert_array_equal(am.a, am2.a)

    def test_ft_count_checked_before_probing(self, monkeypatch):
        ds = gen_synthetic(4, 8, 10, 1.0, 0.5, seed=1)
        stream = build_class_il(ds, 2)
        dims = dict(encoder_dims=[8, 6], projector_dims=[6, 6],
                    predictor_dims=[6, 6])
        stacks = [init_stack(Rng(j), **dims) for j in range(2)]
        calls = []
        monkeypatch.setattr(evaluate, "linear_probe",
                            lambda *args: calls.append(args))
        with pytest.raises(CsslError, match="1 ft references for 2"):
            fill_accuracy_matrix(stacks, stacks[:1], stream, ProbeConfig(),
                                 seed=1)
        assert calls == []

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            AccuracyMatrix(np.array([[1.5]]))


class TestMetrics:
    def test_avg_accuracy_constant(self):
        am = AccuracyMatrix(np.full((4, 4), 0.7))
        for t in range(1, 5):
            assert avg_accuracy(am, t) == pytest.approx(0.7)

    def test_avg_accuracy_t1(self):
        am = AccuracyMatrix(np.array([[0.8, 0.6], [0.2, 0.9]]))
        assert avg_accuracy(am, 1) == 0.8

    def test_avg_accuracy_hand_case(self):
        am = AccuracyMatrix(np.array([[0.8, 0.6], [0.0, 0.9]]))
        assert avg_accuracy(am, 2) == pytest.approx(0.75)

    def test_avg_accuracy_range(self):
        am = AccuracyMatrix(np.eye(3))
        with pytest.raises(CsslError, match=r"t=4 outside \[1, 3\]"):
            avg_accuracy(am, 4)
        with pytest.raises(CsslError, match=r"t=0 outside \[1, 3\]"):
            avg_accuracy(am, 0)

    def test_stability_constant_rows(self):
        am = AccuracyMatrix(np.full((3, 3), 0.6))
        assert stability(am) == 0.0

    def test_stability_hand_case(self):
        am = AccuracyMatrix(np.array([[0.7, 0.5], [0.0, 0.8]]))
        assert stability(am) == pytest.approx(0.2)

    def test_stability_monotone_rows_zero(self):
        a = np.array([[0.1, 0.2, 0.3],
                      [0.0, 0.4, 0.5],
                      [0.0, 0.0, 0.6]])
        assert stability(AccuracyMatrix(a)) == 0.0

    def test_stability_single_task(self):
        with pytest.raises(CsslError, match="stability needs T >= 2"):
            stability(AccuracyMatrix(np.array([[0.5]])))

    def test_plasticity_matches_ft_zero(self):
        a = np.array([[0.5, 0.5], [0.4, 0.6]])
        am = AccuracyMatrix(a, ft=np.array([0.9, 0.4]))
        assert plasticity(am) == pytest.approx(0.0)

    def test_plasticity_hand_case(self):
        a = np.array([[0.7, 0.5], [0.6, 0.8]])
        am = AccuracyMatrix(a, ft=np.array([0.7, 0.5]))
        assert plasticity(am) == pytest.approx(0.1)

    def test_plasticity_linear_shift(self):
        rng = Rng(9)
        T = 5
        a = rng.uniform(T * T).reshape(T, T) * 0.5 + 0.2
        ft = rng.uniform(T) * 0.5 + 0.2
        base = plasticity(AccuracyMatrix(a, ft=ft))
        c = 0.05
        shifted = a.copy()
        for j in range(T):
            for i in range(j + 1, T):
                shifted[i, j] += c
        lifted = plasticity(AccuracyMatrix(shifted, ft=ft))
        assert lifted == pytest.approx(base + c, abs=1e-12)

    def test_plasticity_needs_ft(self):
        with pytest.raises(CsslError, match="plasticity needs FT baselines"):
            plasticity(AccuracyMatrix(np.eye(2) * 0.5))

    def test_brute_force_equivalence_exact(self):
        rng = Rng(10)
        for trial in range(200):
            T = 2 + int(rng.uniform(1)[0] * 9)
            a = rng.uniform(T * T).reshape(T, T)
            ft = rng.uniform(T)
            am = AccuracyMatrix(a, ft=ft)
            assert stability(am) == brute_force_stability(a)
            assert plasticity(am) == brute_force_plasticity(a, ft)
