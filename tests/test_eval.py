"""Linear probing and the stability/plasticity measures."""

import numpy as np
import pytest

from cssl.continual import build_class_il
from cssl.datastore import gen_synthetic
from cssl.errors import (
    DegenerateFeatures,
    IndexOutOfRange,
    MissingFt,
    SingleClass,
    SingleTask,
)
from cssl.evaluate import (
    AccuracyMatrix,
    ProbeConfig,
    avg_accuracy,
    fill_accuracy_matrix,
    linear_probe,
    plasticity,
    stability,
)
from cssl.numerics import Rng

from reference import brute_force_plasticity, brute_force_stability


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
        acc = linear_probe(x, y, ProbeConfig(), Rng(1))
        assert acc >= 0.99

    def test_shuffled_labels_near_chance(self):
        rng = Rng(2)
        x = rng.gaussian_matrix(500, 8)
        for seed in (1, 2, 3):
            perm = Rng(seed).permutation(500)
            y = np.repeat(np.arange(10), 50)[perm]
            acc = linear_probe(x, y, ProbeConfig(), Rng(seed))
            assert 0.05 <= acc <= 0.2

    def test_identical_features_raise(self):
        x = np.ones((40, 4))
        y = np.array([0, 1] * 20)
        with pytest.raises(DegenerateFeatures):
            linear_probe(x, y, ProbeConfig(), Rng(1))

    def test_single_class_raises(self):
        x = Rng(1).gaussian_matrix(20, 3)
        with pytest.raises(SingleClass):
            linear_probe(x, np.zeros(20, dtype=int), ProbeConfig(), Rng(1))

    def test_deterministic(self):
        x, y = blobs(margin=1.0)
        a = linear_probe(x, y, ProbeConfig(), Rng(5))
        b = linear_probe(x, y, ProbeConfig(), Rng(5))
        assert a == b

    def test_column_permutation_invariance(self):
        rng = Rng(6)
        x = rng.gaussian_matrix(200, 6)
        y = (x[:, 0] + 0.3 * x[:, 3] > 0).astype(int)
        perm = Rng(7).permutation(6)
        a = linear_probe(x, y, ProbeConfig(), Rng(8))
        b = linear_probe(x[:, perm], y, ProbeConfig(), Rng(8))
        assert a == b

    def test_generator_separability_example(self):
        ds = gen_synthetic(10, 32, 200, 1.0, 0.3, seed=42)
        assert linear_probe(ds.x, ds.y, ProbeConfig(), Rng(1)) >= 0.95


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
        with pytest.raises(IndexOutOfRange):
            avg_accuracy(am, 4)
        with pytest.raises(IndexOutOfRange):
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
        with pytest.raises(SingleTask):
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
        with pytest.raises(MissingFt):
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
