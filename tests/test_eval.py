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
    probe_gradient,
    probe_hessian,
)

# The largest gradient entry a converged probe may leave (see
# evaluate._newton_fit's stop rule); the fits below reach about 1e-8.
GRAD_TOL = 1e-6


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
        acc = linear_probe(x, y, Rng(1).permutation(200), ProbeConfig())[2]
        assert acc >= 0.99

    def test_shuffled_labels_near_chance(self):
        rng = Rng(2)
        x = rng.gaussian_matrix(500, 8)
        for seed in (1, 2, 3):
            perm = Rng(seed).permutation(500)
            y = np.repeat(np.arange(10), 50)[perm]
            acc = linear_probe(x, y, perm, ProbeConfig())[2]
            assert 0.05 <= acc <= 0.2

    def test_identical_features_fit_bias_only(self):
        # A collapsed encoder: every column centers to zero and is left
        # unscaled, so only the bias learns, and it predicts the train
        # split's most frequent class.
        x = np.ones((40, 4))
        y = np.array([0, 1] * 20)
        perm = Rng(1).permutation(40)
        w, b, acc = linear_probe(x, y, perm, ProbeConfig())
        assert np.mean(y[perm[:32]] == 0) > 0.5
        assert not w.any()
        assert b[0] > 0 > b[1]
        assert acc == np.mean(y[perm[32:]] == 0) == 0.25

    def test_single_class_raises(self):
        x = Rng(1).gaussian_matrix(20, 3)
        with pytest.raises(CsslError, match="at least two classes"):
            linear_probe(x, np.zeros(20, dtype=int), Rng(1).permutation(20),
                         ProbeConfig())

    def test_shapes_checked(self):
        x = Rng(1).gaussian_matrix(20, 3)
        y = np.arange(20) % 2
        order = Rng(1).permutation(20)
        for args in ((x[None], y, order), (x, y[:-1], order),
                     (x, y, order[:-1])):
            with pytest.raises(CsslError, match=r"must be \(m, d\)"):
                linear_probe(*args, ProbeConfig())

    def test_deterministic(self):
        x, y = blobs(margin=1.0)
        order = Rng(5).permutation(200)
        a = linear_probe(x, y, order, ProbeConfig())[2]
        b = linear_probe(x, y, order, ProbeConfig())[2]
        assert a == b

    def test_column_permutation_invariance(self):
        rng = Rng(6)
        x = rng.gaussian_matrix(200, 6)
        y = (x[:, 0] + 0.3 * x[:, 3] > 0).astype(int)
        perm = Rng(7).permutation(6)
        order = Rng(8).permutation(200)
        a = linear_probe(x, y, order, ProbeConfig())[2]
        b = linear_probe(x[:, perm], y, order, ProbeConfig())[2]
        assert a == b

    def test_diverging_probe_raises(self):
        # Features of a diverged encoder (the 1e229 of an overflowing run)
        # square to inf in the standardization; NaN features are not
        # finite. Either raises, naming the penalty.
        x, y = blobs(margin=5.0)
        order = Rng(1).permutation(200)
        for bad, why in ((1e229, "overflow in the standardization"),
                         (np.nan, "are not finite")):
            x2 = x.copy()
            x2[7, 0] = bad
            with pytest.raises(DivergenceDetected, match=(
                    rf"^probe \(probe.l2_penalty 0.0001\): features {why}$")):
                linear_probe(x2, y, order, ProbeConfig())
        assert linear_probe(x, y, order, ProbeConfig())[2] >= 0.99

    def test_singular_hessian_names_the_penalty(self):
        # A duplicated feature column makes two weight directions equal;
        # a penalty of 1e-20 vanishes next to their curvature, so the
        # Newton system is singular. The default penalty keeps it regular.
        x = Rng(3).gaussian_matrix(100, 2)
        x = np.hstack([x, x[:, :1]])
        y = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(int)
        order = Rng(1).permutation(100)
        with pytest.raises(DivergenceDetected, match=(
                r"^probe \(probe.l2_penalty 1e-20\): the Hessian is "
                r"singular")):
            linear_probe(x, y, order, ProbeConfig(l2_penalty=1e-20))
        assert linear_probe(x, y, order, ProbeConfig())[2] == 1.0

    def test_heavy_penalty_fits_bias_only(self):
        # A penalty of 1000 pins the weights near zero, so the fit is in
        # effect all bias: the bias gap is the log-odds of the train
        # split's class counts and every holdout sample gets the majority
        x, y = blobs(margin=5.0)
        perm = Rng(1).permutation(200)
        w, b, acc = linear_probe(x, y, perm, ProbeConfig(l2_penalty=1000.0))
        ones = np.sum(y[perm[:160]])
        assert np.abs(w).max() < 1e-3
        assert b[1] - b[0] == pytest.approx(np.log(ones / (160 - ones)),
                                            abs=1e-3)
        majority = int(ones > 80)
        assert acc == np.mean(y[perm[160:]] == majority)

    def test_class_missing_from_train_split(self):
        # A class whose only sample lands in the holdout has no finite
        # minimizer: it is left out of the fit (weights 0, bias -inf) and
        # never predicted, and the other classes converge
        x = Rng(9).gaussian_matrix(41, 3)
        y = (x[:, 0] > 0).astype(int)
        order = Rng(2).permutation(41)
        y[order[-1]] = 2
        cfg = ProbeConfig(epochs=30)
        for feats in (x, x[:, ::-1]):
            w, b, acc = linear_probe(feats, y, order, cfg)
            assert b[2] == -np.inf and not w[2].any()
            gw, gb, racc = probe_gradient(feats, y, order, cfg, w, b)
            assert max(np.abs(gw).max(), np.abs(gb).max()) < GRAD_TOL
            assert acc == racc < 1.0  # the held-out class-2 sample misses

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_fit_is_first_order_optimal(self, d):
        # Noise, the same noise at a 1e3 scale, and noise with a label
        # signal in column 0: each fit is the minimum of its objective.
        rng = Rng(30 + d)
        feats = rng.gaussian_matrix(3 * 150, d).reshape(3, 150, d)
        feats[1] *= 1e3
        y = np.arange(150) % 3
        feats[2, :, 0] += 0.8 * y
        order = Rng(4).permutation(150)
        for x in feats:
            w, b, acc = linear_probe(x, y, order, ProbeConfig())
            gw, gb, racc = probe_gradient(x, y, order, ProbeConfig(), w, b)
            assert max(np.abs(gw).max(), np.abs(gb).max()) < GRAD_TOL
            assert acc == racc


    @pytest.mark.parametrize("k, d, n", [(2, 8, 320), (10, 8, 3200),
                                         (2, 1, 320), (10, 1, 3200)])
    def test_newton_converges_within_twelve_iterations(self, k, d, n):
        # Random encoders' features of synthetic tasks, at the benchmark's
        # probe shapes: Newton's method stops on its own rule within 12
        # iterations, so the fit equals the 500-cap fit bit for bit. A
        # Hessian that is positive definite but wrong converges slower and
        # reaches the cap instead.
        ds = gen_synthetic(k, 8, n * 5 // (4 * k), 1.0, 0.5, seed=k + d)
        x = encoder_features(init_stack(Rng(d), [8, 16, d], [d, d], [d, d]),
                             ds.x)
        order = Rng(k).permutation(ds.num_samples)
        assert int(ProbeConfig().train_fraction * ds.num_samples) == n
        w, b, acc = linear_probe(x, ds.y, order, ProbeConfig(epochs=12))
        w_cap, b_cap, acc_cap = linear_probe(x, ds.y, order, ProbeConfig())
        np.testing.assert_array_equal(w, w_cap)
        np.testing.assert_array_equal(b, b_cap)
        assert acc == acc_cap


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestProbeHessian:
    @pytest.mark.parametrize("pair_weights", [None, 50])
    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_matches_per_sample_sum(self, k, d, pair_weights, monkeypatch):
        # Softmaxes from logits of scale 3, some near saturation. A block
        # of 50 pair weights splits the samples unevenly at every k.
        if pair_weights is not None:
            monkeypatch.setattr(evaluate, "_PAIR_WEIGHTS", pair_weights)
        rng = Rng(50 + 10 * k + d)
        n = 203
        x = rng.gaussian_matrix(n, d)
        logits = 3.0 * rng.gaussian_matrix(k, n)
        prob = np.exp(logits - logits.max(axis=0))
        prob /= prob.sum(axis=0)
        xa = np.hstack([x, np.ones((n, 1))])
        hessian = evaluate._hessian_builder(xa, k, 1e-4)
        want = probe_hessian(x, prob.T, 1e-4)
        assert _relative_gap(hessian(prob), want) <= 1e-12
        # a second call on the same buffers reads nothing of the first
        assert _relative_gap(hessian(prob[::-1].copy()),
                             probe_hessian(x, prob[::-1].T, 1e-4)) <= 1e-12

    def test_every_newton_step_of_a_fit_lacking_a_class(self, monkeypatch):
        # Class 4 is moved out of the train split into the holdout, so the
        # fit has 9 classes; every Hessian it solves with matches the
        # per-sample sum at the softmax it was built for.
        x = Rng(11).gaussian_matrix(400, 8)
        y = np.argmax(x @ Rng(12).gaussian_matrix(8, 10), axis=1)
        order = Rng(13).permutation(400)
        tr = order[:320]
        y[tr[y[tr] == 4]] = 5
        assert 4 in y[order[320:]]
        build = evaluate._hessian_builder
        gaps = []

        def checked(xa, k, l2_penalty):
            assert k == 9
            hessian = build(xa, k, l2_penalty)

            def check(prob):
                got = hessian(prob)
                gaps.append(_relative_gap(
                    got, probe_hessian(xa[:, :-1], prob.T, l2_penalty)))
                return got

            return check

        monkeypatch.setattr(evaluate, "_hessian_builder", checked)
        w, b, _ = linear_probe(x, y, order, ProbeConfig())
        assert b[4] == -np.inf and np.isfinite(np.delete(b, 4)).all()
        assert len(gaps) >= 3 and max(gaps) <= 1e-12


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

    @pytest.mark.parametrize("scenario",
                             ["class_il", "domain_il", "domain_il_25"])
    @pytest.mark.parametrize("with_ft", [False, True])
    def test_entries_are_optimal_probes(self, scenario, with_ft):
        # class-IL: 5 tasks of 2 classes; domain-IL: 3 tasks of 10 or 25
        # classes. Every entry is the oracle's holdout accuracy of a fit at
        # the minimum of its objective, on the task's one split.
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
        assert (am.ft is not None) == with_ft
        for i, task in enumerate(stream.tasks):
            order = Rng(3).derive(f"probe-split-{i}").permutation(
                task.num_samples)
            probed = list(zip(seq, am.a[i]))
            if with_ft:
                probed.append((ft[i], am.ft[i]))
            for stack, entry in probed:
                x = encoder_features(stack, task.x)
                w, b, acc = linear_probe(x, task.y, order, cfg)
                gw, gb, racc = probe_gradient(x, task.y, order, cfg, w, b)
                assert max(np.abs(gw).max(), np.abs(gb).max()) < GRAD_TOL
                assert entry == acc == racc

    @pytest.mark.parametrize("ft_fails", [False, True])
    def test_probe_failure_names_task_and_checkpoint(self, ft_fails):
        # Encoder weights scaled by 1e100 give features whose squares
        # overflow; the error names the task and the checkpoint probed.
        ds = gen_synthetic(4, 8, 10, 1.0, 0.5, seed=1)
        stream = build_class_il(ds, 2)
        dims = dict(encoder_dims=[8, 6, 4], projector_dims=[4, 4],
                    predictor_dims=[4, 4])
        seq = [init_stack(Rng(j), **dims) for j in range(2)]
        ft = [init_stack(Rng(5 + j), **dims) for j in range(2)]
        bad = ft[1] if ft_fails else seq[1]
        for weights in bad.encoder.weights:
            weights *= 1e100
        where = ("task 2 with task 2's FT reference" if ft_fails
                 else "task 1 with the checkpoint after task 2")
        with pytest.raises(DivergenceDetected, match=(
                r"^probe \(probe.l2_penalty 0.0001\): features overflow in "
                rf"the standardization, probing {where}$")):
            fill_accuracy_matrix(seq, ft, stream, ProbeConfig(), seed=1)

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
