"""Scenario builders, augmentation, and the training loop."""

import hashlib
import warnings

import numpy as np
import pytest

from cssl import continual
from cssl.continual import (
    AugmentConfig,
    LabeledDataset,
    TrainConfig,
    build_class_il,
    build_data_il,
    build_domain_il,
    draw_views,
    encode_views,
    frozen_embedding,
    random_orthogonal,
    run_sequence,
    train_task,
    two_views,
)
from cssl.datastore import gen_synthetic, stack_bytes
from cssl.errors import CsslError, DivergenceDetected
from cssl.losses import Method, PnrConfig, Regime, total_loss
from cssl.model import forward, init_stack, sgd_step
from cssl.numerics import Rng, row_l2_normalize
import reference
from reference import train_task_redraw


def toy_dataset(C=10, n_per=12, D=8, seed=5):
    rng = Rng(seed)
    x = rng.gaussian_matrix(C * n_per, D)
    y = np.repeat(np.arange(C), n_per)
    return LabeledDataset(x, y)


def sorted_rows(x):
    return x[np.lexsort(x.T[::-1])]


def assert_row_partition(ds, stream):
    """The tasks' rows, together, are the dataset's rows, each once."""
    rows = np.concatenate([t.x for t in stream.tasks])
    np.testing.assert_array_equal(sorted_rows(rows), sorted_rows(ds.x))


SMALL_MODEL = dict(encoder_dims=[8, 12, 6], projector_dims=[6, 6],
                   predictor_dims=[6, 6])


def small_cfg(**kw):
    base = dict(epochs_per_task=2, batch_size=16, lr=0.05, seed=1,
                loss=PnrConfig(method=Method.SIMCLR, regime=Regime.PNR),
                augment=AugmentConfig(0.2, 0.1, (0.8, 1.2)), **SMALL_MODEL)
    base.update(kw)
    return TrainConfig(**base)


class TestClassIl:
    def test_forced_partition(self):
        stream = build_class_il(toy_dataset(), 5)
        assert [sorted(t.label_set()) for t in stream.tasks] == [
            [0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]

    def test_indivisible_raises(self):
        with pytest.raises(CsslError, match="10 classes not divisible by 3"):
            build_class_il(toy_dataset(), 3)

    def test_index_partition(self):
        ds = toy_dataset()
        assert_row_partition(ds, build_class_il(ds, 5))


class TestDataIl:
    def test_equal_split(self):
        stream = build_data_il(toy_dataset(C=10, n_per=10), 5, seed=3)
        assert [t.num_samples for t in stream.tasks] == [20] * 5

    def test_deterministic(self):
        a = build_data_il(toy_dataset(), 5, seed=3)
        b = build_data_il(toy_dataset(), 5, seed=3)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.x, tb.x)

    def test_disjoint_coverage(self):
        ds = toy_dataset(C=7, n_per=13)
        assert_row_partition(ds, build_data_il(ds, 4, seed=9))

    def test_too_few_samples(self):
        with pytest.raises(CsslError, match="2 samples cannot form 5 tasks"):
            build_data_il(toy_dataset(C=2, n_per=1), 5, seed=1)

    def test_healthy_splits_pass_soft_check_silently(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="cssl.continual"):
            for seed in range(5):
                build_data_il(toy_dataset(C=5, n_per=40), 4, seed=seed)
        assert not any(">3 sigma" in rec.getMessage()
                       for rec in caplog.records)

    def test_task_lacking_a_class_warns(self, caplog):
        # Class 2 has one sample, so one of two tasks lacks it; at a global
        # frequency of 1/41 its absence is within three sigmas.
        import logging
        ds = toy_dataset(C=2, n_per=20)
        ds = LabeledDataset(np.vstack([ds.x, ds.x[:1]]), np.append(ds.y, 2))
        with caplog.at_level(logging.WARNING, logger="cssl.continual"):
            build_data_il(ds, 2, seed=1)
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1
        assert "class 2 freq 0.000" in messages[0]


class TestDomainIl:
    def test_task_one_is_base(self):
        ds = toy_dataset()
        stream = build_domain_il(ds, 3, seed=11)
        np.testing.assert_array_equal(stream.tasks[0].x, ds.x)
        np.testing.assert_array_equal(stream.tasks[0].y, ds.y)

    def test_rotations_orthogonal_and_norm_preserving(self):
        d = toy_dataset().input_dim
        x = Rng(2).gaussian_matrix(5, d)
        for k in range(1, 4):
            rot = random_orthogonal(Rng(11).derive(f"domain-{k}"), d)
            gram = rot.T @ rot
            assert np.max(np.abs(gram - np.eye(d))) < 1e-10
            before = np.linalg.norm(x, axis=1)
            after = np.linalg.norm(x @ rot.T, axis=1)
            assert np.max(np.abs(before - after)) < 1e-12

    def test_small_streams_build(self):
        # 5 samples per class: a bootstrap resample may miss a class, and
        # every task still holds the two labels probing needs.
        for seed in range(1, 21):
            ds = gen_synthetic(10, 8, 5, 1.0, 2.0, seed)
            stream = build_domain_il(ds, 5, seed)
            assert stream.T == 5
            assert all(len(t.label_set()) >= 2 for t in stream.tasks)

    def test_labels_preserved(self):
        ds = toy_dataset()
        stream = build_domain_il(ds, 3, seed=11)
        for t in stream.tasks:
            assert t.label_set() == ds.label_set()


class TestTwoViews:
    def test_identity_augmentation(self):
        # With every term off a group of batches reads nothing.
        x = Rng(1).gaussian_matrix(8, 6).reshape(2, 4, 6)
        cfg = AugmentConfig(0.0, 0.0, (1.0, 1.0))
        rng = Rng(2)
        x2 = two_views(x, cfg, rng)
        np.testing.assert_array_equal(x2[:, :4], x)
        np.testing.assert_array_equal(x2[:, 4:], x)
        assert rng._state == Rng(2)._state

    def test_deterministic_per_seed(self):
        x = Rng(1).gaussian_matrix(4, 6)
        cfg = AugmentConfig(0.3, 0.2, (0.7, 1.3))
        a1 = two_views(x[None], cfg, Rng(7))[0]
        a2 = two_views(x[None], cfg, Rng(7))[0]
        np.testing.assert_array_equal(a1[:4], a2[:4])
        np.testing.assert_array_equal(a1[4:], a2[4:])

    def test_views_differ(self):
        x = Rng(1).gaussian_matrix(4, 6)
        x2 = two_views(x[None], AugmentConfig(0.3, 0.0, (1.0, 1.0)),
                       Rng(7))[0]
        assert np.max(np.abs(x2[:4] - x2[4:])) > 1e-6

    def test_full_dropout_rejected(self):
        # dropout_p = 1 would zero every coordinate; normalization then fails.
        with pytest.raises(ValueError, match="dropout_p"):
            AugmentConfig(0.0, 1.0, (1.0, 1.0))

    def test_heavy_dropout_keeps_a_coordinate_per_row(self):
        # At p = 0.99 over 8 dims about 92% of rows would drop every
        # coordinate, and a zero input row has a zero projection at init.
        x = Rng(1).gaussian_matrix(64, 8)
        views = two_views(x[None], AugmentConfig(0.0, 0.99, (1.0, 1.0)),
                          Rng(3))[0]
        assert np.all(np.any(views != 0.0, axis=1))
        stream = build_class_il(toy_dataset(), 5)
        for method in (Method.SIMCLR, Method.MOCO, Method.BYOL):
            cfg = small_cfg(augment=AugmentConfig(0.2, 0.99, (0.8, 1.2)),
                            loss=PnrConfig(method=method, regime=Regime.PNR))
            res = run_sequence(stream, cfg)
            assert len(res.ft_checkpoints) == 5
            for log in res.task_logs + res.ft_logs:
                assert np.all(np.isfinite(log.epoch_losses))


def per_batch_views(task, cfg, task_index=1):
    """The task's views as one reference.two_views call per batch draws
    them from the task's stream, after its shuffle."""
    rng = Rng(cfg.seed).derive(f"task-{task_index}").derive("epoch-stream")
    order = rng.permutation(task.num_samples)
    out = []
    for lo in range(0, task.num_samples, cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        if idx.size < 2 and cfg.loss.method in (Method.VICREG,
                                                Method.BARLOW):
            continue
        out.append(reference.two_views(task.x[idx], cfg.augment, rng))
    return out


class TestDrawViews:
    @pytest.mark.parametrize("augment", [
        AugmentConfig(),
        AugmentConfig(0.5, 0.3, (1.0, 1.0)),  # no scaling
        AugmentConfig(0.0, 0.3, (0.6, 1.4)),  # no noise
        AugmentConfig(0.5, 0.0, (0.6, 1.4)),  # no dropout
        AugmentConfig(0.0, 0.0, (1.0, 1.0)),  # nothing drawn
    ])
    @pytest.mark.parametrize("group_rows", [11, 22, 1000])
    def test_grouped_draw_equals_per_batch_draw(self, monkeypatch, augment,
                                                group_rows):
        # 34-sample tasks of 9 columns in batches of 11: n * d = 99 is odd,
        # and the last batch holds one sample. Groups of one batch, of two
        # (the last group holds one) and of more rows than the task holds.
        monkeypatch.setattr(continual, "VIEW_GROUP_ROWS", group_rows)
        stream = build_class_il(toy_dataset(C=4, n_per=17, D=9), 2)
        for method, batches in ((Method.SIMCLR, 4), (Method.VICREG, 3),
                                (Method.BARLOW, 3)):
            cfg = small_cfg(batch_size=11, augment=augment,
                            encoder_dims=[9, 12, 6],
                            loss=PnrConfig(method=method))
            for t, task in enumerate(stream.tasks, 1):
                got = draw_views(task, cfg, t)
                want = per_batch_views(task, cfg, t)
                assert len(got) == len(want) == batches
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert g.tobytes() == w.tobytes()


class TestEncodeViews:
    def test_stacked_rows_equal_per_view_forward(self):
        # One forward per network over [xA; xB]; a gemm over 2N rows may
        # round differently from two over N, hence the 1e-12 tolerance.
        n = 4
        x2 = two_views(Rng(1).gaussian_matrix(n, 8)[None], AugmentConfig(),
                       Rng(2))[0]
        stack = init_stack(Rng(3), **SMALL_MODEL)
        frozen = init_stack(Rng(4), **SMALL_MODEL)
        cfg = PnrConfig(method=Method.SIMCLR, regime=Regime.PNR)
        views, enc_fwd = encode_views(
            stack, x2, frozen_embedding(frozen, x2, cfg.method), cfg)
        for half, x in ((slice(None, n), x2[:n]), (slice(n, None), x2[n:])):
            fwd = forward(stack, x, want_pred=True)
            for got, want in (
                    (enc_fwd.proj, fwd.proj), (enc_fwd.pred, fwd.pred),
                    (views.z, row_l2_normalize(fwd.proj)),
                    (views.g, row_l2_normalize(fwd.pred)),
                    (views.z_prev,
                     row_l2_normalize(forward(frozen, x).proj))):
                np.testing.assert_allclose(got[half], want, rtol=1e-12,
                                           atol=1e-14)

    def test_no_previous_model_outside_ft_raises(self):
        # Regime ft carries no z_prev; any other regime without one has
        # nothing to distill toward and must not stand in the live model.
        x2 = two_views(Rng(1).gaussian_matrix(4, 8)[None], AugmentConfig(),
                       Rng(2))[0]
        stack = init_stack(Rng(3), **SMALL_MODEL)
        for method in Method:
            ft = PnrConfig(method=method, regime=Regime.FT)
            target = stack.clone() if method == Method.BYOL else None
            views, _ = encode_views(stack, x2, None, ft, target=target)
            assert views.z_prev is None
            assert np.isfinite(total_loss(views, ft).value)
            for regime in (Regime.CASSLE, Regime.PNR):
                cfg = PnrConfig(method=method, regime=regime)
                views, _ = encode_views(stack, x2, None, cfg, target=target)
                with pytest.raises(CsslError,
                                   match="distillation needs z_prev$"):
                    total_loss(views, cfg)


class TestTrainTask:
    def test_lr_zero_fixed_point_and_constant_trace(self):
        task = build_class_il(toy_dataset(), 5).tasks[0]
        stack_cfg = small_cfg(lr=0.0, epochs_per_task=3)
        from cssl.model import init_stack
        stack = init_stack(Rng(1), SMALL_MODEL["encoder_dims"],
                           SMALL_MODEL["projector_dims"],
                           SMALL_MODEL["predictor_dims"])
        before = stack_bytes(stack)
        stack, log = train_task(stack, None, task, stack_cfg)
        assert stack_bytes(stack) == before
        assert len(set(log.epoch_losses)) == 1

    def test_deterministic_repeat(self):
        task = build_class_il(toy_dataset(), 5).tasks[0]
        from cssl.model import init_stack

        def run():
            stack = init_stack(Rng(3), SMALL_MODEL["encoder_dims"],
                               SMALL_MODEL["projector_dims"],
                               SMALL_MODEL["predictor_dims"])
            return train_task(stack, None, task,
                              small_cfg(epochs_per_task=1,
                                        batch_size=task.num_samples))

        s1, l1 = run()
        s2, l2 = run()
        assert stack_bytes(s1) == stack_bytes(s2)
        assert l1.epoch_losses == l2.epoch_losses

    def test_frozen_model_untouched(self):
        stream = build_class_il(toy_dataset(), 5)
        from cssl.model import init_stack
        stack = init_stack(Rng(4), SMALL_MODEL["encoder_dims"],
                           SMALL_MODEL["projector_dims"],
                           SMALL_MODEL["predictor_dims"])
        stack, _ = train_task(stack, None, stream.tasks[0], small_cfg())
        frozen = stack.clone()
        digest = hashlib.sha256(stack_bytes(frozen)).hexdigest()
        stack, _ = train_task(stack, frozen, stream.tasks[1], small_cfg(),
                              task_index=2)
        assert hashlib.sha256(stack_bytes(frozen)).hexdigest() == digest

    def test_ft_loss_decreases_on_toy_clusters(self):
        # two well-separated clusters; SimCLR fine-tuning should descend
        for seed in (1, 2, 3):
            ds = gen_synthetic(2, 8, 24, 1.0, 0.3, seed=seed)
            task = LabeledDataset(ds.x, ds.y)
            cfg = small_cfg(epochs_per_task=50, lr=0.05, seed=seed,
                            loss=PnrConfig(method=Method.SIMCLR,
                                           regime=Regime.FT),
                            encoder_dims=[8, 12, 6], batch_size=16)
            from cssl.model import init_stack
            stack = init_stack(Rng(seed + 10), [8, 12, 6], [6, 6], [6, 6])
            _, log = train_task(stack, None, task, cfg)
            assert log.epoch_losses[-1] < log.epoch_losses[0]

    @pytest.mark.parametrize("method", [Method.MOCO, Method.BYOL,
                                        Method.VICREG, Method.BARLOW])
    def test_all_methods_run_two_tasks(self, method):
        stream = build_class_il(toy_dataset(), 5)
        # VICReg/Barlow losses carry much larger coefficients; scale lr down
        lr = {Method.VICREG: 0.002, Method.BARLOW: 0.01}.get(method, 0.05)
        cfg = small_cfg(loss=PnrConfig(method=method, regime=Regime.PNR),
                        queue_capacity=32, lr=lr)
        from cssl.model import init_stack
        stack = init_stack(Rng(5), SMALL_MODEL["encoder_dims"],
                           SMALL_MODEL["projector_dims"],
                           SMALL_MODEL["predictor_dims"])
        stack, log1 = train_task(stack, None, stream.tasks[0], cfg)
        frozen = stack.clone()
        stack, log2 = train_task(stack, frozen, stream.tasks[1], cfg,
                                 task_index=2)
        assert all(np.isfinite(v) for v in log1.epoch_losses + log2.epoch_losses)


    @pytest.mark.parametrize("regime", [Regime.FT, Regime.CASSLE,
                                        Regime.PNR])
    @pytest.mark.parametrize("method", list(Method))
    def test_replay_plan_equals_per_epoch_redraw(self, method, regime):
        # 34-sample tasks in batches of 11: the last batch holds one sample,
        # which VICReg and Barlow skip before drawing its views.
        stream = build_class_il(toy_dataset(C=4, n_per=17), 2)
        assert stream.tasks[0].num_samples % 11 == 1
        lr = {Method.VICREG: 0.002, Method.BARLOW: 0.01}.get(method, 0.05)
        cfg = small_cfg(epochs_per_task=3, batch_size=11, lr=lr,
                        queue_capacity=16,
                        loss=PnrConfig(method=method, regime=regime))
        runs = []
        for train in (train_task, train_task_redraw):
            stack, frozen, out = init_stack(Rng(5), **SMALL_MODEL), None, []
            try:
                with np.errstate(all="ignore"):
                    for t, task in enumerate(stream.tasks, 1):
                        stack, log = train(stack, frozen, task, cfg,
                                           task_index=t)
                        frozen = stack.clone()
                        out.append((stack.flat.tobytes(), log.epoch_losses,
                                    log.steps))
            except DivergenceDetected as err:
                # Barlow-PNR diverges here; both loops must stop at the same
                # step with the same parameters.
                out.append((stack.flat.tobytes(), str(err)))
            runs.append(out)
        assert runs[0] == runs[1]

    def test_moco_queues_only_what_the_regime_reads(self, monkeypatch):
        # FT never reads z_prev, so it keeps no previous-model queue
        made = []

        class Counted(continual.EmbeddingQueue):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(continual, "EmbeddingQueue", Counted)
        task = build_class_il(toy_dataset(), 5).tasks[0]
        stack = init_stack(Rng(1), **SMALL_MODEL)
        for regime, frozen, want in ((Regime.PNR, None, 1),
                                     (Regime.FT, stack.clone(), 1),
                                     (Regime.PNR, stack.clone(), 2)):
            made.clear()
            cfg = small_cfg(epochs_per_task=1, queue_capacity=8,
                            loss=PnrConfig(method=Method.MOCO, regime=regime))
            train_task(stack, frozen, task, cfg)
            assert len(made) == want
            assert all(len(q) == 8 for q in made)

    def test_divergence_names_task_epoch_and_step(self):
        # VICReg on raw projections overflows at lr 1e3. SimCLR and MoCo
        # normalize, so at lr 1e30 their overflowing projections must be
        # caught before the loss validates unit norms.
        task = build_class_il(toy_dataset(), 5).tasks[0]
        for method, lr in ((Method.VICREG, 1e3), (Method.SIMCLR, 1e30),
                           (Method.MOCO, 1e30)):
            cfg = small_cfg(lr=lr, loss=PnrConfig(method=method,
                                                  regime=Regime.FT))
            stack = init_stack(Rng(1), **SMALL_MODEL)
            with pytest.raises(DivergenceDetected, match=(
                    r"^projection overflows at task 3, epoch 2 of 2, step 1 "
                    r"of the epoch$")):
                train_task(stack, None, task, cfg, task_index=3)

    def test_overflowing_prediction_names_task_epoch_and_step(self):
        # Only the predictor's last layer is scaled past float range, so the
        # projection is finite and the prediction that the distillation
        # term reads is what the error names.
        task = build_class_il(toy_dataset(), 5).tasks[1]
        stack = init_stack(Rng(1), **SMALL_MODEL)
        stack.predictor.weights[-1][...] *= 1e200
        with pytest.raises(DivergenceDetected, match=(
                r"^prediction overflows at task 2, epoch 1 of 2, step 1 of "
                r"the epoch$")):
            train_task(stack, init_stack(Rng(2), **SMALL_MODEL), task,
                       small_cfg(lr=0.0), task_index=2)

    def test_collapsed_barlow_batch_names_task_epoch_and_step(self):
        # A zero last projector row makes a constant projection column,
        # which Barlow's column standardization cannot divide by.
        task = build_class_il(toy_dataset(), 5).tasks[1]
        cfg = small_cfg(loss=PnrConfig(method=Method.BARLOW,
                                       regime=Regime.PNR))
        stack = init_stack(Rng(1), **SMALL_MODEL)
        stack.projector.weights[-1][-1] = 0.0
        with pytest.raises(DivergenceDetected, match=(
                r"^column 5 has \(near-\)zero variance at task 2, epoch 1 "
                r"of 2, step 1 of the epoch$")):
            train_task(stack, init_stack(Rng(2), **SMALL_MODEL), task, cfg,
                       task_index=2)

    def test_zero_projection_row_names_task_epoch_and_step(self):
        # Biases start at zero, so a one-unit hidden layer whose ReLU is off
        # for a sample maps it to a zero projection, which has no direction
        # on the sphere; at lr 0 nothing can revive it.
        task = build_class_il(toy_dataset(), 5).tasks[0]
        dims = dict(SMALL_MODEL, encoder_dims=[8, 1, 6])
        with pytest.raises(DivergenceDetected, match=(
                r"^row 0 has norm 0\.000e\+00 <= 1e-12 \(encoder layer 1: no "
                r"ReLU active for this row\) at task 1, epoch 1 of 2, step 1 "
                r"of the epoch$")):
            train_task(init_stack(Rng(1), **dims), None, task,
                       small_cfg(lr=0.0, **dims), task_index=1)

    def test_zero_projection_row_names_the_dead_layer(self):
        # Biases of -100 switch off every ReLU of encoder layer 1 for every
        # sample; at lr 0 the first step's projections are all zero, and
        # the error names that layer, not a later one.
        task = build_class_il(toy_dataset(), 5).tasks[0]
        stack = init_stack(Rng(1), **SMALL_MODEL)
        stack.encoder.biases[0][...] = -100.0
        with pytest.raises(DivergenceDetected, match=(
                r"^row 0 has norm 0\.000e\+00 <= 1e-12 \(encoder layer 1: no "
                r"ReLU active for this row\) at task 1, epoch 1 of 2, step 1 "
                r"of the epoch$")):
            train_task(stack, None, task, small_cfg(lr=0.0), task_index=1)


    def test_zero_frozen_projection_names_task_and_batch(self):
        # A zeroed last projector layer maps every view to a zero frozen
        # projection, which has no direction on the sphere; the plan
        # reports it before the first step. The row's ReLUs are live, so
        # no layer is named dead.
        task = build_class_il(toy_dataset(), 5).tasks[1]
        frozen = init_stack(Rng(2), **SMALL_MODEL)
        frozen.projector.weights[-1][...] = 0.0
        with pytest.raises(DivergenceDetected, match=(
                r"^frozen model: row 0 has norm 0\.000e\+00 <= 1e-12 \(every "
                r"hidden layer has a ReLU active for this row\) at task 2, "
                r"batch 1$")):
            train_task(init_stack(Rng(1), **SMALL_MODEL), frozen, task,
                       small_cfg(), task_index=2)

    def test_overflowing_frozen_projection_names_task_and_batch(self):
        # A frozen model scaled by 1e120 overflows in its forward pass;
        # the plan reports that instead of a numpy warning.
        task = build_class_il(toy_dataset(), 5).tasks[1]
        frozen = init_stack(Rng(2), **SMALL_MODEL)
        frozen.flat *= 1e120
        with pytest.raises(DivergenceDetected, match=(
                r"^frozen model: projection overflows at task 2, batch 1$")):
            train_task(init_stack(Rng(1), **SMALL_MODEL), frozen, task,
                       small_cfg(), task_index=2)

    def test_overflow_after_last_step_names_task(self, monkeypatch):
        # No loss check follows the last SGD step; weights it scales past
        # float range must still end the task as a located divergence, not
        # a numpy warning in the next task's frozen forward.
        task = build_class_il(toy_dataset(), 5).tasks[0]
        cfg = small_cfg()
        _, log = train_task(init_stack(Rng(1), **SMALL_MODEL), None, task,
                            cfg)
        calls = []

        def last_step_blows_up(stack, *args):
            out = sgd_step(stack, *args)
            calls.append(None)
            if len(calls) == log.steps:
                stack.flat *= 1e200
            return out

        monkeypatch.setattr(continual, "sgd_step", last_step_blows_up)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceDetected, match=(
                    r"^projection overflows at task 4, after the last "
                    r"step$")):
                train_task(init_stack(Rng(1), **SMALL_MODEL), None, task,
                           cfg, task_index=4)
        assert len(calls) == log.steps


class TestRunSequence:
    def test_checkpoint_counts(self):
        stream = build_class_il(toy_dataset(), 5)
        res = run_sequence(stream, small_cfg(epochs_per_task=1))
        assert len(res.checkpoints) == 5
        assert len(res.ft_checkpoints) == 5

    def test_single_task_equals_ft_train(self):
        stream = build_class_il(toy_dataset(C=2, n_per=10), 1)
        cfg = small_cfg(epochs_per_task=2)
        res = run_sequence(stream, cfg, with_ft_refs=False)
        from cssl.model import init_stack
        stack = init_stack(Rng(cfg.seed).derive("init"),
                           cfg.encoder_dims, cfg.projector_dims,
                           cfg.predictor_dims)
        stack, _ = train_task(stack, None, stream.tasks[0], cfg, task_index=1)
        assert stack_bytes(res.checkpoints[0]) == stack_bytes(stack)

    def test_byol_lambda_zero_replays_cassle_bitwise(self):
        stream = build_class_il(toy_dataset(), 5)
        cfg_a = small_cfg(loss=PnrConfig(method=Method.BYOL,
                                         regime=Regime.PNR, lambda_pnr=0.0))
        cfg_b = small_cfg(loss=PnrConfig(method=Method.BYOL,
                                         regime=Regime.CASSLE))
        res_a = run_sequence(stream, cfg_a, with_ft_refs=False)
        res_b = run_sequence(stream, cfg_b, with_ft_refs=False)
        for ca, cb in zip(res_a.checkpoints, res_b.checkpoints):
            assert stack_bytes(ca) == stack_bytes(cb)

    @pytest.mark.parametrize("method", list(Method))
    def test_ft_references_share_the_task_draw(self, monkeypatch, method):
        # Each task is shuffled and drawn once for the sequence and its FT
        # reference; the result is that of training the whole sequence
        # first and then each reference on a draw of its own.
        dims = dict(SMALL_MODEL, encoder_dims=[9, 12, 6])
        stream = build_class_il(toy_dataset(C=6, n_per=17, D=9), 3)
        lr = {Method.VICREG: 5e-4, Method.BARLOW: 0.01}.get(method, 0.05)
        cfg = small_cfg(batch_size=11, lr=lr, queue_capacity=16, **dims,
                        loss=PnrConfig(method=method, regime=Regime.CASSLE))
        shuffles = []
        permutation = Rng.permutation

        def counted(rng, n):
            shuffles.append(n)
            return permutation(rng, n)

        monkeypatch.setattr(Rng, "permutation", counted)
        res = run_sequence(stream, cfg)
        assert shuffles == [34] * stream.T

        root = Rng(cfg.seed)
        stack, frozen = init_stack(root.derive("init"), **dims), None
        logs, ft_logs = [], []
        for t, task in enumerate(stream.tasks, 1):
            stack, log = train_task(stack, frozen, task, cfg, task_index=t)
            frozen = stack.clone()
            logs.append((stack_bytes(frozen), log))
        for t, task in enumerate(stream.tasks, 1):
            ft, log = train_task(init_stack(root.derive(f"ft-init-{t}"),
                                            **dims), None, task, cfg,
                                 task_index=t)
            ft_logs.append((stack_bytes(ft), log))
        assert [(stack_bytes(c), log) for c, log in
                zip(res.checkpoints, res.task_logs)] == logs
        assert [(stack_bytes(c), log) for c, log in
                zip(res.ft_checkpoints, res.ft_logs)] == ft_logs

    def test_full_sequence_deterministic(self):
        stream = build_class_il(toy_dataset(), 5)
        cfg = small_cfg(epochs_per_task=1)
        a = run_sequence(stream, cfg)
        b = run_sequence(stream, cfg)
        for ca, cb in zip(a.checkpoints + a.ft_checkpoints,
                          b.checkpoints + b.ft_checkpoints):
            assert stack_bytes(ca) == stack_bytes(cb)
