"""Incremental scenarios, vector-data augmentation, and the training loop.

A task sequence freezes the previous model at every boundary and optimizes
the configured objective on the new task only. The first task always runs in
the fine-tuning regime because no previous model exists yet.

Randomness: every consumer derives its own stream from the root seed
(``Rng(seed).derive(tag)``). Each task draws its plan once, from its own
stream: per step, a shuffled batch's two views and the frozen model's
embeddings of them. Every epoch replays the plan; with a zero learning
rate the per-epoch loss trace is therefore exactly constant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .embedding_queue import DEFAULT_CAPACITY, EmbeddingQueue
from .errors import CsslError, DivergenceDetected
from .losses import (
    CONTRASTIVE_METHODS,
    Choice,
    ContrastiveViews,
    LossResult,
    Method,
    PnrConfig,
    Regime,
    total_loss,
)
from .model import (
    EncoderStack,
    ForwardResult,
    backward,
    check_layout,
    ema_update,
    forward,
    init_stack,
    mlp_forward,
    sgd_step,
)
from .numerics import Rng, as_matrix, row_l2_normalize, row_l2_normalize_backward

logger = logging.getLogger(__name__)


@dataclass
class LabeledDataset:
    """Samples (M x input dim) with labels used only for evaluation."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = as_matrix(self.x, "dataset x")
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.ndim != 1 or self.y.shape[0] != self.x.shape[0]:
            raise CsslError(
                f"labels {self.y.shape} vs samples {self.x.shape[0]}")
        if self.y.size and self.y.min() < 0:
            raise CsslError("labels must be non-negative")

    @property
    def num_samples(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    def label_set(self) -> set[int]:
        return set(int(c) for c in np.unique(self.y))


class Scenario(Choice):
    CLASS_IL = "class_il"
    DATA_IL = "data_il"
    DOMAIN_IL = "domain_il"


@dataclass
class TaskStream:
    scenario: Scenario
    tasks: list[LabeledDataset]

    def __post_init__(self):
        self.scenario = Scenario(self.scenario)
        if not self.tasks:
            raise CsslError("empty task stream")
        for k, t in enumerate(self.tasks):
            if len(t.label_set()) < 2:
                raise CsslError(f"task {k} holds fewer than two labels; "
                                f"probing needs two")
        if self.scenario == Scenario.CLASS_IL:
            seen: set[int] = set()
            for k, t in enumerate(self.tasks):
                labels = t.label_set()
                if labels & seen:
                    raise CsslError(f"task {k} reuses classes {labels & seen}")
                seen |= labels
        elif self.scenario == Scenario.DATA_IL:
            full = self.tasks[0].label_set()
            for k, t in enumerate(self.tasks[1:], 1):
                if t.label_set() != full:
                    logger.warning("data_il task %d label set differs from task 0", k)
        else:
            base = self.tasks[0].label_set()
            for k, t in enumerate(self.tasks):
                if t.label_set() != base:
                    raise CsslError(f"domain_il task {k} changes the label set")

    @property
    def T(self) -> int:
        return len(self.tasks)


@dataclass
class AugmentConfig:
    """Vector-data stand-in for image augmentation: per-sample random
    scaling, additive Gaussian noise, then random coordinate zeroing."""

    noise_std: float = 0.5
    dropout_p: float = 0.3
    scale_range: tuple[float, float] = (0.6, 1.4)

    def __post_init__(self):
        if len(self.scale_range) != 2 or not (0.0 < self.scale_range[0]
                                              <= self.scale_range[1]):
            raise CsslError("scale_range must be [lo, hi] with 0 < lo <= hi")
        if not (0.0 <= self.dropout_p < 1.0):
            raise CsslError("dropout_p must be in [0, 1)")
        if self.noise_std < 0:
            raise CsslError("noise_std must be non-negative")


@dataclass
class TrainConfig:
    """Per-task optimization settings plus the model geometry."""

    epochs_per_task: int = 100
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-3
    ema_momentum: float = 0.99
    seed: int = 1
    loss: PnrConfig = field(default_factory=PnrConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    encoder_dims: list[int] = field(default_factory=lambda: [32, 32, 8])
    projector_dims: list[int] = field(default_factory=lambda: [8, 8])
    predictor_dims: list[int] = field(default_factory=lambda: [8, 8])
    queue_capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        for name in ("epochs_per_task", "batch_size", "queue_capacity"):
            if getattr(self, name) < 1:
                raise CsslError(f"{name} must be >= 1")
        if self.batch_size < 2 and self.loss.method in (Method.VICREG,
                                                        Method.BARLOW):
            raise CsslError(f"batch_size must be >= 2 for "
                            f"{self.loss.method.value}")
        for name in ("lr", "momentum", "weight_decay"):
            if getattr(self, name) < 0:
                raise CsslError(f"{name} must be non-negative")
        if not (0.0 <= self.ema_momentum < 1.0):
            raise CsslError("ema_momentum must be in [0, 1)")
        check_layout(self.encoder_dims, self.projector_dims,
                     self.predictor_dims)


@dataclass
class TrainLog:
    epoch_losses: list[float]
    steps: int


def build_class_il(ds: LabeledDataset, T: int) -> TaskStream:
    """Partition classes into T contiguous groups by class index."""
    classes = np.unique(ds.y)
    C = classes.size
    if T < 1 or C % T != 0:
        raise CsslError(f"{C} classes not divisible into {T} tasks")
    per = C // T
    tasks = []
    for k in range(T):
        group = set(int(c) for c in classes[k * per:(k + 1) * per])
        mask = np.isin(ds.y, sorted(group))
        idx = np.flatnonzero(mask)
        tasks.append(LabeledDataset(ds.x[idx], ds.y[idx]))
    return TaskStream(Scenario.CLASS_IL, tasks)


def build_data_il(ds: LabeledDataset, T: int, seed: int) -> TaskStream:
    """Seeded shuffle of the whole dataset, split into T near-equal chunks.

    A soft check logs a warning when a task's empirical label distribution
    strays more than three binomial sigmas from the global one.
    """
    M = ds.num_samples
    if M < T:
        raise CsslError(f"{M} samples cannot form {T} tasks")
    perm = Rng(seed).derive("data-il-shuffle").permutation(M)
    sizes = [M // T + (1 if k < M % T else 0) for k in range(T)]
    tasks, pos = [], 0
    global_freq = {int(c): float(np.mean(ds.y == c)) for c in np.unique(ds.y)}
    for k, size in enumerate(sizes):
        idx = perm[pos:pos + size]
        pos += size
        tasks.append(LabeledDataset(ds.x[idx], ds.y[idx]))
        for c, p in global_freq.items():
            phat = float(np.mean(tasks[-1].y == c))
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / size)
            if abs(phat - p) > 3.0 * sigma:
                logger.warning(
                    "data_il task %d class %d freq %.3f vs global %.3f "
                    "(>3 sigma)", k, c, phat, p)
    return TaskStream(Scenario.DATA_IL, tasks)


def random_orthogonal(rng: Rng, d: int) -> np.ndarray:
    """Seeded orthogonal matrix via QR with a deterministic sign fix."""
    g = rng.gaussian_matrix(d, d)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def build_domain_il(ds: LabeledDataset, T: int, seed: int) -> TaskStream:
    """Task 1 is the base dataset unchanged; task k >= 2 applies a fixed
    seeded orthogonal rotation plus a standard Gaussian bias shift to a fresh
    bootstrap resample of the base data. Labels travel with their samples."""
    if ds.input_dim < 2:
        raise CsslError("domain_il needs input dim >= 2")
    tasks = [LabeledDataset(ds.x.copy(), ds.y.copy())]
    M = ds.num_samples
    root = Rng(seed)
    for k in range(1, T):
        rng = root.derive(f"domain-{k}")
        rot = random_orthogonal(rng, ds.input_dim)
        bias = rng.gaussian(ds.input_dim)
        draw = rng.uniform(M)
        idx = np.minimum((draw * M).astype(np.int64), M - 1)
        x = ds.x[idx] @ rot.T + bias
        tasks.append(LabeledDataset(x, ds.y[idx]))
    return TaskStream(Scenario.DOMAIN_IL, tasks)


def _one_view(x: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    n, d = x.shape
    lo, hi = cfg.scale_range
    if (lo, hi) != (1.0, 1.0):
        scale = rng.uniform(n) * (hi - lo) + lo
        out = x * scale[:, None]
    else:
        out = x.copy()
    if cfg.noise_std > 0:
        out += rng.gaussian(n * d, cfg.noise_std).reshape(n, d)
    if cfg.dropout_p > 0:
        u = rng.uniform(n * d).reshape(n, d)
        keep = u >= cfg.dropout_p
        # A row keeps its largest draw, so no view row is all zero (a zero
        # input row has no direction to normalize).
        keep[np.arange(n), np.argmax(u, axis=1)] = True
        out *= keep
    return out


def two_views(x: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """Two independent augmentations of the same batch, stacked as one
    2N-row batch: view A's rows, then view B's."""
    return np.concatenate([_one_view(x, cfg, rng), _one_view(x, cfg, rng)])


def on_sphere(method: Method) -> bool:
    """Whether the method's loss reads unit-norm embeddings: contrastive
    methods and BYOL do; VICReg and Barlow consume raw projections."""
    return method in CONTRASTIVE_METHODS or method == Method.BYOL


def _maybe_normalize(m: np.ndarray, normalized: bool) -> np.ndarray:
    return row_l2_normalize(m) if normalized else m


def frozen_embedding(frozen: EncoderStack, x: np.ndarray,
                     method: Method) -> np.ndarray:
    """z_prev: the frozen model's projection of the stacked views ``x``, as
    the method's loss reads it."""
    return _maybe_normalize(forward(frozen, x).proj, on_sphere(method))


def encode_views(stack: EncoderStack, x: np.ndarray,
                 z_prev: np.ndarray | None, cfg: PnrConfig,
                 target: EncoderStack | None = None,
                 queue_cur: np.ndarray | None = None,
                 queue_prev: np.ndarray | None = None
                 ) -> tuple[ContrastiveViews, ForwardResult]:
    """Forward the stacked views once through the live stack (and once
    through the EMA target where the method needs it). Returns the loss
    inputs, with the frozen model's ``z_prev`` (see :func:`frozen_embedding`),
    and the live forward for :func:`backprop_views`.

    Without ``z_prev`` ``cfg`` must be the fine-tuning config (see
    :func:`train_task`).
    """
    normalized = on_sphere(cfg.method)
    # The predictor feeds the distillation term (and BYOL's native loss);
    # plain fine-tuning of the other methods never reads it.
    need_pred = cfg.method == Method.BYOL or cfg.regime != Regime.FT
    fwd = forward(stack, x, want_pred=need_pred)
    z = _maybe_normalize(fwd.proj, normalized)
    g = _maybe_normalize(fwd.pred, normalized) if need_pred else None
    # Without z_prev z stands in: FT never reads it or sends gradients there.
    z_prev = z if z_prev is None else z_prev
    z_target = None
    if cfg.method == Method.BYOL:
        if target is None:
            raise CsslError("BYOL training needs a target network")
        z_target = frozen_embedding(target, x, cfg.method)
    return ContrastiveViews(z, z_prev, g, z_target, queue_cur, queue_prev), fwd


def backprop_views(stack: EncoderStack, fwd: ForwardResult, cfg: PnrConfig,
                   res: LossResult) -> EncoderStack:
    """Chain loss gradients through normalization and the stack parameters."""
    normalized = on_sphere(cfg.method)
    if res.grad_z is None and res.grad_g is None:
        raise CsslError("loss produced no gradients")
    grad_proj = grad_pred = None
    if res.grad_z is not None:
        grad_proj = (row_l2_normalize_backward(fwd.proj, res.grad_z)
                     if normalized else res.grad_z)
    if res.grad_g is not None:
        grad_pred = (row_l2_normalize_backward(fwd.pred, res.grad_g)
                     if normalized else res.grad_g)
    return backward(stack, fwd, grad_proj, grad_pred)


def _overflowed(fwd: ForwardResult) -> bool:
    """Whether a raw projection or prediction holds NaN/Inf or a squared
    norm beyond float range: normalizing it would yield zero or NaN rows
    instead of unit ones, so no loss of it is defined."""
    return any(not np.isfinite(m.ravel() @ m.ravel())
               for m in (fwd.proj, fwd.pred) if m is not None)


def _effective_cfg(cfg: PnrConfig, frozen: EncoderStack | None) -> PnrConfig:
    if frozen is None and cfg.regime != Regime.FT:
        return replace(cfg, regime=Regime.FT)
    return cfg


def train_task(stack: EncoderStack, frozen_prev: EncoderStack | None,
               task: LabeledDataset, cfg: TrainConfig, *,
               task_index: int = 1) -> tuple[EncoderStack, TrainLog]:
    """Train the live stack on one task; the frozen model is never touched.

    Runs ``epochs_per_task`` sweeps of two-view SGD steps; MoCo queues are
    created fresh for the task and BYOL's target starts as a copy of the
    online network. Raises DivergenceDetected on a NaN/Inf loss; outputs
    that overflow (see :func:`_overflowed`) count as a nan loss.
    """
    loss_cfg = _effective_cfg(cfg.loss, frozen_prev)
    method = loss_cfg.method
    velocity = np.zeros_like(stack.flat)
    proj_dim = stack.projector.out_dim
    cur_queue = prev_queue = None
    if method == Method.MOCO:
        cur_queue = EmbeddingQueue(cfg.queue_capacity, proj_dim)
        if loss_cfg.regime != Regime.FT:  # only then is z_prev read
            prev_queue = EmbeddingQueue(cfg.queue_capacity, proj_dim)
    target = None
    if method == Method.BYOL:
        target = stack.clone()

    # Plan: (stacked views, z_prev) per batch, drawn once. Only a last batch
    # of one is skipped (see TrainConfig), so an entry's position is its step.
    rng = Rng(cfg.seed).derive(f"task-{task_index}").derive("epoch-stream")
    M = task.num_samples
    order = rng.permutation(M)
    plan = []
    for lo in range(0, M, cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        if idx.size < 2 and method in (Method.VICREG, Method.BARLOW):
            continue
        x = two_views(task.x[idx], cfg.augment, rng)
        z_prev = (None if loss_cfg.regime == Regime.FT
                  else frozen_embedding(frozen_prev, x, method))
        plan.append((x, z_prev))
    epoch_losses: list[float] = []
    steps = 0
    # A diverging step overflows before its loss turns non-finite; the checks
    # below, not numpy's warnings, report that.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs_per_task + 1):
            batch_losses: list[float] = []
            for step, (x, z_prev) in enumerate(plan, 1):
                views, fwd = encode_views(
                    stack, x, z_prev, loss_cfg, target=target,
                    queue_cur=(cur_queue.snapshot() if cur_queue else None),
                    queue_prev=(prev_queue.snapshot() if prev_queue else None))
                res = (LossResult(np.nan) if _overflowed(fwd)
                       else total_loss(views, loss_cfg))
                if not np.isfinite(res.value):
                    raise DivergenceDetected(
                        f"loss {res.value} at task {task_index}, epoch "
                        f"{epoch} of {cfg.epochs_per_task}, step {step} of "
                        f"the epoch")
                sgd_step(stack, backprop_views(stack, fwd, loss_cfg, res),
                         velocity, cfg.lr, cfg.momentum, cfg.weight_decay)
                if method == Method.MOCO:
                    n = views.batch_size
                    cur_queue.enqueue(views.z[n:])
                    if prev_queue is not None:
                        prev_queue.enqueue(z_prev[n:])
                if method == Method.BYOL:
                    ema_update(target, stack, cfg.ema_momentum)
                batch_losses.append(res.value)
                steps += 1
            epoch_losses.append(float(np.mean(batch_losses)))
    return stack, TrainLog(epoch_losses, steps)


@dataclass
class SequenceResult:
    """Checkpoints after every task plus the single-task FT references."""

    checkpoints: list[EncoderStack]
    ft_checkpoints: list[EncoderStack]
    task_logs: list[TrainLog]
    ft_logs: list[TrainLog]


def run_sequence(stream: TaskStream, cfg: TrainConfig,
                 with_ft_refs: bool = True) -> SequenceResult:
    """Train tasks 1..T sequentially, snapshotting at each boundary, then
    train T independent single-task models for the FT_i baselines."""
    root = Rng(cfg.seed)
    stack = init_stack(root.derive("init"), cfg.encoder_dims,
                       cfg.projector_dims, cfg.predictor_dims)
    frozen: EncoderStack | None = None
    checkpoints: list[EncoderStack] = []
    task_logs: list[TrainLog] = []
    for t, task in enumerate(stream.tasks, 1):
        stack, log = train_task(stack, frozen, task, cfg, task_index=t)
        frozen = stack.clone()
        checkpoints.append(frozen)
        task_logs.append(log)
    ft_checkpoints: list[EncoderStack] = []
    ft_logs: list[TrainLog] = []
    if with_ft_refs:
        for t, task in enumerate(stream.tasks, 1):
            ft_stack = init_stack(root.derive(f"ft-init-{t}"),
                                  cfg.encoder_dims, cfg.projector_dims,
                                  cfg.predictor_dims)
            ft_stack, log = train_task(ft_stack, None, task, cfg,
                                       task_index=t)
            ft_checkpoints.append(ft_stack.clone())
            ft_logs.append(log)
    return SequenceResult(checkpoints, ft_checkpoints, task_logs, ft_logs)


def encoder_features(stack: EncoderStack, x: np.ndarray) -> np.ndarray:
    """Frozen-encoder features for probing."""
    return mlp_forward(stack.encoder, x)
