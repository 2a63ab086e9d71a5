"""Incremental scenarios, vector-data augmentation, and the training loop.

A task sequence freezes the previous model at every boundary and optimizes
the configured objective on the new task only. The first task always runs in
the fine-tuning regime because no previous model exists yet.

Randomness: every consumer derives its own stream from the root seed
(``Rng(seed).derive(tag)``). Each task's views are drawn once, from the
task's own stream: a shuffle, then every batch's two views, drawn in groups
of batches. The sequence's model and the task's single-task FT reference
train on that one draw, one after the other. Training plans one step per
batch: its views and the frozen model's embeddings of them. Every epoch
replays the plan; with a zero learning rate the per-epoch loss trace is
therefore exactly constant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .embedding_queue import EmbeddingQueue
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
from .numerics import (Rng, as_matrix, box_muller, row_l2_normalize,
                       row_l2_normalize_backward, row_norms, unit_doubles)

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


def check_split(scenario: Scenario, T: int, classes: int,
                samples: int) -> None:
    """Every rule a split of ``samples`` samples of ``classes`` classes into
    ``T`` tasks must meet; each message starts with the config key at fault.
    The config checks its own counts and each builder the dataset's, so both
    reject a split with the same message."""
    if T < 1:
        raise CsslError("num_tasks must be >= 1")
    if scenario == Scenario.CLASS_IL:
        if classes % T != 0:
            raise CsslError(f"num_tasks: {classes} classes not divisible "
                            f"by {T}")
        if classes // T < 2:
            raise CsslError(f"num_tasks: {T} tasks leave fewer than two of "
                            f"{classes} classes per task")
    elif scenario == Scenario.DATA_IL and T > samples:
        raise CsslError(f"num_tasks: {samples} samples cannot form {T} tasks")


@dataclass
class TaskStream:
    """The tasks in training order. Probing scores every task, so each one
    holds at least two labels."""

    tasks: list[LabeledDataset]

    def __post_init__(self):
        if not self.tasks:
            raise CsslError("empty task stream")
        for k, t in enumerate(self.tasks):
            if len(t.label_set()) < 2:
                raise CsslError(f"task {k} holds fewer than two labels; "
                                f"probing needs two")

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
    queue_capacity: int = 1024

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
    check_split(Scenario.CLASS_IL, T, classes.size, ds.num_samples)
    per = classes.size // T
    tasks = []
    for k in range(T):
        group = set(int(c) for c in classes[k * per:(k + 1) * per])
        mask = np.isin(ds.y, sorted(group))
        idx = np.flatnonzero(mask)
        tasks.append(LabeledDataset(ds.x[idx], ds.y[idx]))
    return TaskStream(tasks)


def build_data_il(ds: LabeledDataset, T: int, seed: int) -> TaskStream:
    """Seeded shuffle of the whole dataset, split into T near-equal chunks.

    A soft check logs a warning when a task lacks a class or its empirical
    label distribution strays more than three binomial sigmas from the
    global one.
    """
    M = ds.num_samples
    classes = np.unique(ds.y)
    check_split(Scenario.DATA_IL, T, classes.size, M)
    perm = Rng(seed).derive("data-il-shuffle").permutation(M)
    sizes = [M // T + (1 if k < M % T else 0) for k in range(T)]
    tasks, pos = [], 0
    global_freq = {int(c): float(np.mean(ds.y == c)) for c in classes}
    for k, size in enumerate(sizes):
        idx = perm[pos:pos + size]
        pos += size
        tasks.append(LabeledDataset(ds.x[idx], ds.y[idx]))
        for c, p in global_freq.items():
            phat = float(np.mean(tasks[-1].y == c))
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / size)
            if phat == 0.0 or abs(phat - p) > 3.0 * sigma:
                logger.warning(
                    "data_il task %d class %d freq %.3f vs global %.3f "
                    "(absent or >3 sigma)", k, c, phat, p)
    return TaskStream(tasks)


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
    bootstrap resample of the base data. Labels travel with their samples,
    so a small resample may leave a class out of a task."""
    check_split(Scenario.DOMAIN_IL, T, len(ds.label_set()), ds.num_samples)
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
    return TaskStream(tasks)


# Rows a two_views call draws at a time. One call per batch spends more on
# numpy call overhead than on arithmetic at these sizes; a group's
# temporaries take about 44 bytes per drawn value (0.7 MB for 256 rows of 32
# columns), and a task's draw time is flat from 256 to 2048 rows.
VIEW_GROUP_ROWS = 256


def two_views(x: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """Two independent augmentations of each batch of a stack of G equal-size
    batches (G x n x d), returned as G stacked 2n-row batches: a batch's view
    A rows, then its view B rows.

    The whole group comes from one block of the stream, read as G calls of
    one batch each would read it: per batch and view (A, then B), the
    scales (n uniforms), the noise's Box-Muller pairs (first outputs, then
    second outputs) and the dropout uniforms (n * d), each only when its
    term is on. Every value is an elementwise function of its own outputs,
    and numpy rounds those functions the same at any position, so a batch's
    views do not depend on the group it is drawn in (the tests check this
    bit for bit against one draw per batch).
    """
    G, n, d = x.shape
    lo, hi = cfg.scale_range
    scales = n if (lo, hi) != (1.0, 1.0) else 0
    pairs = (n * d + 1) // 2 if cfg.noise_std > 0 else 0
    drops = n * d if cfg.dropout_p > 0 else 0
    per_view = scales + 2 * pairs + drops  # 0 reads nothing
    bits = rng._next_block(G * 2 * per_view).reshape(G, 2, per_view)
    if scales:
        scale = unit_doubles(bits[..., :n]) * (hi - lo) + lo
        out = x[:, None] * scale[..., None]
    else:
        out = np.repeat(x[:, None], 2, axis=1)
    if pairs:
        gauss = box_muller(bits[..., scales:scales + pairs],
                           bits[..., scales + pairs:scales + 2 * pairs])
        out += (cfg.noise_std * gauss[..., :n * d]).reshape(G, 2, n, d)
    if drops:
        u = unit_doubles(bits[..., -drops:]).reshape(G, 2, n, d)
        keep = u >= cfg.dropout_p
        # A row keeps its largest draw, so no view row is all zero (a zero
        # input row has no direction to normalize).
        np.put_along_axis(keep, u.argmax(axis=-1)[..., None], True, axis=-1)
        out *= keep
    return out.reshape(G, 2 * n, d)


def draw_views(task: LabeledDataset, cfg: TrainConfig,
               task_index: int) -> list[np.ndarray]:
    """The task's stacked two-view batches in step order, drawn from its
    stream ``Rng(seed).derive(f"task-{task_index}").derive("epoch-stream")``:
    first the shuffle, then the views of its batches in groups of about
    ``VIEW_GROUP_ROWS`` rows; a last, smaller batch is a group of its own.
    A last batch of one is skipped for VICReg and Barlow (see TrainConfig),
    before its views are drawn."""
    rng = Rng(cfg.seed).derive(f"task-{task_index}").derive("epoch-stream")
    M, size = task.num_samples, cfg.batch_size
    order = rng.permutation(M)
    views: list[np.ndarray] = []
    lo = 0
    while lo < M:
        n = min(size, M - lo)
        if n < 2 and cfg.loss.method in (Method.VICREG, Method.BARLOW):
            break
        G = min(max(1, VIEW_GROUP_ROWS // size), (M - lo) // n)
        x = task.x[order[lo:lo + G * n]].reshape(G, n, -1)
        views.extend(two_views(x, cfg.augment, rng))
        lo += G * n
    return views


def on_sphere(method: Method) -> bool:
    """Whether the method's loss reads unit-norm embeddings: contrastive
    methods and BYOL do; VICReg and Barlow consume raw projections."""
    return method in CONTRASTIVE_METHODS or method == Method.BYOL


def _embed(fwd: ForwardResult, out: str, normalized: bool) -> np.ndarray:
    """``fwd``'s output ``out`` ("proj" or "pred") as a loss reads it:
    row-normalized when ``normalized``. An output that holds NaN/Inf or a
    squared norm beyond float range has no loss, so it raises
    :class:`DivergenceDetected`; so does a zero row on the sphere, whose
    error also names the first hidden layer on the row's path whose ReLUs
    are all off for it (a dead path)."""
    m = getattr(fwd, out)
    flat = m.ravel()
    if not np.isfinite(flat @ flat):
        raise DivergenceDetected(
            f"{'projection' if out == 'proj' else 'prediction'} overflows")
    if not normalized:
        return m
    try:
        return row_l2_normalize(m)
    except DivergenceDetected as err:
        row = int(np.argmin(row_norms(m)))  # the row the error names
        mlps = ["encoder", "projector", "predictor"][:3 if out == "pred"
                                                     else 2]
        dead = next((f"{name} layer {k}: no ReLU active for this row"
                     for name in mlps
                     for k, (_, pre) in enumerate(fwd._caches[name][:-1], 1)
                     if not (pre[row] > 0.0).any()),
                    "every hidden layer has a ReLU active for this row")
        raise DivergenceDetected(f"{err} ({dead})") from err


def frozen_embedding(frozen: EncoderStack, x: np.ndarray,
                     method: Method) -> np.ndarray:
    """z_prev: the frozen model's projection of the stacked views ``x``, as
    the method's loss reads it (see :func:`_embed`)."""
    return _embed(forward(frozen, x), "proj", on_sphere(method))


def encode_views(stack: EncoderStack, x: np.ndarray,
                 z_prev: np.ndarray | None, cfg: PnrConfig,
                 target: EncoderStack | None = None,
                 queue_cur: np.ndarray | None = None,
                 queue_prev: np.ndarray | None = None
                 ) -> tuple[ContrastiveViews, ForwardResult]:
    """Forward the stacked views once through the live stack (and once
    through the EMA target where the method needs it). Returns the loss
    inputs, with the frozen model's ``z_prev`` (see :func:`frozen_embedding`;
    ``None`` in regime ``ft``, which never reads it), and the live forward
    for :func:`backprop_views`. Every embedding passes :func:`_embed`.
    """
    normalized = on_sphere(cfg.method)
    # The predictor feeds the distillation term (and BYOL's native loss);
    # plain fine-tuning of the other methods never reads it.
    need_pred = cfg.method == Method.BYOL or cfg.regime != Regime.FT
    fwd = forward(stack, x, want_pred=need_pred)
    z = _embed(fwd, "proj", normalized)
    g = _embed(fwd, "pred", normalized) if need_pred else None
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


def _effective_cfg(cfg: PnrConfig, frozen: EncoderStack | None) -> PnrConfig:
    if frozen is None and cfg.regime != Regime.FT:
        return replace(cfg, regime=Regime.FT)
    return cfg


# A diverging model overflows before its loss turns non-finite; the checks
# in train_task, not numpy's warnings, report that.
@np.errstate(over="ignore", invalid="ignore")
def train_task(stack: EncoderStack, frozen_prev: EncoderStack | None,
               task: LabeledDataset, cfg: TrainConfig, *,
               task_index: int = 1, views: list[np.ndarray] | None = None
               ) -> tuple[EncoderStack, TrainLog]:
    """Train the live stack on one task; the frozen model is never touched.

    Runs ``epochs_per_task`` sweeps of two-view SGD steps over ``views``,
    the task's batches as :func:`draw_views` returns them (drawn here when
    ``None``; a caller that trains several models on one task passes one
    draw to each). MoCo queues are created fresh for the task and BYOL's
    target starts as a copy of the online network. Raises
    DivergenceDetected, naming the frozen model's batch, the epoch and
    step, or "after the last step", when an embedding (live, EMA target or
    frozen) fails :func:`_embed` (it overflows, or a row on the sphere is
    zero), a Barlow batch has a constant column, or a loss is NaN/Inf.
    After the last step the task's samples pass :func:`_embed` through the
    trained stack, so a task never hands on weights that overflow.
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

    # Plan: (stacked views, z_prev) per batch. Only a last batch of one is
    # skipped (see draw_views), so an entry's position is its step.
    if views is None:
        views = draw_views(task, cfg, task_index)
    plan = []
    epoch_losses: list[float] = []
    steps = 0
    # Where the task is, for the error: epoch 0 while the plan is drawn,
    # step 0 after the last step.
    batch = epoch = step = 0
    try:
        for batch, x in enumerate(views, 1):
            plan.append((x, None if loss_cfg.regime == Regime.FT
                         else frozen_embedding(frozen_prev, x, method)))
        for epoch in range(1, cfg.epochs_per_task + 1):
            batch_losses: list[float] = []
            for step, (x, z_prev) in enumerate(plan, 1):
                views, fwd = encode_views(
                    stack, x, z_prev, loss_cfg, target=target,
                    queue_cur=cur_queue.snapshot() if cur_queue else None,
                    queue_prev=prev_queue.snapshot() if prev_queue else None)
                res = total_loss(views, loss_cfg)
                # Finite embeddings can still give a non-finite loss.
                if not np.isfinite(res.value):
                    raise DivergenceDetected(f"loss {res.value}")
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
        # No loss reads the last step's update, so a forward of the task's
        # samples checks it. Blocks of a step's row count keep its memory
        # within a step's.
        step = 0
        rows = 2 * cfg.batch_size
        for lo in range(0, task.num_samples, rows):
            fwd = forward(stack, task.x[lo:lo + rows], want_pred=True)
            _embed(fwd, "proj", False)
            _embed(fwd, "pred", False)
    except DivergenceDetected as err:
        where = (f"batch {batch}" if not epoch else
                 f"epoch {epoch} of {cfg.epochs_per_task}, step {step} of "
                 f"the epoch" if step else "after the last step")
        raise DivergenceDetected(
            f"{'' if epoch else 'frozen model: '}{err} at task {task_index}, "
            f"{where}") from err
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
    """Train tasks 1..T sequentially, snapshotting at each boundary, and
    with ``with_ft_refs`` an independent single-task FT_t model per task.

    Each task's views are drawn once (:func:`draw_views`): task t trains
    the sequence, then its FT reference (from ``ft-init-t``) on the same
    views, which are dropped before task t + 1 is drawn. Both would draw
    the same views on their own, and neither reads the other, so this
    order gives the bits of training the whole sequence first. A run in
    which both a sequence task and an FT reference diverge raises the
    first error in this order."""
    root = Rng(cfg.seed)
    stack = init_stack(root.derive("init"), cfg.encoder_dims,
                       cfg.projector_dims, cfg.predictor_dims)
    frozen: EncoderStack | None = None
    checkpoints: list[EncoderStack] = []
    task_logs: list[TrainLog] = []
    ft_checkpoints: list[EncoderStack] = []
    ft_logs: list[TrainLog] = []
    for t, task in enumerate(stream.tasks, 1):
        views = draw_views(task, cfg, t)
        stack, log = train_task(stack, frozen, task, cfg, task_index=t,
                                views=views)
        frozen = stack.clone()
        checkpoints.append(frozen)
        task_logs.append(log)
        if with_ft_refs:
            ft_stack = init_stack(root.derive(f"ft-init-{t}"),
                                  cfg.encoder_dims, cfg.projector_dims,
                                  cfg.predictor_dims)
            ft_stack, log = train_task(ft_stack, None, task, cfg,
                                       task_index=t, views=views)
            ft_checkpoints.append(ft_stack.clone())
            ft_logs.append(log)
        del views  # so task t + 1 is drawn with no other task's views alive
    return SequenceResult(checkpoints, ft_checkpoints, task_logs, ft_logs)


def encoder_features(stack: EncoderStack, x: np.ndarray) -> np.ndarray:
    """Frozen-encoder features for probing."""
    return mlp_forward(stack.encoder, x)
