"""Linear probing of frozen encoders and the stability/plasticity measures.

The accuracy grid ``a[i][j]`` holds the probe accuracy on task i's holdout
after training task j, for every (i, j) pair including future tasks (the
plasticity measure reads ``a[i][j]`` with i > j). ``ft[i]`` is the probe
accuracy of the independent single-task reference model for task i.
Task indices in the public metric functions are 1-based to match the usual
notation; the grid itself is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continual import TaskStream, encoder_features
from .errors import (
    DegenerateFeatures,
    IndexOutOfRange,
    MissingFt,
    ShapeMismatch,
    SingleClass,
    SingleTask,
)
from .model import EncoderStack
from .numerics import Rng


@dataclass
class ProbeConfig:
    """Full-batch gradient descent keeps probing deterministic: no minibatch
    noise, zero-initialized weights, fixed iteration count."""

    epochs: int = 500
    lr: float = 0.5
    l2_penalty: float = 1e-4
    train_fraction: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")


@dataclass
class AccuracyMatrix:
    """a: T x T grid of probe accuracies; ft: length-T single-task baselines."""

    a: np.ndarray
    ft: np.ndarray | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ShapeMismatch(f"accuracy grid must be square, got {self.a.shape}")
        if self.a.size and (self.a.min() < 0 or self.a.max() > 1):
            raise ValueError("accuracies must lie in [0, 1]")
        if self.ft is not None:
            self.ft = np.asarray(self.ft, dtype=np.float64)
            if self.ft.shape != (self.a.shape[0],):
                raise ShapeMismatch("ft length must equal T")

    @property
    def T(self) -> int:
        return self.a.shape[0]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(features: np.ndarray, labels: np.ndarray, cfg: ProbeConfig,
                 rng: Rng) -> float:
    """Multinomial logistic regression on frozen features.

    Features are standardized by train-split statistics; the classifier
    starts at zero, so converged accuracy is exactly invariant under feature
    column permutations. Returns top-1 accuracy on the holdout split.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ShapeMismatch("features/labels shapes disagree")
    classes = np.unique(labels)
    if classes.size < 2:
        raise SingleClass("probing needs at least two classes")
    col_sd = features.std(axis=0)
    if float(col_sd.max(initial=0.0)) <= 1e-12:
        raise DegenerateFeatures("feature matrix carries no variance")

    m = features.shape[0]
    n_train = min(max(int(cfg.train_fraction * m), 1), m - 1)
    perm = rng.permutation(m)
    tr, ho = perm[:n_train], perm[n_train:]
    x_tr, y_tr = features[tr], labels[tr]
    x_ho, y_ho = features[ho], labels[ho]

    mu = x_tr.mean(axis=0)
    sd = x_tr.std(axis=0)
    sd = np.where(sd <= 1e-12, 1.0, sd)
    x_tr = (x_tr - mu) / sd
    x_ho = (x_ho - mu) / sd

    remap = {int(c): k for k, c in enumerate(classes)}
    y_idx = np.array([remap[int(c)] for c in y_tr], dtype=np.int64)
    k = classes.size
    w = np.zeros((k, x_tr.shape[1]))
    b = np.zeros(k)
    onehot = np.zeros((n_train, k))
    onehot[np.arange(n_train), y_idx] = 1.0
    for _ in range(cfg.epochs):
        probs = _softmax_rows(x_tr @ w.T + b)
        g = (probs - onehot) / n_train
        w -= cfg.lr * (g.T @ x_tr + 2.0 * cfg.l2_penalty * w)
        b -= cfg.lr * g.sum(axis=0)
    pred = classes[np.argmax(x_ho @ w.T + b, axis=1)]
    return float(np.mean(pred == y_ho))


def fill_accuracy_matrix(checkpoints: list[EncoderStack],
                         ft_checkpoints: list[EncoderStack] | None,
                         stream: TaskStream, cfg: ProbeConfig,
                         seed: int) -> AccuracyMatrix:
    """Probe every task's holdout after every checkpoint.

    The train/holdout split of task i derives from the seed and i alone, so
    all entries of row i (and its FT baseline) share one split.
    """
    T = stream.T
    if len(checkpoints) != T:
        raise ShapeMismatch(f"{len(checkpoints)} checkpoints for {T} tasks")
    root = Rng(seed)
    a = np.zeros((T, T))
    for i, task in enumerate(stream.tasks):
        for j, ckpt in enumerate(checkpoints):
            feats = encoder_features(ckpt, task.x)
            a[i, j] = linear_probe(feats, task.y, cfg,
                                   root.derive(f"probe-split-{i}"))
    ft = None
    if ft_checkpoints is not None:
        if len(ft_checkpoints) != T:
            raise ShapeMismatch("ft reference count must equal T")
        ft = np.zeros(T)
        for i, task in enumerate(stream.tasks):
            feats = encoder_features(ft_checkpoints[i], task.x)
            ft[i] = linear_probe(feats, task.y, cfg,
                                 root.derive(f"probe-split-{i}"))
    return AccuracyMatrix(a, ft)


def avg_accuracy(am: AccuracyMatrix, t: int) -> float:
    """A_t: mean accuracy over tasks 1..t after training task t (1-based)."""
    if not 1 <= t <= am.T:
        raise IndexOutOfRange(f"t={t} outside [1, {am.T}]")
    total = 0.0
    for i in range(t):
        total += am.a[i, t - 1]
    return total / t


def stability(am: AccuracyMatrix) -> float:
    """S = mean over tasks i < T of max_t(a[i][t] - a[i][T]): the peak-to-end
    accuracy drop, i.e. forgetting."""
    T = am.T
    if T < 2:
        raise SingleTask("stability needs T >= 2")
    total = 0.0
    for i in range(T - 1):
        best = am.a[i, 0] - am.a[i, T - 1]
        for t in range(1, T):
            gap = am.a[i, t] - am.a[i, T - 1]
            if gap > best:
                best = gap
        total += best
    return total / (T - 1)


def plasticity(am: AccuracyMatrix) -> float:
    """P = mean over checkpoints j < T of the mean advantage of checkpoint j
    on future tasks i > j relative to their single-task FT baselines."""
    T = am.T
    if T < 2:
        raise SingleTask("plasticity needs T >= 2")
    if am.ft is None:
        raise MissingFt("plasticity needs FT baselines")
    total = 0.0
    for j in range(1, T):  # 1-based checkpoint index j = 1..T-1
        inner = 0.0
        for i in range(j + 1, T + 1):  # tasks i = j+1..T
            inner += am.a[i - 1, j - 1] - am.ft[i - 1]
        total += inner / (T - j)
    return total / (T - 1)
