"""Linear probing of frozen encoders and the stability/plasticity measures.

The accuracy grid ``a[i][j]`` holds the probe accuracy on task i's holdout
after training task j, for every (i, j) pair including future tasks (the
plasticity measure reads ``a[i][j]`` with i > j). ``ft[i]`` is the probe
accuracy of the independent single-task reference model for task i.
Task indices in the public metric functions are 1-based to match the usual
notation; the grid itself is 0-based.

Every checkpoint of task i's row (and its FT reference) is probed on the
same train/holdout split, so ``fill_accuracy_matrix`` makes one stacked
``linear_probe`` call per task over the T (or T + 1) feature matrices. The
stacked fit is bit-identical to fitting each checkpoint on its own.

The probe's descent loop is class-major: its logits and gradients are
``(C, k, n)``, so every per-sample op runs over contiguous rows of n train
samples rather than over rows of k classes (2 to 10 in the benchmarks).
Its reductions take numpy's own order on that layout: the softmax's sum
over classes adds the class rows in order, and the bias gradient's sum
over samples is numpy's pairwise sum.

The metric functions sum with builtin ``sum``, which adds in index order,
so they round exactly as the definitions' loops do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continual import TaskStream, encoder_features
from .errors import CsslError, DivergenceDetected
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
            raise CsslError("train_fraction must be in (0, 1)")
        if self.epochs < 1:
            raise CsslError("epochs must be >= 1")
        if self.lr <= 0:
            raise CsslError("lr must be positive")
        if self.l2_penalty < 0:
            raise CsslError("l2_penalty must be non-negative")


@dataclass
class AccuracyMatrix:
    """a: T x T grid of probe accuracies; ft: length-T single-task baselines."""

    a: np.ndarray
    ft: np.ndarray | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise CsslError(f"accuracy grid must be square, got {self.a.shape}")
        if self.a.size and (self.a.min() < 0 or self.a.max() > 1):
            raise CsslError("accuracies must lie in [0, 1]")
        if self.ft is not None:
            self.ft = np.asarray(self.ft, dtype=np.float64)
            if self.ft.shape != (self.a.shape[0],):
                raise CsslError("ft length must equal T")

    @property
    def T(self) -> int:
        return self.a.shape[0]


def linear_probe(features: np.ndarray, labels: np.ndarray, cfg: ProbeConfig,
                 rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multinomial logistic regression on C stacked frozen feature matrices.

    ``features`` is ``(C, m, d)``: C feature matrices of the same m samples,
    which share ``labels`` and one train/holdout split drawn from ``rng``.
    Each slice is standardized by its own train-split statistics and fitted
    as its own classifier. A column whose train-split standard deviation is
    at most 1e-12 is centered but not scaled, so it adds (next to) nothing
    to the logits: a slice without variance (a collapsed encoder) gets in
    effect a bias-only fit, which predicts the train split's most frequent
    class. The classifier starts at zero, so converged accuracy is exactly
    invariant under feature column permutations. Returns the trained
    weights ``(C, k, d)``, biases ``(C, k)`` and top-1 holdout accuracies
    ``(C,)``. Raises :class:`DivergenceDetected`, naming the
    slice and the probe settings, when the fitted weights are not finite
    (for example when ``lr * l2_penalty`` is so large that the decay term
    alone grows them every epoch).

    The loop runs class-major: the logits and their gradient ``g`` are
    ``(C, k, n)`` and the one-hot targets ``(k, n)``, so each per-sample op
    (bias, max and sum over classes, softmax, targets) runs over contiguous
    rows of n samples. Every op works on each slice alone (one gemm per
    slice in each stacked ``matmul``, elementwise ops, reductions over the
    slice's own axes), so a slice's stacked fit is bit-identical to fitting
    it alone. Each reduction takes numpy's own order: the softmax
    denominator, ``np.add.reduce`` over the middle (class) axis, adds the
    class rows in order, and ``grad_b`` is numpy's pairwise sum over the
    samples. Both gradients are divided by the train size after summing.
    The sample-major 2-D fit that ``tests/reference.py`` keeps spells these
    orders out and matches bit for bit, up to BLAS: each gemm hands BLAS
    the transpose of its sample-major product. OpenBLAS 0.3.31's SkylakeX
    kernels round the two alike for the tests' and the benchmark's shapes,
    but not for all: a feature width d with ``d % 8`` in 1..4
    (``grad_w``), or 12 or more classes over more than 192 train samples
    that are not a multiple of 8 (the logits), moves the weights' last
    bits.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 3 or labels.shape != (features.shape[1],):
        raise CsslError("features must be (C, m, d) with m labels")
    classes = np.unique(labels)
    if classes.size < 2:
        raise CsslError("probing needs at least two classes")
    C, m, d = features.shape
    n_train = min(max(int(cfg.train_fraction * m), 1), m - 1)
    perm = rng.permutation(m)
    tr, ho = perm[:n_train], perm[n_train:]
    x_tr, x_ho = features[:, tr], features[:, ho]

    mu = x_tr.mean(axis=-2, keepdims=True)
    sd = x_tr.std(axis=-2, keepdims=True)
    sd = np.where(sd <= 1e-12, 1.0, sd)
    for x in (x_tr, x_ho):  # fancy-indexed copies, standardized in place
        x -= mu
        x /= sd

    k = classes.size
    onehot = np.zeros((k, n_train))
    onehot[np.searchsorted(classes, labels[tr]), np.arange(n_train)] = 1.0
    w = np.zeros((C, k, d))
    b = np.zeros((C, k))
    g = np.empty((C, k, n_train))
    row = np.empty((C, n_train))
    grad_w = np.empty_like(w)
    grad_b = np.empty_like(b)
    decay = np.empty_like(w)
    bias = b[..., None]
    x_tr_t = x_tr.transpose(0, 2, 1)
    l2 = 2.0 * cfg.l2_penalty
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            # g becomes softmax(w x^T + b) - onehot in place
            np.matmul(w, x_tr_t, out=g)
            g += bias
            g -= np.maximum.reduce(g, axis=1, out=row)[:, None]
            np.exp(g, out=g)
            g /= np.add.reduce(g, axis=1, out=row)[:, None]
            g -= onehot
            np.matmul(g, x_tr, out=grad_w)
            grad_w /= n_train
            grad_w += np.multiply(l2, w, out=decay)
            grad_w *= cfg.lr
            w -= grad_w
            np.add.reduce(g, axis=-1, out=grad_b)
            grad_b /= n_train
            grad_b *= cfg.lr
            b -= grad_b
    finite = np.isfinite(w).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if not finite.all():
        raise DivergenceDetected(
            f"probe of feature matrix {int(np.argmin(finite))} of {C} "
            f"diverged (probe.lr {cfg.lr}, probe.l2_penalty "
            f"{cfg.l2_penalty})")
    pred = classes[np.argmax(x_ho @ w.transpose(0, 2, 1) + b[:, None],
                             axis=-1)]
    return w, b, np.mean(pred == labels[ho], axis=-1)


def fill_accuracy_matrix(checkpoints: list[EncoderStack],
                         ft_checkpoints: list[EncoderStack] | None,
                         stream: TaskStream, cfg: ProbeConfig,
                         seed: int) -> AccuracyMatrix:
    """Probe every task's holdout after every checkpoint.

    The train/holdout split of task i derives from the seed and i alone, so
    all entries of row i (and its FT baseline) share one split, and one
    stacked probe per task fits them all.
    """
    T = stream.T
    if len(checkpoints) != T:
        raise CsslError(f"{len(checkpoints)} checkpoints for {T} tasks")
    if ft_checkpoints is not None and len(ft_checkpoints) != T:
        raise CsslError(f"{len(ft_checkpoints)} ft references for {T} tasks")
    root = Rng(seed)
    a = np.zeros((T, T))
    ft = None if ft_checkpoints is None else np.zeros(T)
    for i, task in enumerate(stream.tasks):
        probed = list(checkpoints)
        if ft is not None:
            probed.append(ft_checkpoints[i])
        feats = np.stack([encoder_features(c, task.x) for c in probed])
        acc = linear_probe(feats, task.y, cfg,
                           root.derive(f"probe-split-{i}"))[2]
        a[i] = acc[:T]
        if ft is not None:
            ft[i] = acc[T]
    return AccuracyMatrix(a, ft)


def avg_accuracy(am: AccuracyMatrix, t: int) -> float:
    """A_t: mean accuracy over tasks 1..t after training task t (1-based)."""
    if not 1 <= t <= am.T:
        raise CsslError(f"t={t} outside [1, {am.T}]")
    return sum(am.a[:t, t - 1]) / t


def stability(am: AccuracyMatrix) -> float:
    """S = mean over tasks i < T of max_t(a[i][t] - a[i][T]): the peak-to-end
    accuracy drop, i.e. forgetting."""
    T = am.T
    if T < 2:
        raise CsslError("stability needs T >= 2")
    # Rounding is monotone, so max_t(a_t) - c == max_t(a_t - c) exactly.
    return sum(am.a[:-1].max(axis=1) - am.a[:-1, -1]) / (T - 1)


def plasticity(am: AccuracyMatrix) -> float:
    """P = mean over checkpoints j < T of the mean advantage of checkpoint j
    on future tasks i > j relative to their single-task FT baselines."""
    T = am.T
    if T < 2:
        raise CsslError("plasticity needs T >= 2")
    if am.ft is None:
        raise CsslError("plasticity needs FT baselines")
    return sum(sum(am.a[j:, j - 1] - am.ft[j:]) / (T - j)
               for j in range(1, T)) / (T - 1)
