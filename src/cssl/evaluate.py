"""Linear probing of frozen encoders and the stability/plasticity measures.

The accuracy grid ``a[i][j]`` holds the probe accuracy on task i's holdout
after training task j, for every (i, j) pair including future tasks (the
plasticity measure reads ``a[i][j]`` with i > j). ``ft[i]`` is the probe
accuracy of the independent single-task reference model for task i.
Task indices in the public metric functions are 1-based to match the usual
notation; the grid itself is 0-based.

Each task draws one train/holdout split, and ``fill_accuracy_matrix``
probes every checkpoint, and the task's FT reference, on it: one
``linear_probe`` call per (task, checkpoint) pair. The probe solves the
regularized logistic regression of one feature matrix to its minimum with
Newton's method, so it depends on no step size or epoch count.

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
    """The linear probe's settings. The fit is the minimum of mean
    cross-entropy + ``l2_penalty``·‖W‖², found by Newton's method from zero,
    so it is deterministic. ``epochs`` caps the Newton iterations (a fit
    that reaches the cap returns its last iterate). ``lr`` is checked but
    not read: the solver needs no step size, and configs still set it.
    ``l2_penalty`` must be positive, because without it separable classes
    have no minimum."""

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
        if self.l2_penalty <= 0:
            raise CsslError("l2_penalty must be positive")


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


def linear_probe(features: np.ndarray, labels: np.ndarray, order: np.ndarray,
                 cfg: ProbeConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Multinomial logistic regression on one frozen feature matrix.

    ``features`` is ``(m, d)`` with one label per row; the first ``n_train``
    entries of ``order``, a permutation of the m rows, are the train split
    and the rest the holdout. The features are standardized by the train
    split's statistics and the fit is solved to the minimum of its
    objective (see :func:`_newton_fit`). A column whose train-split standard
    deviation is at most 1e-12 is centered but not scaled, so it adds
    nothing to the logits: a collapsed encoder gets a bias-only fit, which
    predicts the train split's most frequent class. A class that the train
    split lacks has no finite minimizer (its bias runs to -inf), so it is
    not fitted: its weights are 0 and its bias -inf, and it is never
    predicted. Returns the weights ``(k, d)``, biases ``(k,)`` and top-1
    holdout accuracy. Raises :class:`DivergenceDetected`, naming
    ``probe.l2_penalty``, when the features are not finite or their squares
    overflow in the standardization, or when the Hessian is singular: a
    penalty too small to register next to the curvature, with duplicate
    feature columns or with separable classes whose softmax saturates.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if (features.ndim != 2 or labels.shape != features.shape[:1]
            or np.shape(order) != labels.shape):
        raise CsslError("features must be (m, d), with m labels and an "
                        "order of the m rows")
    m, d = features.shape
    classes = np.unique(labels)
    if classes.size < 2:
        raise CsslError("probing needs at least two classes")
    n_train = min(max(int(cfg.train_fraction * m), 1), m - 1)
    tr, ho = order[:n_train], order[n_train:]
    y_tr = np.searchsorted(classes, labels[tr])
    fitted = np.unique(y_tr)  # the classes the train split holds
    where = f"probe (probe.l2_penalty {cfg.l2_penalty})"
    with np.errstate(over="ignore", invalid="ignore"):
        x_tr, x_ho = features[tr], features[ho]
        mu = x_tr.mean(axis=0)
        sd = x_tr.std(axis=0)
    if not (np.isfinite(x_tr).all() and np.isfinite(x_ho).all()):
        raise DivergenceDetected(f"{where}: features are not finite")
    if not np.isfinite(sd).all():
        raise DivergenceDetected(
            f"{where}: features overflow in the standardization")
    sd = np.where(sd <= 1e-12, 1.0, sd)
    for x in (x_tr, x_ho):  # fancy-indexed copies, standardized in place
        x -= mu
        x /= sd
    try:
        theta = _newton_fit(x_tr, np.searchsorted(fitted, y_tr), fitted.size,
                            cfg.l2_penalty, cfg.epochs)
    except np.linalg.LinAlgError as err:
        raise DivergenceDetected(f"{where}: the Hessian is singular "
                                 f"({err})") from err
    w = np.zeros((classes.size, d))
    b = np.full(classes.size, -np.inf)
    w[fitted], b[fitted] = theta[:, :d], theta[:, d]
    pred = classes[np.argmax(x_ho @ w.T + b, axis=1)]
    return w, b, float(np.mean(pred == labels[ho]))


# Elements of the Hessian's block of pair weights (256 KiB). Unchunked, the
# (k(k - 1)/2, n) weights raised the benchmark's peak RSS by about 0.9 MB
# (n = 3200, k = 10); blocks of this size leave it where it was.
_PAIR_WEIGHTS = 1 << 15


def _hessian_builder(xa: np.ndarray, k: int, l2_penalty: float):
    """Return ``hessian(prob)``, the Newton system of :func:`_newton_fit`
    at the class-major softmax ``prob`` ``(k, n)`` of the rows of ``xa``
    ``(n, p)``: a ``(k·p, k·p)`` view of one buffer that each call rewrites.

    Entry ``(a, r), (b, s)`` of ``n·H`` is ``sum_i w_iab·xa_ir·xa_is``, with
    ``w_iab = -p_ia·p_ib`` for a ≠ b and ``w_iaa = p_ia·(1 - p_ia)``, so only
    the class pairs a ≤ b and the products r ≤ s are distinct. ``gram``
    holds each row's ``p(p+1)/2`` products ``xa_r·xa_s``, formed once per
    fit. A call forms the ``k(k-1)/2`` pair weights ``p_a·p_b`` (a < b),
    about ``2^15 / (k(k-1)/2)`` samples at a time, and a gemm against
    ``gram`` sums every off-diagonal block: ``n·k(k-1)/2·p(p+1)/2``
    multiply-adds. A diagonal block is the sum of its row's off-diagonal
    ones, since ``p_a·(1 - p_a) = sum_{b≠a} p_a·p_b``; unlike
    ``p_a - p_a²`` it keeps a saturated class's small curvature exact. One
    precomputed gather unpacks the sums into ``(k, p, k, p)``, and one
    divide applies ``1/n`` and the off-diagonal sign. The temporaries are
    ``gram`` ``(n, p(p+1)/2)``, the weights' block and the ``(k·p)²``
    Hessian.
    """
    n, p = xa.shape
    r, s = np.triu_indices(p)
    gram = np.empty((n, r.size))
    for c in range(p):  # columns (c, c), (c, c + 1), ..., (c, p - 1)
        lo = c * p - c * (c - 1) // 2
        np.multiply(xa[:, c:], xa[:, c, None], out=gram[:, lo:lo + p - c])
    a, b = np.triu_indices(k, 1)
    pairs = a.size
    rows = max(1, min(n, _PAIR_WEIGHTS // max(pairs, 1)))
    wts = np.empty((pairs, rows))
    # sums[:pairs] holds -n·H_ab for a < b, sums[pairs + a] n·H_aa
    sums = np.empty((pairs + k, r.size))
    part = np.empty((pairs, r.size))
    rowsum = np.zeros((k, pairs))
    rowsum[a, np.arange(pairs)] = rowsum[b, np.arange(pairs)] = 1.0
    block = np.empty((k, k), dtype=np.int64)
    block[a, b] = block[b, a] = np.arange(pairs)
    block[np.arange(k), np.arange(k)] = pairs + np.arange(k)
    sym = np.empty((p, p), dtype=np.int64)
    sym[r, s] = sym[s, r] = np.arange(r.size)
    unpack = block[:, None, :, None] * r.size + sym[None, :, None, :]
    # n on the diagonal blocks, -n off them: one divide scales and signs
    scale = np.where(np.eye(k, dtype=bool), n, -n)[:, None, :, None]
    hess = np.empty((k, p, k, p))
    flat = hess.reshape(k * p, k * p)
    diagonal = flat.reshape(-1)[::k * p + 1]
    decay = np.tile(np.append(np.full(p - 1, 2.0 * l2_penalty), 0.0), k)

    def hessian(prob: np.ndarray) -> np.ndarray:
        off = sums[:pairs]
        for lo in range(0, n, rows):
            m = min(rows, n - lo)
            w = wts[:, :m]
            at = 0
            for c in range(k - 1):
                np.multiply(prob[c, lo:lo + m], prob[c + 1:, lo:lo + m],
                            out=w[at:at + k - 1 - c])
                at += k - 1 - c
            if lo == 0:
                np.matmul(w, gram[lo:lo + m], out=off)
            else:
                off += np.matmul(w, gram[lo:lo + m], out=part)
        np.matmul(rowsum, off, out=sums[pairs:])
        np.take(sums, unpack, out=hess)
        np.divide(hess, scale, out=hess)
        np.add(diagonal, decay, out=diagonal)
        hess[:, p - 1, :, p - 1] += 1.0 / k
        return flat

    return hessian


def _newton_fit(x: np.ndarray, y: np.ndarray, k: int, l2_penalty: float,
                max_iter: int) -> np.ndarray:
    """Minimize mean cross-entropy + ``l2_penalty``·‖W‖² over ``(W, b)``.

    ``x`` is ``(n, d)``, ``y`` the class index of each row in ``[0, k)``,
    each class present. Returns ``theta = [W, b]`` as ``(k, d + 1)``.

    Newton's method from zero, with a backtracking (Armijo) line search.
    With ``xa = [x, 1]`` and ``p_s`` the softmax of sample s, the Hessian
    is ``mean_s (diag(p_s) - p_s p_sᵀ) ⊗ xa_s xa_sᵀ`` (Böhning 1992) plus
    ``2·l2_penalty`` on the weights; :func:`_hessian_builder` forms it from
    its distinct entries. The bias is not penalized, so shifting every
    class's bias alike is a null direction; the rank-one term ``u uᵀ`` on
    the bias block (u = 1/√k) makes the Hessian invertible, and the
    gradient is orthogonal to u, so the term leaves the step alone. The
    loop stops when the Newton decrement ``gᵀH⁻¹g`` is at most
    ``1e-14·(1 + f)``, when the line search cannot decrease f, or after
    ``max_iter`` steps. The rule is relative because at a few thousand
    samples the gradient's rounding floor can sit above 1e-10, where an
    absolute tolerance never fires. The softmax is class-major, ``(k, n)``,
    so its max, sum and take run over contiguous rows of n.
    """
    n, d = x.shape
    p = d + 1
    xa = np.empty((n, p))
    xa[:, :d] = x
    xa[:, d] = 1.0
    # sum_s (p_s - onehot_s) xa_s = prob xa - target: no residual array
    target = np.stack([xa[y == j].sum(axis=0) for j in range(k)])
    theta = np.zeros((k, p))
    decay = np.zeros((k, p))
    decay[:, :d] = 2.0 * l2_penalty
    hessian = _hessian_builder(xa, k, l2_penalty)
    # Work buffers, allocated once per fit: fresh arrays every iteration
    # fragmented the heap, and peak RSS grew with the number of fits.
    prob, trial = np.empty((k, n)), np.empty((k, n))
    top, picked, total = np.empty(n), np.empty(n), np.empty(n)
    at_y = y * n + np.arange(n)  # flat indices of the true classes' logits

    def objective(theta, out):
        """f(theta); writes the softmax into ``out``."""
        np.matmul(theta, xa.T, out=out)
        np.max(out, axis=0, out=top)
        np.take(out, at_y, out=picked)
        out -= top
        np.exp(out, out=out)
        np.sum(out, axis=0, out=total)
        out /= total
        # f = mean(top + log(total) - picked), in place
        np.subtract(np.add(np.log(total, out=total), top, out=total), picked,
                    out=total)
        return np.mean(total) + l2_penalty * np.sum(theta[:, :d] ** 2)

    f = objective(theta, prob)
    for _ in range(max_iter):
        grad = (prob @ xa - target) / n + decay * theta
        step = -np.linalg.solve(hessian(prob), grad.ravel()).reshape(k, p)
        dec = -np.vdot(grad, step)
        if not dec > 1e-14 * (1.0 + f):
            break
        t = 1.0
        while t > 1e-10:
            f_new = objective(theta + t * step, trial)
            if f_new <= f - 0.25 * t * dec:
                break
            t *= 0.5
        else:
            break
        theta = theta + t * step
        f, prob, trial = f_new, trial, prob
    return theta


def fill_accuracy_matrix(checkpoints: list[EncoderStack],
                         ft_checkpoints: list[EncoderStack] | None,
                         stream: TaskStream, cfg: ProbeConfig,
                         seed: int) -> AccuracyMatrix:
    """Probe every task's holdout after every checkpoint.

    The train/holdout split of task i derives from the seed and i alone,
    and is drawn once: every entry of row i, and its FT baseline, is probed
    on it. A :class:`DivergenceDetected` from a probe is re-raised naming
    the task and the checkpoint.
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
        order = root.derive(f"probe-split-{i}").permutation(task.num_samples)

        def accuracy(stack: EncoderStack, name: str) -> float:
            try:
                return linear_probe(encoder_features(stack, task.x), task.y,
                                    order, cfg)[2]
            except DivergenceDetected as err:
                raise DivergenceDetected(
                    f"{err}, probing task {i + 1} with {name}") from err

        for j, stack in enumerate(checkpoints):
            a[i, j] = accuracy(stack, f"the checkpoint after task {j + 1}")
        if ft is not None:
            ft[i] = accuracy(ft_checkpoints[i],
                             f"task {i + 1}'s FT reference")
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
