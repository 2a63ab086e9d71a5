"""Independent oracles used by the tests.

Everything here is deliberately written in the most naive style possible
(scalar loops, a tiny tape-based autodiff) and shares no code with the
package implementations it checks. :func:`fisher_yates` takes its draws
from the package's SplitMix64 stream, which it does not check. One
exception checks a restructured package function bit for bit, so it keeps
its arithmetic: :func:`train_task_redraw` checks how ``train_task`` draws
and replays a task's batches, so it reuses the package's step pieces and
differs from ``train_task`` only in its drawing.
"""

from __future__ import annotations

import math

import numpy as np

from cssl import continual
from cssl.embedding_queue import EmbeddingQueue
from cssl.errors import DivergenceDetected
from cssl.losses import Method, Regime, total_loss
from cssl.model import ema_update, sgd_step
from cssl.numerics import Rng


class Value:
    """Minimal reverse-mode scalar autodiff node."""

    __slots__ = ("data", "grad", "_backward", "_prev")

    def __init__(self, data, _children=()):
        self.data = float(data)
        self.grad = 0.0
        self._backward = lambda: None
        self._prev = tuple(_children)

    @staticmethod
    def wrap(x):
        return x if isinstance(x, Value) else Value(x)

    def __add__(self, other):
        other = Value.wrap(other)
        out = Value(self.data + other.data, (self, other))

        def _backward():
            self.grad += out.grad
            other.grad += out.grad
        out._backward = _backward
        return out

    def __mul__(self, other):
        other = Value.wrap(other)
        out = Value(self.data * other.data, (self, other))

        def _backward():
            self.grad += other.data * out.grad
            other.grad += self.data * out.grad
        out._backward = _backward
        return out

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-Value.wrap(other))

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def exp(self):
        out = Value(math.exp(self.data), (self,))

        def _backward():
            self.grad += out.data * out.grad
        out._backward = _backward
        return out

    def log(self):
        out = Value(math.log(self.data), (self,))

        def _backward():
            self.grad += out.grad / self.data
        out._backward = _backward
        return out

    def backward(self):
        topo: list[Value] = []
        seen: set[int] = set()

        def build(v: Value):
            if id(v) not in seen:
                seen.add(id(v))
                for child in v._prev:
                    build(child)
                topo.append(v)

        build(self)
        self.grad = 1.0
        for node in reversed(topo):
            node._backward()


def _dot(a, b):
    total = a[0] * b[0]
    for k in range(1, len(a)):
        total = total + a[k] * b[k]
    return total


def per_anchor_cssl_grad(zA, zB, zpA, zpB, i, tau,
                         queue_cur=None, queue_prev=None):
    """Autodiff gradient of half the per-anchor loss (plasticity +
    distillation, identity predictor) with respect to the anchor zA[i].

    The anchor variable enters only where the analysis places it: as the
    query of both softmaxes and both positive pairings. Negative pools:
    the current batch (both views, anchor's own entry excluded) plus the
    current-key queue, and the full previous batch (both views) plus the
    previous-key queue; identical for both loss terms.
    """
    n, d = zA.shape
    anchor = [Value(zA[i, k]) for k in range(d)]
    pool = []
    for j in range(n):
        if j != i:
            pool.append([Value(zA[j, k]) for k in range(d)])
    for j in range(n):
        pool.append([Value(zB[j, k]) for k in range(d)])
    if queue_cur is not None:
        for row in queue_cur:
            pool.append([Value(x) for x in row])
    for j in range(n):
        pool.append([Value(zpA[j, k]) for k in range(d)])
    for j in range(n):
        pool.append([Value(zpB[j, k]) for k in range(d)])
    if queue_prev is not None:
        for row in queue_prev:
            pool.append([Value(x) for x in row])

    inv_tau = 1.0 / tau
    denom = None
    for row in pool:
        term = (_dot(anchor, row) * inv_tau).exp()
        denom = term if denom is None else denom + term
    pos1 = _dot(anchor, [Value(zB[i, k]) for k in range(d)]) * inv_tau
    loss1 = -(pos1 - denom.log())

    denom2 = None
    for row in pool:
        term = (_dot(anchor, row) * inv_tau).exp()
        denom2 = term if denom2 is None else denom2 + term
    pos2 = _dot(anchor, [Value(zpA[i, k]) for k in range(d)]) * inv_tau
    loss2 = -(pos2 - denom2.log())

    half = (loss1 + loss2) * 0.5
    half.backward()
    return np.array([a.grad for a in anchor])


def _queue_terms(anchor, queue, tau):
    """The logits of one anchor against a MoCo queue (none without one)."""
    return [] if queue is None else [float(anchor @ q) / tau for q in queue]


def reference_simclr(zA, zB, tau, queue_cur=None):
    """Textbook NT-Xent over 2N embeddings, anchor view A, mean reduction;
    MoCo's current-key queue joins the negatives."""
    n = zA.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(zA[i] @ zB[i]) / tau
        terms = []
        for j in range(n):
            if j != i:
                terms.append(float(zA[i] @ zA[j]) / tau)
        for j in range(n):
            terms.append(float(zA[i] @ zB[j]) / tau)
        terms += _queue_terms(zA[i], queue_cur, tau)
        m = max(terms)
        denom = sum(math.exp(t - m) for t in terms)
        total += -(pos - (m + math.log(denom)))
    return total / n


def reference_cassle_distill(gA, zpA, zpB, tau, queue_prev=None):
    """Contrastive distillation: anchor g(zA[i]), positive zpA[i], negatives
    the full previous batch (both views, positive included) and MoCo's
    previous-key queue."""
    n = gA.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(gA[i] @ zpA[i]) / tau
        terms = []
        for j in range(n):
            terms.append(float(gA[i] @ zpA[j]) / tau)
        for j in range(n):
            terms.append(float(gA[i] @ zpB[j]) / tau)
        terms += _queue_terms(gA[i], queue_prev, tau)
        m = max(terms)
        denom = sum(math.exp(t - m) for t in terms)
        total += -(pos - (m + math.log(denom)))
    return total / n


def reference_pnr_l1(zA, zB, zpA, zpB, tau, queue_cur=None,
                     queue_prev=None):
    """Plasticity loss with the full previous batch appended as negatives;
    MoCo's two queues join the negatives."""
    n = zA.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(zA[i] @ zB[i]) / tau
        terms = []
        for j in range(n):
            if j != i:
                terms.append(float(zA[i] @ zA[j]) / tau)
        for j in range(n):
            terms.append(float(zA[i] @ zB[j]) / tau)
        for j in range(n):
            terms.append(float(zA[i] @ zpA[j]) / tau)
        for j in range(n):
            terms.append(float(zA[i] @ zpB[j]) / tau)
        terms += _queue_terms(zA[i], queue_cur, tau)
        terms += _queue_terms(zA[i], queue_prev, tau)
        m = max(terms)
        denom = sum(math.exp(t - m) for t in terms)
        total += -(pos - (m + math.log(denom)))
    return total / n


def reference_pnr_l2(gA, zA, zB, zpA, zpB, tau, queue_cur=None,
                     queue_prev=None):
    """Contrastive distillation with current-model pseudo-negatives: anchor
    gA[i], positive zpA[i], negatives the full previous batch (both views,
    positive included) plus the current batch minus the anchor's own row
    zA[i]; MoCo's two queues join the negatives."""
    n = gA.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(gA[i] @ zpA[i]) / tau
        terms = []
        for j in range(n):
            terms.append(float(gA[i] @ zpA[j]) / tau)
        for j in range(n):
            terms.append(float(gA[i] @ zpB[j]) / tau)
        for j in range(n):
            if j != i:
                terms.append(float(gA[i] @ zA[j]) / tau)
        for j in range(n):
            terms.append(float(gA[i] @ zB[j]) / tau)
        terms += _queue_terms(gA[i], queue_cur, tau)
        terms += _queue_terms(gA[i], queue_prev, tau)
        m = max(terms)
        denom = sum(math.exp(t - m) for t in terms)
        total += -(pos - (m + math.log(denom)))
    return total / n


def brute_force_stability(a):
    """Literal loop of the stability formula on a T x T grid (1-based i, t)."""
    T = a.shape[0]
    total = 0.0
    for i in range(1, T):
        best = -float("inf")
        for t in range(1, T + 1):
            gap = a[i - 1][t - 1] - a[i - 1][T - 1]
            if gap > best:
                best = gap
        total += best
    return total / (T - 1)


def brute_force_plasticity(a, ft):
    """Literal double loop of the plasticity formula."""
    T = a.shape[0]
    total = 0.0
    for j in range(1, T):
        inner = 0.0
        for i in range(j + 1, T + 1):
            inner += a[i - 1][j - 1] - ft[i - 1]
        total += inner / (T - j)
    return total / (T - 1)


def probe_gradient(features, labels, order, cfg, w, b):
    """First-order check of a linear probe of one ``(m, d)`` feature matrix.

    Splits the rows as the probe does (the first ``n_train`` entries of
    ``order`` train), standardizes the features by the train split's
    statistics and returns the gradient of mean
    cross-entropy + ``l2_penalty``·‖W‖² at the given weights ``(k, d)`` and
    biases ``(k,)``, summed one sample at a time, together with the holdout
    accuracy of ``(w, b)``. Classes whose bias is -inf (absent from the
    train split) drop out of the softmax, and their gradient rows are
    zero. At the minimum every gradient entry is (next to) zero."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = sorted(set(labels.tolist()))
    m = features.shape[0]
    n_train = min(max(int(cfg.train_fraction * m), 1), m - 1)
    tr, ho = order[:n_train], order[n_train:]
    mu = features[tr].mean(axis=0)
    sd = features[tr].std(axis=0)
    sd = np.where(sd <= 1e-12, 1.0, sd)
    live = [j for j in range(len(classes)) if np.isfinite(b[j])]
    grad_w = 2.0 * cfg.l2_penalty * w
    grad_b = np.zeros(len(classes))
    for s in tr:
        x = (features[s] - mu) / sd
        logits = {j: float(w[j] @ x + b[j]) for j in live}
        top = max(logits.values())
        denom = sum(math.exp(v - top) for v in logits.values())
        for j in live:
            r = (math.exp(logits[j] - top) / denom
                 - (classes[j] == labels[s]))
            grad_w[j] += r * x / n_train
            grad_b[j] += r / n_train
    hits = 0
    for s in ho:
        x = (features[s] - mu) / sd
        scores = [w[j] @ x + b[j] for j in range(len(classes))]
        hits += classes[int(np.argmax(scores))] == labels[s]
    return grad_w, grad_b, hits / len(ho)


def probe_hessian(x, prob, l2_penalty):
    """The linear probe's Newton system, summed one sample at a time.

    ``x`` is the ``(n, d)`` standardized train features and ``prob`` the
    ``(n, k)`` softmax of each sample over the fitted classes. Returns the
    ``(k·(d+1), k·(d+1))`` Hessian of mean cross-entropy
    + ``l2_penalty``·‖W‖² in ``theta = [W, b]`` flattened class by class,
    ``mean_s (diag(p_s) - p_s p_sᵀ) ⊗ xa_s xa_sᵀ`` with ``xa_s = [x_s, 1]``,
    plus ``2·l2_penalty`` on every weight and ``1/k`` on every pair of
    biases: the rank-one term that pins the all-classes bias shift."""
    n, d = x.shape
    k = prob.shape[1]
    p = d + 1
    h = np.zeros((k * p, k * p))
    for s in range(n):
        xa = np.append(x[s], 1.0)
        ps = prob[s]
        h += np.kron(np.diag(ps) - np.outer(ps, ps), np.outer(xa, xa))
    h /= n
    for a in range(k):
        for r in range(d):
            h[a * p + r, a * p + r] += 2.0 * l2_penalty
        for b in range(k):
            h[a * p + d, b * p + d] += 1.0 / k
    return h


def fnv1a64_loop(data):
    """64-bit FNV-1a, one byte at a time."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def fisher_yates(rng, n):
    """Fisher-Yates shuffle of arange(n), swapping numpy elements one at a
    time: for i = n-1 down to 1, swap i with the next draw % (i + 1)."""
    idx = np.arange(n, dtype=np.int64)
    draws = rng._next_block(n - 1)
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = int(draws[k] % np.uint64(i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def naive_fifo(capacity):
    """List-based FIFO reference for the embedding queue."""
    store: list[np.ndarray] = []

    def enqueue(batch):
        for row in batch:
            store.append(np.array(row, copy=True))
        while len(store) > capacity:
            store.pop(0)

    def snapshot():
        if not store:
            return np.zeros((0, 0))
        return np.stack(store)

    return enqueue, snapshot


def train_task_redraw(stack, frozen_prev, task, cfg, *, task_index=1):
    """``train_task`` as a per-epoch redraw loop: every epoch re-seeds the
    task's stream, redraws the shuffle and the two-view batches, and pushes
    them through the frozen model again. The replay plan must match it bit
    for bit."""
    loss_cfg = continual._effective_cfg(cfg.loss, frozen_prev)
    method = loss_cfg.method
    velocity = np.zeros_like(stack.flat)
    cur_queue = prev_queue = None
    if method == Method.MOCO:
        cur_queue = EmbeddingQueue(cfg.queue_capacity,
                                   stack.projector.out_dim)
        if loss_cfg.regime != Regime.FT:
            prev_queue = EmbeddingQueue(cfg.queue_capacity,
                                        stack.projector.out_dim)
    target = None
    if method == Method.BYOL:
        target = stack.clone()
    epoch_seed = (Rng(cfg.seed).derive(f"task-{task_index}")
                  .derive("epoch-stream").seed)
    M = task.num_samples
    epoch_losses = []
    steps = 0
    for epoch in range(1, cfg.epochs_per_task + 1):
        rng = Rng(epoch_seed)
        order = rng.permutation(M)
        batch_losses = []
        for step, lo in enumerate(range(0, M, cfg.batch_size), 1):
            idx = order[lo:lo + cfg.batch_size]
            if idx.size < 2 and method in (Method.VICREG, Method.BARLOW):
                continue
            x = continual.two_views(task.x[idx], cfg.augment, rng)
            try:
                z_prev = (None if loss_cfg.regime == Regime.FT else
                          continual.frozen_embedding(frozen_prev, x, method))
            except DivergenceDetected as err:
                raise DivergenceDetected(
                    f"frozen model: {err} at task {task_index}, batch "
                    f"{step}") from err
            try:
                views, fwd = continual.encode_views(
                    stack, x, z_prev, loss_cfg, target=target,
                    queue_cur=(cur_queue.snapshot() if cur_queue else None),
                    queue_prev=(prev_queue.snapshot() if prev_queue
                                else None))
                res = total_loss(views, loss_cfg)
                if not np.isfinite(res.value):
                    raise DivergenceDetected(f"loss {res.value}")
            except DivergenceDetected as err:
                raise DivergenceDetected(
                    f"{err} at task {task_index}, epoch {epoch} of "
                    f"{cfg.epochs_per_task}, step {step} of the epoch") from err
            sgd_step(stack, continual.backprop_views(stack, fwd, loss_cfg,
                                                     res),
                     velocity, cfg.lr, cfg.momentum, cfg.weight_decay)
            if method == Method.MOCO:
                cur_queue.enqueue(views.z[idx.size:])
                if prev_queue is not None:
                    prev_queue.enqueue(views.z_prev[idx.size:])
            if method == Method.BYOL:
                ema_update(target, stack, cfg.ema_momentum)
            batch_losses.append(res.value)
            steps += 1
        epoch_losses.append(float(np.mean(batch_losses)))
    return stack, continual.TrainLog(epoch_losses, steps)
