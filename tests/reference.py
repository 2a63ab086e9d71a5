"""Independent oracles used by the tests.

Everything here is deliberately written in the most naive style possible
(scalar loops, a tiny tape-based autodiff) and shares no code with the
package implementations it checks. Two exceptions check a restructured
package function bit for bit, so they keep its arithmetic:
:func:`train_task_redraw` checks how ``train_task`` draws and replays a
task's batches, so it reuses the package's step pieces and differs from
``train_task`` only in its drawing; :func:`per_checkpoint_probe` is the
2-D probe of one feature matrix that the stacked ``linear_probe`` must
match slice by slice.
"""

from __future__ import annotations

import math

import numpy as np

from cssl import continual
from cssl.embedding_queue import EmbeddingQueue
from cssl.errors import DivergenceDetected
from cssl.losses import LossResult, Method, Regime, total_loss
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


def reference_simclr(zA, zB, tau):
    """Textbook NT-Xent over 2N embeddings, anchor view A, mean reduction."""
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
        m = max(terms)
        denom = sum(math.exp(t - m) for t in terms)
        total += -(pos - (m + math.log(denom)))
    return total / n


def reference_cassle_distill(gA, zpA, zpB, tau):
    """Contrastive distillation: anchor g(zA[i]), positive zpA[i], negatives
    the full previous batch (both views, positive included)."""
    n = gA.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(gA[i] @ zpA[i]) / tau
        terms = []
        for j in range(n):
            terms.append(float(gA[i] @ zpA[j]) / tau)
        for j in range(n):
            terms.append(float(gA[i] @ zpB[j]) / tau)
        m = max(terms)
        denom = sum(math.exp(t - m) for t in terms)
        total += -(pos - (m + math.log(denom)))
    return total / n


def reference_pnr_l1(zA, zB, zpA, zpB, tau):
    """Plasticity loss with the full previous batch appended as negatives."""
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
        m = max(terms)
        denom = sum(math.exp(t - m) for t in terms)
        total += -(pos - (m + math.log(denom)))
    return total / n


def reference_pnr_l2(gA, zA, zB, zpA, zpB, tau):
    """Contrastive distillation with current-model pseudo-negatives: anchor
    gA[i], positive zpA[i], negatives the full previous batch (both views,
    positive included) plus the current batch minus the anchor's own row
    zA[i]."""
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


def per_checkpoint_probe(features, labels, cfg, rng):
    """The linear probe of one ``(m, d)`` feature matrix, fitted alone:
    returns the trained weights ``(k, d)``, biases ``(k,)`` and holdout
    accuracy.

    The loop is sample-major, ``(n, k)``, and spells out the orders of the
    package's class-major sums: the softmax denominator adds the classes one
    by one, in order; the bias gradient is numpy's pairwise sum over a
    contiguous ``(k, n)`` copy; and both gradients are divided by the train
    size after summing, not before."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
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
        logits = x_tr @ w.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        denom = e[:, 0].copy()
        for j in range(1, k):
            denom += e[:, j]
        g = e / denom[:, None] - onehot
        w -= cfg.lr * ((g.T @ x_tr) / n_train + 2.0 * cfg.l2_penalty * w)
        b -= cfg.lr * (np.ascontiguousarray(g.T).sum(axis=-1) / n_train)
    pred = classes[np.argmax(x_ho @ w.T + b, axis=1)]
    return w, b, float(np.mean(pred == y_ho))


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
            z_prev = (None if frozen_prev is None else
                      continual.frozen_embedding(frozen_prev, x, method))
            views, fwd = continual.encode_views(
                stack, x, z_prev, loss_cfg, target=target,
                queue_cur=(cur_queue.snapshot() if cur_queue else None),
                queue_prev=(prev_queue.snapshot() if prev_queue else None))
            res = (LossResult(np.nan) if continual._overflowed(fwd)
                   else total_loss(views, loss_cfg))
            if not np.isfinite(res.value):
                raise DivergenceDetected(
                    f"loss {res.value} at task {task_index}, epoch {epoch} "
                    f"of {cfg.epochs_per_task}, step {step} of the epoch")
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
