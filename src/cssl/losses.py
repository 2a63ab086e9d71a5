"""Every training objective and its analytic embedding-space gradients.

Contrastive side
----------------
For a batch of N samples with two augmented views, the current model emits
``zA_t``/``zB_t`` (and predictor outputs ``gA_t``/``gB_t``); the frozen
previous-task model emits ``zA_prev``/``zB_prev``. For anchor i, ordering
(A, B):

* plasticity term ``pnr_l1``: InfoNCE with positive ``zB_t[i]``, negatives
  N1(i) = both current views minus the anchor itself (2N-1 rows, the positive
  included), plus pseudo-negatives PN1(i) = both previous-model views
  (all 2N rows).
* distillation term ``pnr_l2``: the anchor is the predictor output
  ``gA_t[i]``, the positive is ``zA_prev[i]``; negatives N2(i) = both
  previous-model views (all 2N rows, the positive included), plus
  pseudo-negatives PN2(i) = both current views minus ``zA_t[i]``.

These two denominators range over the identical 4N-1 embeddings. In MoCo
mode a queue of past current-model keys joins the current-model block
(N1 and PN2) and a queue of past frozen-model keys joins the
previous-model block (PN1 and N2).

Regimes: ``pnr`` keeps all sets, ``cassle`` empties the pseudo-negative
blocks, ``ft`` keeps only the plasticity loss with its original negatives.
The final objective averages the (A, B) and (B, A) orderings.

Non-contrastive side
--------------------
The native loss (BYOL / VICReg / Barlow Twins) runs on the current views;
the regularizer distills toward ``zA_prev`` through the predictor while
pushing away from the cross-view pseudo-negative ``zB_prev``:
``distill(g(zA_t), zA_prev) - lambda * repel(g(zA_t), zB_prev)``.

Gradients are returned only for current-model embeddings; previous-model
and target-network inputs are frozen by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BatchTooSmall,
    EmptyBatch,
    MissingPredictorOutput,
    MissingTargetOutput,
    NormViolation,
    ShapeMismatch,
    ZeroVarianceColumn,
)
from .numerics import logsumexp_rows, row_norms

DEFAULT_TAU = 0.2

# VICReg internals (the usual published defaults; the loss form keeps them
# configurable).
VICREG_SIM = 25.0
VICREG_VAR = 25.0
VICREG_COV = 1.0
VICREG_GAMMA = 1.0
VICREG_EPS = 1e-4

BARLOW_LAMBDA = 5e-3

DEFAULT_LAMBDA_CASSLE = 25.0
DEFAULT_LAMBDA_PNR = {"byol": 0.5, "vicreg": 23.0, "barlow": 1.0}


class Method(str, enum.Enum):
    SIMCLR = "simclr"
    MOCO = "moco"
    BYOL = "byol"
    VICREG = "vicreg"
    BARLOW = "barlow"


class Regime(str, enum.Enum):
    FT = "ft"
    CASSLE = "cassle"
    PNR = "pnr"


CONTRASTIVE_METHODS = (Method.SIMCLR, Method.MOCO)


@dataclass
class PnrConfig:
    """Loss configuration; lambda defaults follow the per-method table."""

    method: Method = Method.SIMCLR
    regime: Regime = Regime.PNR
    tau: float = DEFAULT_TAU
    lambda_pnr: float | None = None
    lambda_cassle: float = DEFAULT_LAMBDA_CASSLE
    vicreg_sim: float = VICREG_SIM
    vicreg_var: float = VICREG_VAR
    vicreg_cov: float = VICREG_COV
    vicreg_gamma: float = VICREG_GAMMA
    vicreg_eps: float = VICREG_EPS
    barlow_lambda: float = BARLOW_LAMBDA
    # Diagnostic knob: force-empty pseudo-negative blocks while keeping the
    # PNR code path. PNR with this set reproduces CaSSLe bit for bit.
    include_pseudo_negatives: bool = True

    def __post_init__(self):
        self.method = Method(self.method)
        self.regime = Regime(self.regime)
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lambda_pnr is None:
            self.lambda_pnr = DEFAULT_LAMBDA_PNR.get(self.method.value, 0.0)
        for name in ("lambda_pnr", "lambda_cassle"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class LossResult:
    """Scalar loss plus gradients w.r.t. current-model embeddings only.

    A ``None`` gradient means no gradient flows to that input at all
    (previous-model embeddings never get a slot here by construction).
    """

    value: float
    grad_zA_t: np.ndarray | None = None
    grad_zB_t: np.ndarray | None = None
    grad_gA_t: np.ndarray | None = None
    grad_gB_t: np.ndarray | None = None


def _acc(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _scale(a: np.ndarray | None, s: float) -> np.ndarray | None:
    return None if a is None else a * s


def _combine(results: list[tuple[LossResult, float]]) -> LossResult:
    value = 0.0
    gza = gzb = gga = ggb = None
    for r, s in results:
        value += s * r.value
        gza = _acc(gza, _scale(r.grad_zA_t, s))
        gzb = _acc(gzb, _scale(r.grad_zB_t, s))
        gga = _acc(gga, _scale(r.grad_gA_t, s))
        ggb = _acc(ggb, _scale(r.grad_gB_t, s))
    return LossResult(value, gza, gzb, gga, ggb)


def _swap_back(r: LossResult) -> LossResult:
    """Map gradients computed on swapped views back to the original labels."""
    return LossResult(r.value, grad_zA_t=r.grad_zB_t, grad_zB_t=r.grad_zA_t,
                      grad_gA_t=r.grad_gB_t, grad_gB_t=r.grad_gA_t)


@dataclass
class ContrastiveViews:
    """One training step's embeddings, batch-stacked (rows are samples).

    ``zA_t``/``zB_t``: current model, two augmentations. ``zA_prev``/
    ``zB_prev``: frozen previous-task model. ``gA_t``/``gB_t``: predictor
    outputs. ``zA_target``/``zB_target``: EMA target projections (BYOL only).
    ``extra_neg_cur``/``extra_neg_prev``: queue snapshots of past
    current-model and past previous-model keys (MoCo only).
    """

    zA_t: np.ndarray
    zB_t: np.ndarray
    zA_prev: np.ndarray
    zB_prev: np.ndarray
    gA_t: np.ndarray | None = None
    gB_t: np.ndarray | None = None
    zA_target: np.ndarray | None = None
    zB_target: np.ndarray | None = None
    extra_neg_cur: np.ndarray | None = None
    extra_neg_prev: np.ndarray | None = None

    def __post_init__(self):
        n, d = self.zA_t.shape
        for name in ("zB_t", "zA_prev", "zB_prev"):
            m = getattr(self, name)
            if m.shape != (n, d):
                raise ShapeMismatch(f"{name}: {m.shape} != {(n, d)}")
        for name in ("gA_t", "gB_t", "zA_target", "zB_target"):
            m = getattr(self, name)
            if m is not None and m.shape != (n, d):
                raise ShapeMismatch(f"{name}: {m.shape} != {(n, d)}")
        for name in ("extra_neg_cur", "extra_neg_prev"):
            m = getattr(self, name)
            if m is not None and (m.ndim != 2 or m.shape[1] != d):
                raise ShapeMismatch(f"{name}: {m.shape} incompatible with dim {d}")

    @property
    def batch_size(self) -> int:
        return self.zA_t.shape[0]

    @property
    def dim(self) -> int:
        return self.zA_t.shape[1]

    def validate_norms(self, tol: float = 1e-9) -> None:
        """Check every present row is unit-norm within ``tol``."""
        for name in ("zA_t", "zB_t", "zA_prev", "zB_prev", "gA_t", "gB_t",
                     "zA_target", "zB_target", "extra_neg_cur", "extra_neg_prev"):
            m = getattr(self, name)
            if m is None or m.shape[0] == 0:
                continue
            dev = float(np.max(np.abs(row_norms(m) - 1.0)))
            if dev > tol:
                raise NormViolation(f"{name}: row norm off unit by {dev:.3e}")

    def swapped(self) -> "ContrastiveViews":
        """Relabel the two augmentations (A <-> B); queues are shared."""
        return ContrastiveViews(
            zA_t=self.zB_t, zB_t=self.zA_t,
            zA_prev=self.zB_prev, zB_prev=self.zA_prev,
            gA_t=self.gB_t, gB_t=self.gA_t,
            zA_target=self.zB_target, zB_target=self.zA_target,
            extra_neg_cur=self.extra_neg_cur,
            extra_neg_prev=self.extra_neg_prev,
        )


def _empty_block(d: int) -> np.ndarray:
    return np.zeros((0, d))


def _pools(v: ContrastiveViews, include_cur: bool, include_prev: bool
           ) -> tuple[np.ndarray, np.ndarray]:
    """Negative pools in the frozen summation order:
    current block [zA_t; zB_t; cur queue], previous block
    [zA_prev; zB_prev; prev queue]. Either block may be empty."""
    d = v.dim
    if include_cur:
        cur_parts = [v.zA_t, v.zB_t]
        if v.extra_neg_cur is not None and v.extra_neg_cur.shape[0]:
            cur_parts.append(v.extra_neg_cur)
        cur = np.concatenate(cur_parts, axis=0)
    else:
        cur = _empty_block(d)
    if include_prev:
        prev_parts = [v.zA_prev, v.zB_prev]
        if v.extra_neg_prev is not None and v.extra_neg_prev.shape[0]:
            prev_parts.append(v.extra_neg_prev)
        prev = np.concatenate(prev_parts, axis=0)
    else:
        prev = _empty_block(d)
    return cur, prev


def _info_nce(anchors: np.ndarray, cur: np.ndarray, prev: np.ndarray,
              pos_col: np.ndarray, mask_anchor_col: bool, tau: float
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """Shared InfoNCE kernel over the pool [cur; prev].

    Per anchor i the loss is logsumexp(logits_i - logits_i[pos_col[i]]) with
    the anchor's own current-model column (column i) removed when
    ``mask_anchor_col``. Shifting by the positive logit drawn from the same
    logits matrix keeps uniform-similarity inputs exactly at
    log(pool cardinality). Returns (mean loss, softmax probabilities with
    masked columns at zero, pool matrix).
    """
    n = anchors.shape[0]
    if n == 0:
        raise EmptyBatch("contrastive loss on empty batch")
    pool = np.concatenate([cur, prev], axis=0)
    if pool.shape[0] == 0:
        raise EmptyBatch("empty negative pool")
    logits = anchors @ pool.T / tau
    if mask_anchor_col:
        logits[np.arange(n), np.arange(n)] = -np.inf
    pos = logits[np.arange(n), pos_col]
    shifted = logits - pos[:, None]
    per_anchor = logsumexp_rows(shifted)
    probs = np.exp(shifted - per_anchor[:, None])
    return float(np.mean(per_anchor)), probs, pool


def pnr_l1(v: ContrastiveViews, tau: float = DEFAULT_TAU, *,
           include_pn: bool = True, norm_tol: float | None = 1e-9) -> LossResult:
    """Plasticity InfoNCE with previous-model pseudo-negatives.

    ``include_pn=False`` drops the pseudo-negative block, which is exactly
    the CaSSLe / plain-SimCLR plasticity loss (and the FT objective).
    ``norm_tol=None`` skips the unit-norm precondition so finite-difference
    probes can evaluate at perturbed points.
    """
    if norm_tol is not None:
        v.validate_norms(norm_tol)
    n = v.batch_size
    cur, prev = _pools(v, include_cur=True, include_prev=include_pn)
    pos_col = n + np.arange(n)  # zB_t block starts at column n
    value, probs, pool = _info_nce(v.zA_t, cur, prev, pos_col, True, tau)
    inv = 1.0 / (n * tau)
    grad_zA = (probs @ pool - v.zB_t + probs[:, :n].T @ v.zA_t) * inv
    grad_zB = (probs[:, n:2 * n].T @ v.zA_t - v.zA_t) * inv
    return LossResult(value, grad_zA_t=grad_zA, grad_zB_t=grad_zB)


def pnr_l2(v: ContrastiveViews, tau: float = DEFAULT_TAU, *,
           include_pn: bool = True, norm_tol: float | None = 1e-9) -> LossResult:
    """Contrastive distillation with current-model pseudo-negatives.

    The anchor is the predictor output g(zA_t); the positive is the frozen
    zA_prev. Gradients flow through gA_t and through zA_t/zB_t where they
    appear as pseudo-negatives, never through the frozen block.
    """
    if v.gA_t is None:
        raise MissingPredictorOutput("pnr_l2 needs predictor outputs gA_t")
    if norm_tol is not None:
        v.validate_norms(norm_tol)
    n = v.batch_size
    cur, prev = _pools(v, include_cur=include_pn, include_prev=True)
    n_cur = cur.shape[0]
    pos_col = n_cur + np.arange(n)  # zA_prev block leads the previous pool
    value, probs, pool = _info_nce(v.gA_t, cur, prev, pos_col, include_pn, tau)
    inv = 1.0 / (n * tau)
    grad_gA = (probs @ pool - v.zA_prev) * inv
    grad_zA = grad_zB = None
    if include_pn:
        grad_zA = (probs[:, :n].T @ v.gA_t) * inv
        grad_zB = (probs[:, n:2 * n].T @ v.gA_t) * inv
    return LossResult(value, grad_zA_t=grad_zA, grad_zB_t=grad_zB,
                      grad_gA_t=grad_gA)


def _contrastive_one_ordering(v: ContrastiveViews, cfg: PnrConfig,
                              norm_tol: float | None) -> LossResult:
    include_pn = (cfg.regime == Regime.PNR) and cfg.include_pseudo_negatives
    parts = [(pnr_l1(v, cfg.tau, include_pn=include_pn, norm_tol=norm_tol), 1.0)]
    if cfg.regime != Regime.FT:
        parts.append(
            (pnr_l2(v, cfg.tau, include_pn=include_pn, norm_tol=norm_tol), 1.0))
    return _combine(parts)


def cssl_total(v: ContrastiveViews, cfg: PnrConfig, *,
               norm_tol: float | None = 1e-9) -> LossResult:
    """Symmetrized contrastive objective: (L(A,B) + L(B,A)) / 2.

    L is pnr_l1 + pnr_l2 in regime ``pnr``; CaSSLe empties the
    pseudo-negative blocks; FT keeps only pnr_l1 without them.
    """
    ab = _contrastive_one_ordering(v, cfg, norm_tol)
    ba = _swap_back(_contrastive_one_ordering(v.swapped(), cfg, norm_tol))
    return _combine([(ab, 0.5), (ba, 0.5)])


def closed_form_parts(v: ContrastiveViews, tau: float = DEFAULT_TAU
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attract/repel decomposition of the per-anchor gradient under an
    identity predictor (g(zA_t) := zA_t).

    Returns (attract, repel, mass_sums): the attract part is
    (zB_t + zA_prev)/2 per anchor; the repel part is the softmax-weighted
    center of mass of the two negative pools, whose masses S1 + S2 sum to 1
    per anchor (returned for verification). With the identity predictor the
    plasticity and distillation denominators coincide, so S1 and S2 are each
    half of the same softmax.
    """
    n = v.batch_size
    if n == 0:
        raise EmptyBatch("closed form on empty batch")
    cur, prev = _pools(v, include_cur=True, include_prev=True)
    pool = np.concatenate([cur, prev], axis=0)
    logits = v.zA_t @ pool.T / tau
    logits[np.arange(n), np.arange(n)] = -np.inf
    lse = logsumexp_rows(logits)
    probs = np.exp(logits - lse[:, None])
    s1 = 0.5 * probs
    s2 = 0.5 * probs
    attract = 0.5 * (v.zB_t + v.zA_prev)
    repel = s1 @ pool + s2 @ pool
    mass_sums = s1.sum(axis=1) + s2.sum(axis=1)
    return attract, repel, mass_sums


def closed_form_grad(v: ContrastiveViews, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Per-anchor gradient of half the combined plasticity+distillation loss
    with respect to the anchor zA_t, assuming an identity predictor:
    (repel - attract) / tau. The softmax mass identity is checked internally.
    """
    attract, repel, mass = closed_form_parts(v, tau)
    if float(np.max(np.abs(mass - 1.0))) > 1e-9:
        raise NormViolation("softmax masses failed to sum to 1")
    return (repel - attract) / tau


# --- non-contrastive losses --------------------------------------------------


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{what}: {a.shape} vs {b.shape}")


def byol_loss(online_pred: np.ndarray, target_proj: np.ndarray) -> LossResult:
    """Mean squared L2 distance between rows; gradient w.r.t. the online
    predictions only (returned in the gA_t slot)."""
    _check_same_shape(online_pred, target_proj, "byol_loss")
    n = online_pred.shape[0]
    if n == 0:
        raise EmptyBatch("byol_loss on empty batch")
    diff = online_pred - target_proj
    value = float(np.sum(diff * diff) / n)
    return LossResult(value, grad_gA_t=2.0 * diff / n)


def byol_pnr_l2(gA_t: np.ndarray, zA_prev: np.ndarray, zB_prev: np.ndarray,
                lambda_pnr: float) -> LossResult:
    """Distill toward the previous model's same-view output while repelling
    from its cross-view output: mean||g - zA_prev||^2 -
    lambda * mean||g - zB_prev||^2. Gradient w.r.t. g only.

    lambda == 0 skips the repel term entirely, so the CaSSLe reduction is
    bitwise, not just numerically close.
    """
    _check_same_shape(gA_t, zA_prev, "byol_pnr_l2")
    _check_same_shape(gA_t, zB_prev, "byol_pnr_l2")
    if lambda_pnr < 0:
        raise ValueError("lambda_pnr must be non-negative")
    n = gA_t.shape[0]
    if n == 0:
        raise EmptyBatch("byol_pnr_l2 on empty batch")
    d_pos = gA_t - zA_prev
    value = float(np.sum(d_pos * d_pos) / n)
    grad = 2.0 * d_pos / n
    if lambda_pnr > 0:
        d_neg = gA_t - zB_prev
        value -= lambda_pnr * float(np.sum(d_neg * d_neg) / n)
        grad = grad - lambda_pnr * (2.0 * d_neg / n)
    return LossResult(value, grad_gA_t=grad)


def _mean_sq_dist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.sum(d * d) / a.shape[0])


def _variance_hinge(z: np.ndarray, gamma: float, eps: float
                    ) -> tuple[float, np.ndarray]:
    n, d = z.shape
    mu = z.mean(axis=0)
    centered = z - mu
    var = np.sum(centered * centered, axis=0) / (n - 1)
    sd = np.sqrt(var + eps)
    gap = gamma - sd
    active = gap > 0
    value = float(np.sum(np.maximum(gap, 0.0)) / d)
    # sd == 0 only for a constant column with eps == 0; its subgradient is 0
    safe_sd = np.where(sd > 0, sd, 1.0)
    grad = np.where((active & (sd > 0))[None, :],
                    -centered / (safe_sd[None, :] * (d * (n - 1))), 0.0)
    return value, grad


def _covariance_penalty(z: np.ndarray) -> tuple[float, np.ndarray]:
    n, d = z.shape
    centered = z - z.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    off = cov - np.diag(np.diag(cov))
    value = float(np.sum(off * off) / d)
    grad = centered @ off * (4.0 / (d * (n - 1)))
    return value, grad


def vicreg_loss(zA: np.ndarray, zB: np.ndarray,
                lam: float = VICREG_SIM, mu: float = VICREG_VAR,
                nu: float = VICREG_COV, gamma: float = VICREG_GAMMA,
                eps: float = VICREG_EPS) -> LossResult:
    """Invariance + variance hinge + covariance penalty on raw projections.

    Variance uses the unbiased (N-1) estimator; the hinge subgradient is zero
    where sqrt(var + eps) >= gamma. Gradients w.r.t. both views (both come
    from the current model).
    """
    _check_same_shape(zA, zB, "vicreg_loss")
    n = zA.shape[0]
    if n < 2:
        raise BatchTooSmall("vicreg_loss needs at least 2 samples")
    s = _mean_sq_dist(zA, zB)
    vA, gvA = _variance_hinge(zA, gamma, eps)
    vB, gvB = _variance_hinge(zB, gamma, eps)
    cA, gcA = _covariance_penalty(zA)
    cB, gcB = _covariance_penalty(zB)
    value = lam * s + mu * (vA + vB) + nu * (cA + cB)
    ds = 2.0 * (zA - zB) / n
    grad_a = lam * ds + mu * gvA + nu * gcA
    grad_b = -lam * ds + mu * gvB + nu * gcB
    return LossResult(float(value), grad_zA_t=grad_a, grad_zB_t=grad_b)


def vicreg_pnr_l2(gA_t: np.ndarray, zA_prev: np.ndarray, zB_prev: np.ndarray,
                  lambda_cassle: float, lambda_pnr: float) -> LossResult:
    """0.5*lambda_cassle*s(g, zA_prev) - 0.5*lambda_pnr*s(g, zB_prev) where s
    is the mean squared distance. Gradient w.r.t. g only; lambda_pnr == 0
    skips the repel branch for a bitwise CaSSLe reduction."""
    _check_same_shape(gA_t, zA_prev, "vicreg_pnr_l2")
    _check_same_shape(gA_t, zB_prev, "vicreg_pnr_l2")
    n = gA_t.shape[0]
    if n == 0:
        raise EmptyBatch("vicreg_pnr_l2 on empty batch")
    value = 0.5 * lambda_cassle * _mean_sq_dist(gA_t, zA_prev)
    grad = lambda_cassle * (gA_t - zA_prev) / n
    if lambda_pnr > 0:
        value -= 0.5 * lambda_pnr * _mean_sq_dist(gA_t, zB_prev)
        grad = grad - lambda_pnr * (gA_t - zB_prev) / n
    return LossResult(float(value), grad_gA_t=grad)


def _standardize_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Population (1/N) column standardization; integer-valued designs with
    exact unit variance standardize without rounding, which the analytic-zero
    checks rely on."""
    n = z.shape[0]
    mu = z.mean(axis=0)
    centered = z - mu
    sd = np.sqrt(np.sum(centered * centered, axis=0) / n)
    if float(np.min(sd)) <= 1e-12:
        raise ZeroVarianceColumn(
            f"column {int(np.argmin(sd))} has (near-)zero variance")
    return centered / sd, centered, sd


def _standardize_backward(grad_tilde: np.ndarray, tilde: np.ndarray,
                          sd: np.ndarray) -> np.ndarray:
    n = tilde.shape[0]
    g_mean = grad_tilde.mean(axis=0)
    proj = np.sum(grad_tilde * tilde, axis=0) / n
    return (grad_tilde - g_mean - tilde * proj[None, :]) / sd[None, :]


def _barlow_core(zA: np.ndarray, zB: np.ndarray, lambda_bt: float
                 ) -> tuple[float, np.ndarray, np.ndarray]:
    _check_same_shape(zA, zB, "barlow_loss")
    n, d = zA.shape
    if n < 2:
        raise BatchTooSmall("barlow_loss needs at least 2 samples")
    ta, ca, sda = _standardize_columns(zA)
    tb, cb, sdb = _standardize_columns(zB)
    corr = ta.T @ tb / n
    diag = np.diag(corr)
    off = corr - np.diag(diag)
    value = float(np.sum((1.0 - diag) ** 2) + lambda_bt * np.sum(off * off))
    dcorr = 2.0 * lambda_bt * off
    np.fill_diagonal(dcorr, 2.0 * (diag - 1.0))
    grad_ta = tb @ dcorr.T / n
    grad_tb = ta @ dcorr / n
    grad_a = _standardize_backward(grad_ta, ta, sda)
    grad_b = _standardize_backward(grad_tb, tb, sdb)
    return value, grad_a, grad_b


def barlow_loss(zA: np.ndarray, zB: np.ndarray,
                lambda_bt: float = BARLOW_LAMBDA) -> LossResult:
    """Cross-correlation identity objective: sum (1 - C_dd)^2 +
    lambda * sum_{d != d'} C_dd'^2 over column-standardized views."""
    value, grad_a, grad_b = _barlow_core(zA, zB, lambda_bt)
    return LossResult(value, grad_zA_t=grad_a, grad_zB_t=grad_b)


def barlow_pnr_l2(gA_t: np.ndarray, zA_prev: np.ndarray, zB_prev: np.ndarray,
                  lambda_bt: float, lambda_pnr: float) -> LossResult:
    """Barlow distillation toward the frozen same-view projection minus the
    generic squared-distance repel from the cross-view pseudo-negative."""
    _check_same_shape(gA_t, zB_prev, "barlow_pnr_l2")
    value, grad, _ = _barlow_core(gA_t, zA_prev, lambda_bt)
    if lambda_pnr > 0:
        n = gA_t.shape[0]
        d_neg = gA_t - zB_prev
        value -= lambda_pnr * float(np.sum(d_neg * d_neg) / n)
        grad = grad - lambda_pnr * (2.0 * d_neg / n)
    return LossResult(value, grad_gA_t=grad)


def _noncontrastive_one_ordering(v: ContrastiveViews, cfg: PnrConfig
                                 ) -> LossResult:
    method = cfg.method
    lam = cfg.lambda_pnr if cfg.regime == Regime.PNR else 0.0
    parts: list[tuple[LossResult, float]] = []
    if method == Method.BYOL:
        if v.gA_t is None:
            raise MissingPredictorOutput("BYOL needs predictor outputs")
        if v.zB_target is None:
            raise MissingTargetOutput("BYOL needs EMA target projections")
        parts.append((byol_loss(v.gA_t, v.zB_target), 1.0))
        if cfg.regime != Regime.FT:
            parts.append((byol_pnr_l2(v.gA_t, v.zA_prev, v.zB_prev, lam), 1.0))
    elif method == Method.VICREG:
        parts.append((vicreg_loss(v.zA_t, v.zB_t, cfg.vicreg_sim, cfg.vicreg_var,
                                  cfg.vicreg_cov, cfg.vicreg_gamma,
                                  cfg.vicreg_eps), 1.0))
        if cfg.regime != Regime.FT:
            if v.gA_t is None:
                raise MissingPredictorOutput("VICReg distillation needs g outputs")
            parts.append((vicreg_pnr_l2(v.gA_t, v.zA_prev, v.zB_prev,
                                        cfg.lambda_cassle, lam), 1.0))
    elif method == Method.BARLOW:
        parts.append((barlow_loss(v.zA_t, v.zB_t, cfg.barlow_lambda), 1.0))
        if cfg.regime != Regime.FT:
            if v.gA_t is None:
                raise MissingPredictorOutput("Barlow distillation needs g outputs")
            parts.append((barlow_pnr_l2(v.gA_t, v.zA_prev, v.zB_prev,
                                        cfg.barlow_lambda, lam), 1.0))
    else:
        raise ValueError(f"{method} is not a non-contrastive method")
    return _combine(parts)


def noncontrastive_pnr_total(method: Method | str, v: ContrastiveViews,
                             cfg: PnrConfig) -> LossResult:
    """Symmetrized non-contrastive objective for BYOL / VICReg / Barlow.

    Regime ``ft`` keeps only the native loss; ``cassle`` adds distillation;
    ``pnr`` additionally repels from the cross-view previous-model output.
    """
    method = Method(method)
    if method in CONTRASTIVE_METHODS:
        raise ValueError(f"{method} is contrastive; use cssl_total")
    if cfg.method != method:
        cfg = replace(cfg, method=method)
    ab = _noncontrastive_one_ordering(v, cfg)
    ba = _swap_back(_noncontrastive_one_ordering(v.swapped(), cfg))
    return _combine([(ab, 0.5), (ba, 0.5)])


def total_loss(v: ContrastiveViews, cfg: PnrConfig, *,
               norm_tol: float | None = 1e-9) -> LossResult:
    """Dispatch on the configured method family."""
    if cfg.method in CONTRASTIVE_METHODS:
        return cssl_total(v, cfg, norm_tol=norm_tol)
    return noncontrastive_pnr_total(cfg.method, v, cfg)
