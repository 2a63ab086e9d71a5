"""Every training objective and its analytic embedding-space gradients.

A step encodes N samples under two augmentations as one batch of 2N rows:
rows [:N] are view A, rows [N:] view B, and row i's partner (the other view
of the same sample) is row (i + N) mod 2N. Every input of the losses is
stacked this way (see :class:`ContrastiveViews`).

Contrastive side
----------------
The current model emits ``z`` (and predictor outputs ``g``); the frozen
previous-task model emits ``z_prev``. Each of the 2N rows is an anchor once
in each of two InfoNCE terms over the same pool [z; z_prev]:

* plasticity term: anchor z[i], positive its partner; negatives N1(i) = the
  other 2N-1 current rows (the positive included), plus pseudo-negatives
  PN1(i) = all 2N previous-model rows.
* distillation term: the anchor is the predictor output g[i], the positive
  is z_prev[i]; negatives N2(i) = all 2N previous-model rows (the positive
  included), plus pseudo-negatives PN2(i) = the current rows minus z[i].

These two denominators range over the identical 4N-1 embeddings. In MoCo
mode a queue of past current-model keys joins the current-model block (N1
and PN2) and a queue of past frozen-model keys joins the previous-model
block (PN1 and N2): the pool is [z; queue_cur; z_prev; queue_prev].

:func:`cssl_total` computes both as one InfoNCE: anchors [z; g], one
logits matrix, one softmax. Each regime is a set of masked cells: ``pnr``
masks the anchors' own rows, ``cassle`` also the pseudo-negative blocks;
``ft`` keeps only the plasticity term, without them. The mean over 2N
anchors is the average of the (A, B) and (B, A) orderings, as in SimCLR's
NT-Xent (Chen et al. 2020).

The anchors x pool matrix is the largest object of a step (2m x 2304 with
MoCo's 1024-row queues), so it gets only the gemm, a row max, one
subtraction, one ``exp`` and a row sum. The temperature scales the anchors
before the gemm, the positive logit is read out instead of subtracted, and
the softmax's row sums divide the small products of the gradient after
their gemms, never the matrix itself.

Non-contrastive side
--------------------
The native loss (BYOL / VICReg / Barlow Twins) runs on the current views;
one regularizer for all three, :func:`pnr_regularizer`, distills each
predictor output toward its own row of ``z_prev`` (CaSSLe's term) and, in
regime ``pnr``, pushes it away from the cross-view pseudo-negative, its
partner's row: ``distill(g, z_prev) - w * mean||g - partner(z_prev)||^2``.

Gradients are returned only for current-model embeddings; previous-model
and target-network inputs are frozen by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CsslError, DivergenceDetected
from .numerics import check_unit_rows, logsumexp_rows

# VICReg's hinge target and epsilon, which Bardes et al. 2022 fix.
VICREG_GAMMA = 1.0
VICREG_EPS = 1e-4


class Choice(str, enum.Enum):
    """A str enum of config choices; an unknown value raises CsslError
    listing the choices."""

    @classmethod
    def _missing_(cls, value):
        raise CsslError(f"{value!r} is not one of "
                        f"{' | '.join(m.value for m in cls)}")


class Method(Choice):
    SIMCLR = "simclr"
    MOCO = "moco"
    BYOL = "byol"
    VICREG = "vicreg"
    BARLOW = "barlow"


class Regime(Choice):
    FT = "ft"
    CASSLE = "cassle"
    PNR = "pnr"


DEFAULT_LAMBDA_PNR = {Method.BYOL: 0.5, Method.VICREG: 23.0,
                      Method.BARLOW: 1.0}


CONTRASTIVE_METHODS = (Method.SIMCLR, Method.MOCO)


@dataclass
class PnrConfig:
    """Loss configuration; ``lambda_pnr`` defaults follow the per-method
    table. VICReg's term weights are the usual published defaults."""

    method: Method = Method.SIMCLR
    regime: Regime = Regime.PNR
    tau: float = 0.2
    lambda_pnr: float | None = None
    lambda_cassle: float = 25.0
    vicreg_sim: float = 25.0
    vicreg_var: float = 25.0
    vicreg_cov: float = 1.0
    barlow_lambda: float = 5e-3

    def __post_init__(self):
        self.method = Method(self.method)
        self.regime = Regime(self.regime)
        if self.tau <= 0:
            raise CsslError("tau must be positive")
        if self.lambda_pnr is None:
            self.lambda_pnr = DEFAULT_LAMBDA_PNR.get(self.method, 0.0)
        for name in ("lambda_pnr", "lambda_cassle"):
            if getattr(self, name) < 0:
                raise CsslError(f"{name} must be non-negative")


@dataclass
class LossResult:
    """Scalar loss plus gradients w.r.t. the current-model inputs ``z`` and
    ``g`` of :class:`ContrastiveViews`, stacked like them.

    A ``None`` gradient means no gradient flows to that input at all
    (frozen and target inputs never get a slot here by construction).
    """

    value: float
    grad_z: np.ndarray | None = None
    grad_g: np.ndarray | None = None


def partner(m: np.ndarray) -> np.ndarray:
    """Rows of a two-view batch reordered so that row i holds row
    (i + N) mod 2N: the other view of the same sample."""
    return np.roll(m, m.shape[0] // 2, axis=0)


@dataclass
class ContrastiveViews:
    """One training step's embeddings. Every field but the queues is a
    (2N, D) batch: view A's rows, then view B's in the same sample order.

    ``z``: current-model projections. ``z_prev``: frozen previous-task model
    (``None`` in regime ``ft``, which never reads it). ``g``: predictor
    outputs. ``z_target``: EMA target projections (BYOL only).
    ``queue_cur``/``queue_prev``: queue snapshots of past current-model and
    past previous-model keys (MoCo only).
    """

    z: np.ndarray
    z_prev: np.ndarray | None = None
    g: np.ndarray | None = None
    z_target: np.ndarray | None = None
    queue_cur: np.ndarray | None = None
    queue_prev: np.ndarray | None = None

    def __post_init__(self):
        m, d = self.z.shape
        if m % 2:
            raise CsslError(f"z: {m} rows do not stack two views")
        for name in ("z_prev", "g", "z_target"):
            a = getattr(self, name)
            if a is not None and a.shape != (m, d):
                raise CsslError(f"{name}: {a.shape} != {(m, d)}")
        for name in ("queue_cur", "queue_prev"):
            a = getattr(self, name)
            if a is not None and (a.ndim != 2 or a.shape[1] != d):
                raise CsslError(f"{name}: {a.shape} incompatible with dim {d}")

    @property
    def batch_size(self) -> int:
        """N, the number of samples: half the rows."""
        return self.z.shape[0] // 2

    def validate_norms(self) -> None:
        """Check every present row is unit-norm (see :func:`check_unit_rows`)."""
        for name in ("z", "z_prev", "g", "z_target", "queue_cur", "queue_prev"):
            m = getattr(self, name)
            if m is not None:
                check_unit_rows(m, name)


def _keys(v: ContrastiveViews, frozen: bool) -> tuple[np.ndarray, int]:
    """The pool every anchor is scored against, in the frozen summation
    order [z; queue_cur; z_prev; queue_prev] (the frozen block only when
    ``frozen``), and c, the row where its frozen block starts."""
    cur = [b for b in (v.z, v.queue_cur) if b is not None]
    prev = [b for b in (v.z_prev, v.queue_prev) if frozen and b is not None]
    return np.concatenate(cur + prev), sum(b.shape[0] for b in cur)


def _info_nce(anchors: np.ndarray, pool: np.ndarray, pos_col: np.ndarray,
              m: int, tau: float, mask_pn_at: int | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-anchor InfoNCE losses logsumexp(logits_i) - logits_i[pos_col[i]]
    for anchors stacked as m z rows, then any g rows, with the unnormalized
    softmax: returns (losses, e, total), where e / total[:, None] is the
    softmax.

    The logits are (anchors / tau) @ pool.T, so the division touches the
    anchors, not the anchors x pool matrix. Anchor i never sees its own
    current row, column i mod m. With ``mask_pn_at`` = c, the z anchors also
    lose the frozen block (columns c:) and the g anchors the current block
    (:c): CaSSLe's masks. The positive logit is read before the softmax
    overwrites the logits (see :func:`logsumexp_rows`), so one anchors x
    pool matrix is alive. A row's loss is log(total) + (max - positive):
    with uniform similarity the max is the positive, which keeps the loss
    exactly at log(pool cardinality).
    """
    rows = np.arange(anchors.shape[0])
    logits = (anchors / tau) @ pool.T
    logits[rows, rows % m] = -np.inf
    if mask_pn_at is not None:
        logits[:m, mask_pn_at:] = -np.inf
        logits[m:, :mask_pn_at] = -np.inf
    pos = logits[rows, pos_col]
    mx, total = logsumexp_rows(logits)
    return np.log(total) + (mx - pos), logits, total


def cssl_total(v: ContrastiveViews, cfg: PnrConfig, *,
               check_norms: bool = True) -> LossResult:
    """The contrastive objective over both views: the mean InfoNCE of the
    m = 2N anchors z (positive: the partner row) plus, unless the regime is
    ``ft``, that of the m anchors g (positive: z_prev[i], column c + i).
    Unit norms are validated once, here; ``check_norms=False`` skips that
    so finite-difference probes can evaluate at perturbed points.

    The softmax is never formed: its row sums divide the small products of
    the unnormalized softmax (e @ pool, and the anchors that e[:, :m].T
    weights), not the anchors x pool matrix.
    """
    if check_norms:
        v.validate_norms()
    m = v.z.shape[0]
    if m == 0:
        raise CsslError("contrastive loss on empty batch")
    ft = cfg.regime == Regime.FT
    if not ft and v.g is None:
        raise CsslError("distillation needs predictor outputs g")
    if not ft and v.z_prev is None:
        raise CsslError("distillation needs z_prev")
    pool, c = _keys(v, frozen=not ft)
    rows = np.arange(m)
    anchors, pos_col = ((v.z, partner(rows)) if ft else
                        (np.concatenate([v.z, v.g]),
                         np.concatenate([partner(rows), c + rows])))
    per_anchor, e, total = _info_nce(anchors, pool, pos_col, m, cfg.tau,
                                     None if cfg.regime == Regime.PNR else c)
    # Row i is an anchor (positive: its partner), the positive of its
    # partner, and, as a pool column, weighted by every anchor's softmax.
    inv = 1.0 / (m * cfg.tau)
    repel = (e @ pool) / total[:, None]
    grad_z = (repel[:m] + e[:, :m].T @ (anchors / total[:, None])
              - 2.0 * partner(v.z)) * inv
    if ft:
        return LossResult(float(np.mean(per_anchor)), grad_z=grad_z)
    return LossResult(
        float(np.mean(per_anchor[:m])) + float(np.mean(per_anchor[m:])),
        grad_z=grad_z, grad_g=(repel[m:] - v.z_prev) * inv)


def closed_form_parts(v: ContrastiveViews, tau: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attract/repel decomposition of the view-A anchors' gradient under an
    identity predictor (g := z).

    Returns (attract, repel, mass_sums) for the anchors z[:N]: the attract
    part is (z[N:] + z_prev[:N])/2 per anchor; the repel part is the
    softmax-weighted center of mass of the shared pool, whose mass sums to 1
    per anchor (returned for verification). The softmax is formed here
    explicitly, e / total, so that its row sums carry the rounding of the
    division and the check tests something. With the identity predictor the
    plasticity and distillation denominators coincide, so each term carries
    half of the same softmax.
    """
    n = v.batch_size
    pool, _ = _keys(v, frozen=True)
    _, e, total = _info_nce(v.z[:n], pool, n + np.arange(n), n, tau)
    probs = e / total[:, None]
    attract = 0.5 * (v.z[n:] + v.z_prev[:n])
    return attract, probs @ pool, probs.sum(axis=1)


def closed_form_grad(v: ContrastiveViews, tau: float) -> np.ndarray:
    """Per-anchor gradient of half the combined plasticity+distillation loss
    of the (A, B) ordering with respect to the anchors z[:N], assuming an
    identity predictor: (repel - attract) / tau. The softmax mass identity
    is checked internally.
    """
    attract, repel, mass = closed_form_parts(v, tau)
    if float(np.max(np.abs(mass - 1.0))) > 1e-9:
        raise CsslError("softmax masses failed to sum to 1")
    return (repel - attract) / tau


# --- non-contrastive losses --------------------------------------------------


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise CsslError(f"{what}: {a.shape} vs {b.shape}")


def _sq_dist(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over rows of ||a_i - b_i||^2 and its gradient w.r.t. ``a``."""
    n = a.shape[0]
    d = a - b
    return float(np.sum(d * d) / n), 2.0 * d / n


def byol_loss(online_pred: np.ndarray, target_proj: np.ndarray) -> LossResult:
    """Mean squared L2 distance between rows; gradient w.r.t. the online
    predictions only (returned in the ``g`` slot)."""
    _check_same_shape(online_pred, target_proj, "byol_loss")
    if online_pred.shape[0] == 0:
        raise CsslError("byol_loss on empty batch")
    value, grad = _sq_dist(online_pred, target_proj)
    return LossResult(value, grad_g=grad)


def _variance_hinge(centered: np.ndarray) -> tuple[float, np.ndarray]:
    n, d = centered.shape
    var = np.sum(centered * centered, axis=0) / (n - 1)
    sd = np.sqrt(var + VICREG_EPS)  # >= 0.01, so the division is safe
    gap = VICREG_GAMMA - sd
    value = float(np.sum(np.maximum(gap, 0.0)) / d)
    grad = np.where((gap > 0)[None, :],
                    -centered / (sd[None, :] * (d * (n - 1))), 0.0)
    return value, grad


def _covariance_penalty(centered: np.ndarray) -> tuple[float, np.ndarray]:
    n, d = centered.shape
    cov = centered.T @ centered / (n - 1)
    off = cov - np.diag(np.diag(cov))
    value = float(np.sum(off * off) / d)
    grad = centered @ off * (4.0 / (d * (n - 1)))
    return value, grad


def vicreg_loss(zA: np.ndarray, zB: np.ndarray, lam: float, mu: float,
                nu: float) -> LossResult:
    """Invariance + variance hinge + covariance penalty on raw projections.

    Variance uses the unbiased (N-1) estimator; the hinge subgradient is zero
    where sqrt(var + VICREG_EPS) >= VICREG_GAMMA. Gradients w.r.t. both
    views (both come from the current model), stacked [zA; zB] in the ``z``
    slot.
    """
    _check_same_shape(zA, zB, "vicreg_loss")
    n = zA.shape[0]
    if n < 2:
        raise CsslError("vicreg_loss needs at least 2 samples")
    s, ds = _sq_dist(zA, zB)
    centered_a, centered_b = zA - zA.mean(axis=0), zB - zB.mean(axis=0)
    vA, gvA = _variance_hinge(centered_a)
    vB, gvB = _variance_hinge(centered_b)
    cA, gcA = _covariance_penalty(centered_a)
    cB, gcB = _covariance_penalty(centered_b)
    value = lam * s + mu * (vA + vB) + nu * (cA + cB)
    grad_a = lam * ds + mu * gvA + nu * gcA
    grad_b = -lam * ds + mu * gvB + nu * gcB
    return LossResult(float(value), grad_z=np.concatenate([grad_a, grad_b]))


def _standardize_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Population (1/N) column standardization; integer-valued designs with
    exact unit variance standardize without rounding, which the analytic-zero
    checks rely on. A (near-)constant column has no direction to standardize:
    the views have collapsed, which raises :class:`DivergenceDetected`."""
    n = z.shape[0]
    mu = z.mean(axis=0)
    centered = z - mu
    sd = np.sqrt(np.sum(centered * centered, axis=0) / n)
    if float(np.min(sd)) <= 1e-12:
        raise DivergenceDetected(
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
        raise CsslError("barlow_loss needs at least 2 samples")
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


def barlow_loss(zA: np.ndarray, zB: np.ndarray, lambda_bt: float
                ) -> LossResult:
    """Cross-correlation identity objective: sum (1 - C_dd)^2 +
    lambda * sum_{d != d'} C_dd'^2 over column-standardized views;
    gradients stacked [zA; zB] in the ``z`` slot."""
    value, grad_a, grad_b = _barlow_core(zA, zB, lambda_bt)
    return LossResult(value, grad_z=np.concatenate([grad_a, grad_b]))


def pnr_regularizer(v: ContrastiveViews, cfg: PnrConfig) -> LossResult:
    """The non-contrastive regularizer over both views, with a gradient for
    ``g`` only: distill(g, z_prev) - w * mean||g - partner(z_prev)||^2.

    The distillation is CaSSLe's (Fini et al. 2022): the mean squared
    distance for BYOL, the same scaled by 0.5 * lambda_cassle for VICReg,
    and Barlow's objective per view (it standardizes columns over one view's
    batch). The repel from the cross-view pseudo-negative is PNR's addition,
    weighted by w = lambda_pnr (0.5 * lambda_pnr for VICReg) in regime
    ``pnr``. Any other regime, or lambda_pnr == 0, skips it entirely, so
    that reduction to CaSSLe is bitwise.
    """
    if v.g is None:
        raise CsslError(f"{cfg.method.value} distillation needs g outputs")
    if v.z_prev is None:
        raise CsslError(f"{cfg.method.value} distillation needs z_prev")
    lam = cfg.lambda_pnr if cfg.regime == Regime.PNR else 0.0
    if cfg.method == Method.BARLOW:
        n = v.batch_size
        va, ga, _ = _barlow_core(v.g[:n], v.z_prev[:n], cfg.barlow_lambda)
        vb, gb, _ = _barlow_core(v.g[n:], v.z_prev[n:], cfg.barlow_lambda)
        value, grad = 0.5 * (va + vb), 0.5 * np.concatenate([ga, gb])
    else:
        value, grad = _sq_dist(v.g, v.z_prev)
        if cfg.method == Method.VICREG:
            w = 0.5 * cfg.lambda_cassle
            value, grad = w * value, w * grad
            lam *= 0.5
    if lam > 0:
        repel, grad_repel = _sq_dist(v.g, partner(v.z_prev))
        value -= lam * repel
        grad = grad - lam * grad_repel
    return LossResult(value, grad_g=grad)


def noncontrastive_pnr_total(v: ContrastiveViews, cfg: PnrConfig
                             ) -> LossResult:
    """Non-contrastive objective for BYOL / VICReg / Barlow over both views:
    the native loss, plus :func:`pnr_regularizer` unless the regime is
    ``ft``."""
    method = cfg.method
    if method in CONTRASTIVE_METHODS:
        raise CsslError(f"{method} is contrastive; use cssl_total")
    n = v.batch_size
    if method == Method.BYOL:
        if v.g is None:
            raise CsslError("BYOL needs predictor outputs")
        if v.z_target is None:
            raise CsslError("BYOL needs EMA target projections")
        native = byol_loss(v.g, partner(v.z_target))
    elif method == Method.VICREG:
        native = vicreg_loss(v.z[:n], v.z[n:], cfg.vicreg_sim, cfg.vicreg_var,
                             cfg.vicreg_cov)
    else:
        native = barlow_loss(v.z[:n], v.z[n:], cfg.barlow_lambda)
    if cfg.regime == Regime.FT:
        return native
    reg = pnr_regularizer(v, cfg)
    grad_g = (reg.grad_g if native.grad_g is None
              else native.grad_g + reg.grad_g)
    return LossResult(native.value + reg.value, native.grad_z, grad_g)


def total_loss(v: ContrastiveViews, cfg: PnrConfig, *,
               check_norms: bool = True) -> LossResult:
    """Dispatch on the configured method family."""
    if cfg.method in CONTRASTIVE_METHODS:
        return cssl_total(v, cfg, check_norms=check_norms)
    return noncontrastive_pnr_total(v, cfg)
