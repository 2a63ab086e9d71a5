"""Finite-difference verification of every analytic gradient.

Two families of checks:

* embedding-space: each loss's returned gradients against central
  differences over its live matrix inputs (previous-model inputs are frozen
  by contract and carry no returned gradient, so they are not probed here;
  a structural test asserts their absence);
* parameter-space: the full chain (inputs -> stack -> normalization ->
  loss) differentiated with respect to every stack parameter.

Plus the closed-form per-anchor gradient against the production loss path.

Probe points are drawn deterministically; configurations that land too close
to a non-smooth point (a ReLU preactivation near zero; VICReg standard
deviations near the hinge are avoided by construction) are redrawn with the
next derived seed, since central differences are only a valid oracle where
the function is differentiable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .continual import backprop_views, encode_views, frozen_embedding, on_sphere
from .errors import CsslError
from .losses import (
    ContrastiveViews,
    Method,
    PnrConfig,
    Regime,
    byol_loss,
    closed_form_grad,
    closed_form_parts,
    cssl_total,
    noncontrastive_pnr_total,
    pnr_regularizer,
    total_loss,
)
from .model import forward, init_stack
from .numerics import (
    Rng,
    finite_difference_gradient,
    row_l2_normalize,
    row_norms,
)

REL_TOL = 1e-6
RELU_MARGIN = 1e-4

EMBEDDING_LOSSES = (
    "cssl_total", "byol_loss", "vicreg_loss", "barlow_loss",
    "pnr_regularizer", "noncontrastive_pnr_total",
)


@dataclass
class CheckReport:
    name: str
    trials: int
    max_err: float
    tol: float
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(fd))), 1e-10)
    return float(np.max(np.abs(analytic - fd))) / scale


def _unit_rows(rng: Rng, n: int, d: int) -> np.ndarray:
    return row_l2_normalize(rng.gaussian_matrix(n, d))


def random_views(rng: Rng, n: int = 5, d: int = 6, with_pred: bool = True,
                 with_target: bool = False, queue_rows: int = 0,
                 normalized: bool = True) -> ContrastiveViews:
    def draw(rows: int) -> np.ndarray:
        return (_unit_rows(rng, rows, d) if normalized
                else rng.gaussian_matrix(rows, d))

    def views() -> np.ndarray:
        return np.concatenate([draw(n), draw(n)])

    z, z_prev = views(), views()
    return ContrastiveViews(
        z, z_prev,
        g=views() if with_pred else None,
        z_target=views() if with_target else None,
        queue_cur=draw(queue_rows) if queue_rows else None,
        queue_prev=draw(queue_rows) if queue_rows else None,
    )


def _vicreg_inputs(rng: Rng) -> np.ndarray:
    """Raw batch whose per-dim stds sit safely away from the hinge at 1."""
    z = rng.gaussian_matrix(6, 5, 0.4)
    z[:, ::2] *= 5.0  # alternate dims clearly above the hinge
    return z


def _fd_on_field(loss_fn, views: ContrastiveViews, name: str) -> np.ndarray:
    base = getattr(views, name)

    def f(x: np.ndarray) -> float:
        return loss_fn(replace(views, **{name: x})).value

    return finite_difference_gradient(f, base)


def _check_views_loss(loss_fn, views: ContrastiveViews,
                      grad_fields: dict[str, str]) -> float:
    res = loss_fn(views)
    worst = 0.0
    for field_name, grad_attr in grad_fields.items():
        analytic = getattr(res, grad_attr)
        fd = _fd_on_field(loss_fn, views, field_name)
        if analytic is None:
            analytic = np.zeros_like(fd)
        n = views.batch_size  # each view's rows on their own scale
        worst = max(worst, rel_err(analytic[:n], fd[:n]),
                    rel_err(analytic[n:], fd[n:]))
    return worst


_LIVE_FIELDS = {"z": "grad_z", "g": "grad_g"}


def _embedding_trial(name: str, rng: Rng) -> float:
    n = 3 + int(rng.uniform(1)[0] * 4)  # batch in [3, 6]
    d = 5 + int(rng.uniform(1)[0] * 4)
    if name == "cssl_total":
        v = random_views(rng, n, d, queue_rows=4)
        cfgs = [PnrConfig(method=Method.MOCO, regime=r) for r in Regime]
        return max(_check_views_loss(
            lambda vv, c=c: cssl_total(vv, c, check_norms=False), v,
            _LIVE_FIELDS) for c in cfgs)
    if name == "byol_loss":
        p, t = _unit_rows(rng, n, d), _unit_rows(rng, n, d)
        fd = finite_difference_gradient(lambda x: byol_loss(x, t).value, p)
        return rel_err(byol_loss(p, t).grad_g, fd)
    if name in ("vicreg_loss", "barlow_loss"):
        # Regime ft: the native loss alone, at the config's weights.
        if name == "vicreg_loss":
            cfg = PnrConfig(method=Method.VICREG, regime=Regime.FT)
            za, zb = _vicreg_inputs(rng), _vicreg_inputs(rng)
        else:
            cfg = PnrConfig(method=Method.BARLOW, regime=Regime.FT)
            za, zb = rng.gaussian_matrix(n + 3, d), rng.gaussian_matrix(n + 3, d)
        z = np.concatenate([za, zb])  # the two raw views
        return _check_views_loss(lambda vv: noncontrastive_pnr_total(vv, cfg),
                                 ContrastiveViews(z), {"z": "grad_z"})
    if name in ("pnr_regularizer", "noncontrastive_pnr_total"):
        loss_fn = (pnr_regularizer if name == "pnr_regularizer"
                   else noncontrastive_pnr_total)
        worst = 0.0
        for method in (Method.BYOL, Method.VICREG, Method.BARLOW):
            cfg = PnrConfig(method=method, regime=Regime.PNR)
            v = random_views(rng, n + 2, d, with_target=True,
                             normalized=on_sphere(method))
            # g is the regularizer's only live input, and BYOL's.
            fields = ({"g": "grad_g"} if loss_fn is pnr_regularizer
                      or method == Method.BYOL else _LIVE_FIELDS)
            worst = max(worst, _check_views_loss(
                lambda vv, c=cfg: loss_fn(vv, c), v, fields))
        return worst
    raise CsslError(f"unknown loss {name}")


def check_embedding_gradients(trials: int, seed: int,
                              names: tuple[str, ...] = EMBEDDING_LOSSES
                              ) -> list[CheckReport]:
    reports = []
    for name in names:
        t0 = time.perf_counter()
        worst = 0.0
        for k in range(trials):
            rng = Rng(seed).derive(f"emb-{name}-{k}")
            worst = max(worst, _embedding_trial(name, rng))
        reports.append(CheckReport(f"embedding/{name}", trials, worst,
                                   REL_TOL, time.perf_counter() - t0))
    return reports


def _param_setup(method: Method, attempt_seed: int):
    rng = Rng(attempt_seed)
    dims_enc, dims_proj, dims_pred = [4, 6, 5], [5, 6, 5], [5, 5]
    stack = init_stack(rng.derive("stack"), dims_enc, dims_proj, dims_pred)
    frozen = init_stack(rng.derive("frozen"), dims_enc, dims_proj, dims_pred)
    x = np.concatenate([rng.gaussian_matrix(8, 4), rng.gaussian_matrix(8, 4)])
    cfg = PnrConfig(method=method)
    target = None
    queue_cur = queue_prev = None
    if method == Method.BYOL:
        target = init_stack(rng.derive("target"), dims_enc, dims_proj,
                            dims_pred)
    if method == Method.MOCO:
        queue_cur = _unit_rows(rng.derive("qc"), 4, 5)
        queue_prev = _unit_rows(rng.derive("qp"), 4, 5)
    return stack, frozen, x, cfg, target, queue_cur, queue_prev


def _chain_relu_margin(nets, xs) -> tuple[float, float]:
    """(smallest |hidden preactivation|, smallest output row norm) across
    stacks and inputs. Small margins invalidate FD probes; near-zero rows
    would make normalization degenerate."""
    margin = np.inf
    min_norm = np.inf
    for net in nets:
        for x in xs:
            fwd = forward(net, x, want_pred=True)
            for cache in fwd._caches.values():
                for _inp, pre in cache[:-1]:  # the last layer has no ReLU
                    margin = min(margin, float(np.min(np.abs(pre))))
            for out in (fwd.features, fwd.proj, fwd.pred):
                min_norm = min(min_norm, float(np.min(row_norms(out))))
    return margin, min_norm


def check_param_gradients(trials: int, seed: int) -> list[CheckReport]:
    """Full-chain finite differences over every stack parameter."""
    reports = []
    for method in Method:
        t0 = time.perf_counter()
        worst = 0.0
        done = 0
        attempt = 0
        while done < trials:
            attempt += 1
            (stack, frozen, x, cfg, target,
             queue_cur, queue_prev) = _param_setup(method,
                                                   seed + 1000 * attempt)
            margin, min_norm = _chain_relu_margin([stack, frozen], [x])
            if target is not None:
                min_norm = min(min_norm, float(np.min(
                    row_norms(forward(target, x).proj))))
            if margin < RELU_MARGIN or min_norm < 1e-2:
                continue  # redraw: FD invalid at a kink / degenerate row
            z_prev = frozen_embedding(frozen, x, cfg.method)

            def loss_at(theta: np.ndarray) -> float:
                views, _ = encode_views(stack.like(theta), x, z_prev, cfg,
                                        target=target, queue_cur=queue_cur,
                                        queue_prev=queue_prev)
                return total_loss(views, cfg, check_norms=False).value

            views, fwd = encode_views(stack, x, z_prev, cfg, target=target,
                                      queue_cur=queue_cur,
                                      queue_prev=queue_prev)
            res = total_loss(views, cfg, check_norms=False)
            analytic = backprop_views(stack, fwd, cfg, res).flat
            fd = finite_difference_gradient(loss_at, stack.flat)
            worst = max(worst, rel_err(analytic, fd))
            done += 1
        reports.append(CheckReport(f"params/{method.value}", trials, worst,
                                   REL_TOL, time.perf_counter() - t0))
    return reports


def check_closed_form(instances: int, seed: int) -> list[CheckReport]:
    """Closed-form per-anchor gradient vs the production loss gradients.

    With batch size 1 and an identity predictor (g := z), anchor z[0]'s two
    terms share one pool and differ only in their positive. The anchor g
    enters PNR's loss only as a distillation query, and each term averages
    over the 2 anchors, so ``cssl_total``'s grad_g[0] is half the
    distillation term's query gradient. Moving the plasticity positive z[1]
    to the lead of the frozen block (z = [z0; zp0], z_prev = [z1; zp1])
    leaves the pool's rows unchanged, and grad_g[0] is then half the
    plasticity term's. The closed form must equal their sum. The softmax
    mass identity is checked on every instance.
    """
    t0 = time.perf_counter()
    cfg = PnrConfig()  # SimCLR, regime pnr
    worst_grad = 0.0
    worst_mass = 0.0
    for k in range(instances):
        rng = Rng(seed).derive(f"closed-{k}")
        v = random_views(rng, 1, 6, queue_rows=int(rng.uniform(1)[0] * 3))
        v = replace(v, g=v.z.copy())
        _, _, mass = closed_form_parts(v, cfg.tau)
        worst_mass = max(worst_mass, float(np.max(np.abs(mass - 1.0))))
        cf = closed_form_grad(v, cfg.tau)
        plastic = replace(v, z=np.stack([v.z[0], v.z_prev[0]]),
                          z_prev=np.stack([v.z[1], v.z_prev[1]]))
        full = (cssl_total(plastic, cfg).grad_g[0]
                + cssl_total(v, cfg).grad_g[0])
        worst_grad = max(worst_grad, float(np.max(np.abs(cf - full))))
    elapsed = time.perf_counter() - t0
    return [
        CheckReport("closed_form/grad_abs_err", instances, worst_grad,
                    1e-10, elapsed),
        CheckReport("closed_form/mass_sum_dev", instances, worst_mass,
                    1e-12, 0.0),
    ]


def run_gradcheck(trials: int, loss: str | None,
                  seed: int = 2024) -> list[CheckReport]:
    """The CI gate: embedding + parameter + closed-form checks."""
    if trials < 1:
        raise CsslError(f"trials must be >= 1, got {trials}")
    if loss is not None:
        if loss not in EMBEDDING_LOSSES:
            raise CsslError(f"unknown loss {loss!r}; pick from "
                            f"{', '.join(EMBEDDING_LOSSES)}")
        return check_embedding_gradients(trials, seed, (loss,))
    reports = check_embedding_gradients(trials, seed)
    reports.extend(check_param_gradients(trials=4, seed=seed + 1))
    reports.extend(check_closed_form(instances=50, seed=seed + 2))
    return reports
