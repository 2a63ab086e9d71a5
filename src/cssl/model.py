"""The trainable stack: MLP encoder, projector and predictor.

Forward passes, exact reverse-mode parameter gradients, SGD with momentum and
weight decay, and EMA target updates. Frozen snapshots and BYOL's EMA target
are clones of the online stack. ReLU on every layer except the last of each
MLP; the subgradient at exactly zero is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CsslError
from .numerics import Rng, check_finite

# Layer shapes (out, in) per MLP; with a flat vector it fixes every view.
Layout = tuple[tuple[tuple[int, int], ...], ...]


@dataclass
class MlpParams:
    """Weights (out x in) and biases (out) for a plain ReLU MLP."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


def _check_mlp(p: MlpParams, name: str) -> None:
    if len(p.weights) != len(p.biases) or not p.weights:
        raise CsslError(f"{name}: weights/biases length mismatch or empty MLP")
    for k, (w, b) in enumerate(zip(p.weights, p.biases)):
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise CsslError(f"{name} layer {k}: weight {w.shape} vs bias {b.shape}")
        if k > 0 and w.shape[1] != p.weights[k - 1].shape[0]:
            raise CsslError(
                f"{name} layer {k}: in dim {w.shape[1]} != previous out "
                f"{p.weights[k - 1].shape[0]}")
        check_finite(w, f"{name} layer {k} weight")
        check_finite(b, f"{name} layer {k} bias")


def _views(flat: np.ndarray, layout: Layout) -> list[MlpParams]:
    """Per-layer views into ``flat``: MLP by MLP, layer by layer, the weight
    (row-major) and then the bias."""
    mlps, pos = [], 0
    for shapes in layout:
        weights, biases = [], []
        for out_dim, in_dim in shapes:
            weights.append(flat[pos:pos + out_dim * in_dim].reshape(out_dim, in_dim))
            pos += out_dim * in_dim
            biases.append(flat[pos:pos + out_dim])
            pos += out_dim
        mlps.append(MlpParams(weights, biases))
    return mlps


class EncoderStack:
    """Encoder h, projector m, predictor g.

    Every parameter lives in one contiguous float64 vector ``flat`` (encoder,
    projector, predictor; see :func:`_views` for the order within an MLP);
    ``encoder``, ``projector`` and ``predictor`` hold per-layer views into it.
    Gradients, frozen snapshots and BYOL's EMA target are stacks of the same
    layout, and SGD's velocity is a vector of it, so updates between them are
    single vector operations.

    The predictor maps projection space onto itself (square input/output).
    """

    def __init__(self, encoder: MlpParams, projector: MlpParams,
                 predictor: MlpParams):
        """Validates outside parameters and copies them into a new vector."""
        mlps = (encoder, projector, predictor)
        for name, p in zip(("encoder", "projector", "predictor"), mlps):
            _check_mlp(p, name)
        if projector.in_dim != encoder.out_dim:
            raise CsslError("projector input does not chain with encoder output")
        d = projector.out_dim
        if predictor.in_dim != d or predictor.out_dim != d:
            raise CsslError(
                f"predictor must map projection space ({d}) to itself, got "
                f"{predictor.in_dim} -> {predictor.out_dim}")
        self._bind(tuple(tuple(w.shape for w in p.weights) for p in mlps),
                   np.concatenate([a.ravel() for p in mlps
                                   for w, b in zip(p.weights, p.biases)
                                   for a in (w, b)], dtype=np.float64))

    def _bind(self, layout: Layout, flat: np.ndarray) -> None:
        self.layout = layout
        self.flat = flat
        self.encoder, self.projector, self.predictor = _views(flat, layout)

    def like(self, flat: np.ndarray) -> "EncoderStack":
        """A stack of this layout over ``flat``; no copy, no validation."""
        other = EncoderStack.__new__(EncoderStack)
        other._bind(self.layout, flat)
        return other

    def clone(self) -> "EncoderStack":
        return self.like(self.flat.copy())


def init_mlp(rng: Rng, dims: list[int]) -> MlpParams:
    """He-initialized weights (Gaussian, std sqrt(2/fan_in)), zero biases."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise CsslError(f"bad layer size list {dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = float(np.sqrt(2.0 / fan_in))
        weights.append(rng.gaussian_matrix(fan_out, fan_in, std))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def init_stack(rng: Rng, encoder_dims: list[int], projector_dims: list[int],
               predictor_dims: list[int]) -> EncoderStack:
    """Deterministic per seed: encoder layers are drawn first, then projector,
    then predictor, each row-major."""
    return EncoderStack(
        init_mlp(rng, encoder_dims),
        init_mlp(rng, projector_dims),
        init_mlp(rng, predictor_dims),
    )


def mlp_forward(p: MlpParams, x: np.ndarray, cache: list | None = None) -> np.ndarray:
    """ReLU on all layers except the last. Optionally records (input, pre)
    pairs per layer into ``cache`` for the backward pass."""
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise CsslError(f"mlp forward: input {x.shape} vs in_dim {p.in_dim}")
    out = x
    last = len(p.weights) - 1
    for k, (w, b) in enumerate(zip(p.weights, p.biases)):
        pre = out @ w.T + b
        if cache is not None:
            cache.append((out, pre))
        out = pre if k == last else np.maximum(pre, 0.0)
    return out


def mlp_backward(p: MlpParams, cache: list, grad_out: np.ndarray,
                 grads: MlpParams) -> np.ndarray:
    """Exact reverse-mode gradients given d(loss)/d(output) and the forward
    cache. Writes the parameter gradients into ``grads`` (same shapes as
    ``p``) and returns d(loss)/d(input)."""
    last = len(p.weights) - 1
    g = grad_out
    for k in range(last, -1, -1):
        inp, pre = cache[k]
        g_pre = g if k == last else g * (pre > 0.0)
        np.matmul(g_pre.T, inp, out=grads.weights[k])
        g_pre.sum(axis=0, out=grads.biases[k])
        g = g_pre @ p.weights[k]
    return g


@dataclass
class ForwardResult:
    features: np.ndarray
    proj: np.ndarray
    pred: np.ndarray | None
    _caches: dict = field(default_factory=dict, repr=False)


def forward(stack: EncoderStack, x: np.ndarray, want_pred: bool = False
            ) -> ForwardResult:
    """features = h(x); proj = m(features); pred = g(proj) if requested.

    Outputs are unnormalized; callers decide whether to put them on the
    sphere. The result carries the layer caches needed by :func:`backward`.
    """
    enc_cache: list = []
    proj_cache: list = []
    feats = mlp_forward(stack.encoder, x, enc_cache)
    proj = mlp_forward(stack.projector, feats, proj_cache)
    caches = {"encoder": enc_cache, "projector": proj_cache}
    pred = None
    if want_pred:
        pred_cache: list = []
        pred = mlp_forward(stack.predictor, proj, pred_cache)
        caches["predictor"] = pred_cache
    return ForwardResult(feats, proj, pred, caches)


def backward(stack: EncoderStack, fwd: ForwardResult,
             grad_proj: np.ndarray | None,
             grad_pred: np.ndarray | None = None) -> EncoderStack:
    """Parameter gradients given embedding-space gradients, as a stack of
    ``stack``'s layout.

    ``fwd`` is the cached forward pass of the batch; ``grad_proj`` is
    d(loss)/d(projection), ``grad_pred`` d(loss)/d(predictor output); either
    may be None.
    """
    if grad_pred is not None and "predictor" not in fwd._caches:
        raise CsslError("grad_pred given but forward ran without predictor")

    grads = stack.like(np.zeros_like(stack.flat))
    total_grad_proj = np.zeros_like(fwd.proj)
    if grad_pred is not None:
        if grad_pred.shape != fwd.pred.shape:  # type: ignore[union-attr]
            raise CsslError("grad_pred shape mismatch")
        total_grad_proj += mlp_backward(
            stack.predictor, fwd._caches["predictor"], grad_pred,
            grads.predictor)
    if grad_proj is not None:
        if grad_proj.shape != fwd.proj.shape:
            raise CsslError("grad_proj shape mismatch")
        total_grad_proj += grad_proj

    g_into_feat = mlp_backward(stack.projector, fwd._caches["projector"],
                               total_grad_proj, grads.projector)
    mlp_backward(stack.encoder, fwd._caches["encoder"], g_into_feat,
                 grads.encoder)
    return grads


def sgd_step(stack: EncoderStack, grads: EncoderStack, velocity: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> EncoderStack:
    """v <- momentum*v + grad + wd*param; param <- param - lr*v. In place;
    ``velocity`` is laid out like ``stack.flat`` and starts at zero."""
    velocity *= momentum
    velocity += grads.flat + weight_decay * stack.flat
    stack.flat -= lr * velocity
    return stack


def ema_update(target: EncoderStack, online: EncoderStack,
               m: float) -> EncoderStack:
    """target <- m*target + (1-m)*online over the whole vector, in place.

    BYOL's target reads only the encoder and projector; its predictor part
    is blended too but never read."""
    if target.layout != online.layout:
        raise CsslError("target/online layouts differ")
    target.flat *= m
    target.flat += (1.0 - m) * online.flat
    return target
