"""Dense float64 array helpers, a deterministic RNG, and the finite-difference oracle.

All matrices in this package are plain ``numpy.ndarray`` objects with dtype
float64 and C (row-major) layout. Construction-time validation lives in
:func:`as_matrix`; downstream code assumes validated inputs.

Randomness never touches ``numpy.random``. The :class:`Rng` class implements
SplitMix64, a counter-based 64-bit generator whose integer stream is exactly
reproducible on any platform, with Box-Muller for Gaussian variates. Any
sub-component derives its own stream from a root seed via
``Rng.derive(tag)``; the derivation is ``mix64(seed XOR fnv1a64(tag))`` and is
independent of how far the parent stream has advanced.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import CsslError, DivergenceDetected

EPS_NORM = 1e-12
# How far a row norm may stray from 1 where unit rows are required.
NORM_TOL = 1e-9
# The finite-difference step of the gradient oracle.
FD_EPS = 1e-5

_U64 = np.uint64
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TWO53_INV = 2.0 ** -53
# fnv1a64 folds its input in chunks of this many bytes; _FNV_POWERS[k] is
# P**(k + 1) mod 2**64 for every exponent a chunk needs.
_FNV_CHUNK = 1 << 16
_FNV_POWERS = np.multiply.accumulate(np.full(_FNV_CHUNK, _FNV_PRIME,
                                             dtype=_U64))
_FNV_POWERS.flags.writeable = False


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a validated 2-D float64 C-contiguous array; input that is
    not 2-D or holds NaN or Inf is rejected."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise CsslError(f"{name}: expected 2-D array, got ndim={m.ndim}")
    check_finite(m, name)
    return m


def check_finite(m: np.ndarray, name: str) -> None:
    if m.size and not np.all(np.isfinite(m)):
        raise CsslError(f"{name}: contains NaN or Inf")


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(m * m, axis=1))


def check_unit_rows(m: np.ndarray, name: str) -> None:
    """Reject rows whose L2 norm strays from 1 by more than NORM_TOL or is
    NaN."""
    if m.shape[0]:
        dev = float(np.max(np.abs(row_norms(m) - 1.0)))
        if not dev <= NORM_TOL:
            raise CsslError(f"{name}: row norm off unit by {dev:.3e}")


def row_l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale every row to unit L2 norm. A norm <= EPS_NORM has no direction
    (in training, a projection whose ReLU path is dead), so it raises
    :class:`DivergenceDetected`."""
    norms = row_norms(m)
    if m.shape[0] and np.min(norms) <= EPS_NORM:
        bad = int(np.argmin(norms))
        raise DivergenceDetected(
            f"row {bad} has norm {norms[bad]:.3e} <= {EPS_NORM:.0e}")
    return m / norms[:, None]


def row_l2_normalize_backward(raw: np.ndarray, grad_normalized: np.ndarray) -> np.ndarray:
    """Backprop through y = x / ||x|| applied row-wise.

    ``raw`` is the pre-normalization matrix; returns the gradient with
    respect to it given the gradient with respect to the normalized rows.
    """
    if raw.shape != grad_normalized.shape:
        raise CsslError(
            f"normalize backward: {raw.shape} vs {grad_normalized.shape}")
    norms = row_norms(raw)[:, None]
    y = raw / norms
    inner = np.sum(y * grad_normalized, axis=1, keepdims=True)
    return (grad_normalized - y * inner) / norms


def logsumexp_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise logsumexp for matrices, in two parts; tolerates -inf entries
    (masked columns). Returns (mx, total): the row maximum and the row sum of
    exp(m - mx), so a row's logsumexp is mx + log(total). Overwrites ``m``
    with exp(m - mx) (a masked entry becomes 0, each row's maximum exactly
    1), so every entry is exponentiated once; a caller that needs the
    softmax divides by ``total`` where that is cheapest."""
    if m.shape[1] == 0:
        raise CsslError("logsumexp over zero columns")
    mx = np.max(m, axis=1)
    m -= mx[:, None]
    return mx, np.sum(np.exp(m, out=m), axis=1)


def finite_difference_gradient(f: Callable[[np.ndarray], float],
                               x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    Perturbs one entry at a time: (f(x + eps*e) - f(x - eps*e)) / (2*eps)
    with eps = FD_EPS. This is the independent oracle every analytic
    gradient in the package is checked against; it must never share code
    with the gradients it verifies.
    """
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + FD_EPS
        hi = float(f(x))
        flat[k] = orig - FD_EPS
        lo = float(f(x))
        flat[k] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise CsslError(
                f"finite differences: f returned non-finite at entry {k}")
        gflat[k] = (hi - lo) / (2.0 * FD_EPS)
    return grad


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; used for stream derivation and file checksums.

    Returns the value of the byte loop ``h = ((h ^ b) * P) mod 2**64``,
    folded over whole arrays instead of one byte at a time. ``P`` is odd,
    so the low byte ``l`` of the state follows its own recurrence
    ``l' = ((l ^ b) * (P mod 256)) mod 256``, in which bit k of ``l'`` is
    bit k of ``l ^ b`` XOR a function of the lower bits: with those known,
    each bit is one XOR prefix scan. ``h ^ b`` equals ``h + delta`` with
    ``delta = (l ^ b) - l``, so over m bytes the state becomes
    ``h * P**m + sum(delta_i * P**(m - i))``, all mod 2**64, which uint64
    arrays compute exactly (they wrap). The bytes are folded in chunks of
    ``_FNV_CHUNK``, each starting from the previous chunk's state: unchunked,
    the temporaries would take about 11 bytes per input byte.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    for lo in range(0, b.size, _FNV_CHUNK):
        chunk = b[lo:lo + _FNV_CHUNK]
        m = chunk.size
        # low[i] is the state's low byte before chunk[i]; low[m] after it.
        low = np.zeros(m + 1, dtype=np.uint8)
        bit = np.empty(m + 1, dtype=np.uint8)
        carry = bit[1:]
        for k in range(8):
            np.bitwise_xor(low[:-1], chunk, out=carry)
            np.multiply(carry, _FNV_PRIME & 0xFF, out=carry)
            np.right_shift(carry, k, out=carry)
            np.bitwise_and(carry, 1, out=carry)
            bit[0] = (h >> k) & 1
            # An XOR prefix scan; numpy runs it faster on bool than on uint8.
            flag = bit.view(np.bool_)
            np.logical_xor.accumulate(flag, out=flag)
            np.left_shift(bit, k, out=bit)
            np.bitwise_or(low, bit, out=low)
        delta = np.subtract(low[:-1] ^ chunk, low[:-1], dtype=_U64)
        h = (h * int(_FNV_POWERS[m - 1])
             + int(np.dot(delta, _FNV_POWERS[m - 1::-1]))) & 0xFFFFFFFFFFFFFFFF
    return h


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's bijective bit mix of a uint64 array (arithmetic wraps)."""
    z = (z ^ (z >> _U64(30))) * _U64(_MIX_MUL_1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX_MUL_2)
    return z ^ (z >> _U64(31))


# Distinct tags whose hash Rng.derive keeps: a run derives a few per task and
# epoch, and repeats them across tasks, seeds and passes.
_TAG_HASHES = 1024


@functools.lru_cache(maxsize=_TAG_HASHES)
def _tag_hash(tag: str) -> int:
    """fnv1a64 of the tag's UTF-8 bytes, which costs tens of microseconds
    for a short tag."""
    return fnv1a64(tag.encode("utf-8"))


class Rng:
    """SplitMix64 stream: counter advances by a golden-ratio gamma, outputs
    are a bijective bit mix of the counter. The integer stream is identical
    on every platform; Gaussian outputs additionally rely on IEEE-754 libm
    (log/sqrt/cos/sin), which is bit-stable on a given platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._state = self.seed

    def derive(self, tag: str) -> "Rng":
        """Child stream keyed by (seed, tag); ignores this stream's position."""
        key = self.seed ^ _tag_hash(tag)
        return Rng(int(_mix64(np.array([key], dtype=_U64))[0]))

    def _next_block(self, n: int) -> np.ndarray:
        if n <= 0:
            return np.empty(0, dtype=_U64)
        with np.errstate(over="ignore"):
            counters = (np.arange(1, n + 1, dtype=_U64) * _U64(_SPLITMIX_GAMMA)
                        + _U64(self._state))
        self._state = int(counters[-1])
        return _mix64(counters)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) using the top 53 bits of each output."""
        bits = self._next_block(n)
        return (bits >> _U64(11)).astype(np.float64) * _TWO53_INV

    def gaussian(self, n: int, std: float = 1.0) -> np.ndarray:
        """n zero-mean Gaussian draws via Box-Muller."""
        pairs = (n + 1) // 2
        bits1 = self._next_block(pairs)
        bits2 = self._next_block(pairs)
        # u1 in (0, 1] so log never sees zero
        u1 = ((bits1 >> _U64(11)).astype(np.float64) + 1.0) * _TWO53_INV
        u2 = (bits2 >> _U64(11)).astype(np.float64) * _TWO53_INV
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return std * out[:n]

    def gaussian_matrix(self, rows: int, cols: int,
                        std: float = 1.0) -> np.ndarray:
        return self.gaussian(rows * cols, std).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n) driven by the integer stream:
        for i = n-1 down to 1, swap i with draw % (i + 1). All swap indices
        come from one array op; the swaps run on a list, which Python
        indexes far faster than numpy scalars."""
        draws = self._next_block(n - 1)
        swaps = (draws % np.arange(n, 1, -1, dtype=_U64)).tolist()
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)
