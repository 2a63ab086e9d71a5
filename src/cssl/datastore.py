"""Synthetic data generation, binary file formats, and report writers.

Both binary formats share one envelope (integers little-endian unsigned
32-bit, floats little-endian IEEE-754 doubles, matrices row-major)::

    magic  8 bytes
    u32    version (currently 1)
    u32    header words, as many as the format has
    payload
    u64    FNV-1a checksum over the payload bytes

Dataset: magic ``b"CSSLDAT\\0"``; header M (samples), D (input dim), C
(class count), a reserved word (written as 0xFFFFFFFF); payload f64[M*D]
samples, then u32[M] labels: exactly M*D*8 + M*4 bytes. Loads ignore C
and the reserved word.

Checkpoint: magic ``b"CSSLCKP\\0"``; no header words; payload, for each of
encoder/projector/predictor: u32 layer count, then per layer u32 out, u32
in, f64[out*in] weight (row-major), f64[out] bias; nothing else.

Loads check the magic, the version, the length (a dataset shorter or
longer than its header implies fails) and the checksum, in that order, and
raise ``CorruptFile`` naming the check that failed. A checkpoint must then
chain within each MLP (a layer's in is the previous layer's out), satisfy
:func:`cssl.model.check_layout` and hold only finite values. Writes are atomic
(temp file in the target directory, then rename) and leave the file the
mode ``open(path, "wb")`` would give it.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .continual import LabeledDataset
from .errors import CorruptFile, CsslError
from .evaluate import AccuracyMatrix
from .model import EncoderStack
from .numerics import Rng, fnv1a64

DATASET_MAGIC = b"CSSLDAT\0"
CHECKPOINT_MAGIC = b"CSSLCKP\0"
FORMAT_VERSION = 1

MAX_MEAN_TRIES = 10_000


@dataclass
class DatasetParams:
    """:func:`gen_synthetic`'s arguments, in order, and their rules."""

    classes: int = 10
    input_dim: int = 32
    samples_per_class: int = 200
    radius: float = 1.0
    sigma: float = 2.0

    def __post_init__(self):
        for name in ("samples_per_class", "radius"):
            if getattr(self, name) <= 0:
                raise CsslError(f"{name} must be positive")
        # Two dims: gen_synthetic's sphere and domain_il's rotations need them.
        for name in ("classes", "input_dim"):
            if getattr(self, name) < 2:
                raise CsslError(f"{name} must be >= 2")
        if self.sigma < 0:
            raise CsslError("sigma must be non-negative")


def gen_synthetic(C: int, D_in: int, n_per_class: int, radius: float,
                  sigma: float, seed: int) -> LabeledDataset:
    """Gaussian class clusters around means drawn uniformly on a sphere.

    Rejection sampling enforces pairwise mean separation >= radius/sqrt(C).
    ``sigma`` scales the expected noise *norm* as a fraction of the radius:
    each coordinate gets std sigma*radius/sqrt(D_in), so a sample sits at
    distance ~sigma*radius from its mean regardless of dimension. sigma = 0
    collapses every sample onto its class mean. :class:`DatasetParams`
    checks the arguments.
    """
    DatasetParams(C, D_in, n_per_class, radius, sigma)
    rng = Rng(seed).derive("synthetic-data")
    min_sep = radius / np.sqrt(C)
    means: list[np.ndarray] = []
    tries = 0
    while len(means) < C:
        if tries >= MAX_MEAN_TRIES:
            raise CsslError(
                f"could not place {C} means separated by {min_sep:.3g} "
                f"in {D_in} dims after {MAX_MEAN_TRIES} tries")
        tries += 1
        v = rng.gaussian(D_in)
        norm = float(np.linalg.norm(v))
        if norm <= 1e-12:
            continue
        cand = v / norm * radius
        if all(float(np.linalg.norm(cand - m)) >= min_sep for m in means):
            means.append(cand)
    per_dim_std = sigma * radius / np.sqrt(D_in)
    x = np.repeat(np.stack(means), n_per_class, axis=0)
    if per_dim_std > 0:
        x = x + rng.gaussian(C * n_per_class * D_in,
                             per_dim_std).reshape(C * n_per_class, D_in)
    y = np.repeat(np.arange(C, dtype=np.int64), n_per_class)
    return LabeledDataset(x, y)


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _take(data: bytes, pos: int, n: int, path: str) -> bytes:
    if pos + n > len(data):
        raise CorruptFile(f"{path}: ended {pos + n - len(data)} bytes early")
    return data[pos:pos + n]


def _write_envelope(path: str, magic: bytes, words: tuple[int, ...],
                    payload: bytes) -> None:
    _atomic_write(path, magic
                  + struct.pack(f"<{len(words) + 1}I", FORMAT_VERSION, *words)
                  + payload + struct.pack("<Q", fnv1a64(payload)))


def _read_envelope(path: str, magic: bytes, what: str, n_words: int,
                   payload_size=None) -> tuple[tuple[int, ...], bytes]:
    """The header words and the checked payload of a file that
    :func:`_write_envelope` wrote. The payload is ``payload_size(*words)``
    bytes when that is given, else all that precedes the checksum."""
    with open(path, "rb") as fh:
        data = fh.read()
    if _take(data, 0, 8, path) != magic:
        raise CorruptFile(f"{path}: not a {what} file")
    version = struct.unpack("<I", _take(data, 8, 4, path))[0]
    if version != FORMAT_VERSION:
        raise CorruptFile(f"{path}: version {version} unsupported")
    words = struct.unpack(f"<{n_words}I", _take(data, 12, 4 * n_words, path))
    head = 12 + 4 * n_words
    size = (len(data) - head - 8 if payload_size is None
            else payload_size(*words))
    if size < 0 or len(data) != head + size + 8:
        raise CorruptFile(f"{path}: {len(data)} bytes, but the header "
                          f"implies {head + max(size, 0) + 8}")
    payload = data[head:head + size]
    if fnv1a64(payload) != struct.unpack("<Q", data[-8:])[0]:
        raise CorruptFile(f"{path}: {what} checksum mismatch")
    return words, payload


def save_dataset(ds: LabeledDataset, path: str) -> None:
    m, d = ds.x.shape
    c = int(ds.y.max()) + 1 if ds.y.size else 0
    _write_envelope(path, DATASET_MAGIC, (m, d, c, 0xFFFFFFFF),  # reserved
                    ds.x.astype("<f8").tobytes() + ds.y.astype("<u4").tobytes())


def load_dataset(path: str) -> LabeledDataset:
    (m, d, _c, _reserved), payload = _read_envelope(
        path, DATASET_MAGIC, "dataset", 4,
        lambda m, d, _c, _reserved: m * d * 8 + m * 4)
    x = np.frombuffer(payload[:m * d * 8], dtype="<f8").reshape(m, d).copy()
    y = np.frombuffer(payload[m * d * 8:], dtype="<u4").astype(np.int64)
    return LabeledDataset(x, y)


def stack_bytes(stack: EncoderStack) -> bytes:
    """The checkpoint payload (see the module docstring); tests also use it
    for isolation checks and determinism hashing."""
    chunks: list[bytes] = []
    for mlp in (stack.encoder, stack.projector, stack.predictor):
        chunks.append(struct.pack("<I", len(mlp.weights)))
        for w, b in zip(mlp.weights, mlp.biases):
            chunks += [struct.pack("<II", *w.shape), w.astype("<f8").tobytes(),
                       b.astype("<f8").tobytes()]
    return b"".join(chunks)


def save_checkpoint(stack: EncoderStack, path: str) -> None:
    _write_envelope(path, CHECKPOINT_MAGIC, (), stack_bytes(stack))


def load_checkpoint(path: str) -> EncoderStack:
    _, payload = _read_envelope(path, CHECKPOINT_MAGIC, "checkpoint", 0)
    layout, blocks, pos = [], [], 0
    for name in ("encoder", "projector", "predictor"):
        n_layers = struct.unpack("<I", _take(payload, pos, 4, path))[0]
        pos += 4
        widths: list[int] = []
        for k in range(n_layers):
            out_dim, in_dim = struct.unpack("<II", _take(payload, pos, 8, path))
            if k == 0:
                widths.append(in_dim)
            elif in_dim != widths[-1]:
                raise CorruptFile(f"{path}: {name} layer {k}: in {in_dim} != "
                                  f"previous out {widths[-1]}")
            widths.append(out_dim)
            nbytes = (out_dim * in_dim + out_dim) * 8
            blocks.append(_take(payload, pos + 8, nbytes, path))
            pos += 8 + nbytes
        layout.append(widths)
    if pos != len(payload):
        raise CorruptFile(f"{path}: trailing bytes before checksum")
    flat = np.concatenate([np.frombuffer(b, dtype="<f8") for b in blocks],
                          dtype=np.float64)
    try:
        return EncoderStack(layout, flat)
    except CsslError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def accuracy_csv(am: AccuracyMatrix) -> str:
    """Grid CSV with row/column headers; '.' decimal, comma delimiter."""
    cols = ",".join(f"after_task_{j + 1}" for j in range(am.T))
    lines = ["task," + cols + (",ft" if am.ft is not None else "")]
    for i in range(am.T):
        row = [f"task_{i + 1}"] + [repr(float(v)) for v in am.a[i]]
        if am.ft is not None:
            row.append(repr(float(am.ft[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def metrics_json(metrics: dict) -> str:
    """Canonical JSON: sorted keys, repr-shortest floats, trailing newline."""
    return json.dumps(metrics, sort_keys=True, indent=2) + "\n"


def aggregate_metrics(metric_dicts: list[dict]) -> str:
    """Mean +/- std table (CSV) over per-seed metrics JSON objects.

    Aggregates every top-level scalar key that any object holds, except
    ``seed``, which labels a run; ``n`` counts the objects holding the key.
    The sample std uses ddof=1 when more than one value is present, else 0.
    """
    if not metric_dicts:
        raise CsslError("nothing to aggregate")
    scalars = [{k: v for k, v in m.items()
                if isinstance(v, (int, float)) and k != "seed"}
               for m in metric_dicts]
    lines = ["metric,mean,std,n"]
    for key in sorted(set().union(*scalars)):
        vals = np.array([float(m[key]) for m in scalars if key in m])
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        lines.append(f"{key},{repr(float(vals.mean()))},{repr(std)},{vals.size}")
    return "\n".join(lines) + "\n"
