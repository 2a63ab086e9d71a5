"""Synthetic data generation, binary file formats, and report writers.

Binary layouts (all integers little-endian unsigned 32-bit, all floats
little-endian IEEE-754 doubles, matrices row-major):

Dataset file::

    magic  8 bytes  b"CSSLDAT\\0"
    u32    version (currently 1)
    u32    M (samples), u32 D (input dim), u32 C (class count)
    u32    domain tag (0xFFFFFFFF when absent)
    f64[M*D]  samples, row-major
    u32[M]    labels
    u64    FNV-1a checksum over the sample + label bytes

Checkpoint file::

    magic  8 bytes  b"CSSLCKP\\0"
    u32    version (currently 1)
    payload: for each of encoder/projector/predictor:
        u32 layer count, then per layer u32 out, u32 in,
        f64[out*in] weight (row-major), f64[out] bias
    u64    FNV-1a checksum over the payload bytes

Writes are atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .continual import LabeledDataset
from .errors import (
    BadMagic,
    ChecksumFail,
    RejectionExhausted,
    TruncatedFile,
    VersionMismatch,
)
from .evaluate import AccuracyMatrix
from .model import EncoderStack, MlpParams
from .numerics import Rng, fnv1a64

DATASET_MAGIC = b"CSSLDAT\0"
CHECKPOINT_MAGIC = b"CSSLCKP\0"
FORMAT_VERSION = 1
_NO_DOMAIN = 0xFFFFFFFF

MAX_MEAN_TRIES = 10_000


def gen_synthetic(C: int, D_in: int, n_per_class: int, radius: float,
                  sigma: float, seed: int) -> LabeledDataset:
    """Gaussian class clusters around means drawn uniformly on a sphere.

    Rejection sampling enforces pairwise mean separation >= radius/sqrt(C).
    ``sigma`` scales the expected noise *norm* as a fraction of the radius:
    each coordinate gets std sigma*radius/sqrt(D_in), so a sample sits at
    distance ~sigma*radius from its mean regardless of dimension. sigma = 0
    collapses every sample onto its class mean.
    """
    if C < 2 or D_in < 2 or n_per_class < 1 or radius <= 0 or sigma < 0:
        raise ValueError("bad synthetic dataset parameters")
    rng = Rng(seed).derive("synthetic-data")
    min_sep = radius / np.sqrt(C)
    means: list[np.ndarray] = []
    tries = 0
    while len(means) < C:
        if tries >= MAX_MEAN_TRIES:
            raise RejectionExhausted(
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
        x = x + rng.gaussian(C * n_per_class * D_in, 0.0,
                             per_dim_std).reshape(C * n_per_class, D_in)
    y = np.repeat(np.arange(C, dtype=np.int64), n_per_class)
    return LabeledDataset(x, y)


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFile(f"{self.path}: ended {n} bytes early")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def save_dataset(ds: LabeledDataset, path: str) -> None:
    m, d = ds.x.shape
    c = int(ds.y.max()) + 1 if ds.y.size else 0
    domain = _NO_DOMAIN if ds.domain_id is None else int(ds.domain_id)
    header = DATASET_MAGIC + struct.pack("<IIIII", FORMAT_VERSION, m, d, c, domain)
    payload = ds.x.astype("<f8").tobytes() + ds.y.astype("<u4").tobytes()
    checksum = struct.pack("<Q", fnv1a64(payload))
    _atomic_write(path, header + payload + checksum)


def load_dataset(path: str) -> LabeledDataset:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    if r.take(8) != DATASET_MAGIC:
        raise BadMagic(f"{path}: not a dataset file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: version {version} unsupported")
    m, d, _c, domain = r.u32(), r.u32(), r.u32(), r.u32()
    payload = r.take(m * d * 8 + m * 4)
    stored = r.u64()
    if fnv1a64(payload) != stored:
        raise ChecksumFail(f"{path}: dataset checksum mismatch")
    x = np.frombuffer(payload[:m * d * 8], dtype="<f8").reshape(m, d).copy()
    y = np.frombuffer(payload[m * d * 8:], dtype="<u4").astype(np.int64)
    return LabeledDataset(x, y, domain_id=None if domain == _NO_DOMAIN else domain)


def stack_bytes(stack: EncoderStack) -> bytes:
    """The checkpoint payload (see the module docstring); tests also use it
    for isolation checks and determinism hashing."""
    chunks: list[bytes] = []
    pos = 0
    for shapes in stack.layout:
        chunks.append(struct.pack("<I", len(shapes)))
        for out_dim, in_dim in shapes:
            n = out_dim * in_dim + out_dim
            chunks.append(struct.pack("<II", out_dim, in_dim))
            chunks.append(stack.flat[pos:pos + n].astype("<f8").tobytes())
            pos += n
    return b"".join(chunks)


def save_checkpoint(stack: EncoderStack, path: str) -> None:
    payload = stack_bytes(stack)
    data = (CHECKPOINT_MAGIC + struct.pack("<I", FORMAT_VERSION) + payload
            + struct.pack("<Q", fnv1a64(payload)))
    _atomic_write(path, data)


def _read_mlp(r: _Reader) -> MlpParams:
    n_layers = r.u32()
    if n_layers == 0 or n_layers > 1000:
        raise TruncatedFile(f"{r.path}: implausible layer count {n_layers}")
    weights, biases = [], []
    for _ in range(n_layers):
        out_dim, in_dim = r.u32(), r.u32()
        weights.append(np.frombuffer(r.take(out_dim * in_dim * 8),
                                     dtype="<f8").reshape(out_dim, in_dim))
        biases.append(np.frombuffer(r.take(out_dim * 8), dtype="<f8"))
    return MlpParams(weights, biases)


def load_checkpoint(path: str) -> EncoderStack:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    if r.take(8) != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a checkpoint file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: version {version} unsupported")
    payload_start = r.pos
    if len(r.data) < payload_start + 8:
        raise TruncatedFile(f"{path}: missing checksum")
    payload = r.data[payload_start:-8]
    stored = struct.unpack("<Q", r.data[-8:])[0]
    if fnv1a64(payload) != stored:
        raise ChecksumFail(f"{path}: checkpoint checksum mismatch")
    encoder = _read_mlp(r)
    projector = _read_mlp(r)
    predictor = _read_mlp(r)
    if r.pos != len(r.data) - 8:
        raise TruncatedFile(f"{path}: trailing bytes before checksum")
    return EncoderStack(encoder, projector, predictor)


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

    Aggregates every top-level scalar key of the first object except
    ``seed``, which labels a run; the sample std uses ddof=1 when more than
    one run is present, else 0.
    """
    if not metric_dicts:
        raise ValueError("nothing to aggregate")
    scalars = [{k: v for k, v in m.items()
                if isinstance(v, (int, float)) and k != "seed"}
               for m in metric_dicts]
    lines = ["metric,mean,std,n"]
    for key in sorted(scalars[0]):
        vals = np.array([float(m[key]) for m in scalars if key in m])
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        lines.append(f"{key},{repr(float(vals.mean()))},{repr(std)},{vals.size}")
    return "\n".join(lines) + "\n"
