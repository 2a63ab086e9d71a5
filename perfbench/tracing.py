"""Read-only span tracing around the package's layer boundaries.

Each traced function is replaced, at the name its caller looks up, by a
wrapper that calls the original with the same arguments and returns its
result unchanged. The wrapper records one span: name, start, end, parent
span and, for a few functions, a size read from the arguments or result.
Spans stay in memory until the pass ends; ``layer_metrics`` then turns
them into the per-layer metrics declared in ``spec.PER_LAYER``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

TRAIN_TASK = "continual.train_task"


def _regularized(args, _out):
    return args[1] is not None  # frozen_prev: tasks 2..T of the sequence


def _shape(args, _out):
    return args[0].shape


def _rows_out(_args, out):
    return out.shape[0]


def _rows_in(args, _out):
    return args[1].shape[0]


def _nbytes(args, _out):
    return len(args[0])


# (module or class path, attribute, span name, size recorder)
PATCHES = [
    ("cssl.continual", "train_task", TRAIN_TASK, _regularized),
    ("cssl.continual", "two_views", "continual.two_views", None),
    ("cssl.continual", "encode_views", "continual.encode_views", None),
    ("cssl.continual", "backprop_views", "continual.backprop_views", None),
    ("cssl.continual", "forward", "model.forward", None),
    ("cssl.continual", "backward", "model.backward", None),
    ("cssl.continual", "sgd_step", "model.sgd_step", None),
    ("cssl.continual", "ema_update", "model.ema_update", None),
    ("cssl.continual", "total_loss", "losses.total_loss", None),
    ("cssl.losses", "logsumexp_rows", "numerics.logsumexp_rows", _shape),
    ("cssl.losses:ContrastiveViews", "validate_norms", "losses.validate_norms",
     None),
    ("cssl.numerics:Rng", "permutation", "numerics.permutation", None),
    ("cssl.embedding_queue:EmbeddingQueue", "snapshot",
     "embedding_queue.snapshot", _rows_out),
    ("cssl.embedding_queue:EmbeddingQueue", "enqueue",
     "embedding_queue.enqueue", _rows_in),
    ("cssl.evaluate", "linear_probe", "evaluate.linear_probe", None),
    ("cssl.evaluate", "encoder_features", "evaluate.encoder_features", None),
    ("cssl.datastore", "fnv1a64", "numerics.fnv1a64", _nbytes),
    # The calls the benchmark itself makes (pipeline.py calls through these
    # module attributes).
    ("cssl.config", "load_config", "config.load_config", None),
    ("cssl.datastore", "save_dataset", "datastore.save_dataset", None),
    ("cssl.datastore", "load_dataset", "datastore.load_dataset", None),
    ("cssl.datastore", "save_checkpoint", "datastore.save_checkpoint", None),
    ("cssl.datastore", "load_checkpoint", "datastore.load_checkpoint", None),
]


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Patches ``PATCHES`` on entry and restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent, size)
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, nid: int, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, t0, clock(), parent, None)
                raise
            finally:
                stack.pop()
            spans[idx] = (nid, t0, clock(), parent,
                          size(args, out) if size else None)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for path, attr, name, size in PATCHES:
            self.names.append(name)
            owner = _resolve(path)
            original = owner.__dict__.get(attr)
            if original is None:
                # Renamed or removed by a later change: its metrics read 0.
                print(f"perfbench: cannot trace {path}.{attr}",
                      file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, len(self.names) - 1,
                                            size))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return float(statistics.quantiles(values, n=100)[98])


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass (see spec.PER_LAYER).

    Durations are medians per call, inclusive of children, unless the name
    says otherwise. Self time is a span's duration minus its direct
    children's (calls are sequential, so children never overlap).
    """
    ids = {name: k for k, name in enumerate(tr.names)}
    spans = tr.spans
    task_id = ids[TRAIN_TASK]
    by_name: dict[int, list[int]] = {k: [] for k in range(len(tr.names))}
    children_ns = [0] * len(spans)
    task_of = [-1] * len(spans)  # enclosing train_task span, if any
    for i, (nid, t0, t1, parent, _size) in enumerate(spans):
        by_name[nid].append(i)
        if parent >= 0:
            children_ns[parent] += t1 - t0
            task_of[i] = task_of[parent]
        if nid == task_id:
            task_of[i] = i

    def dur(i: int) -> int:
        return spans[i][2] - spans[i][1]

    def us(name: str) -> float:
        return _median([dur(i) / 1e3 for i in by_name[ids[name]]])

    def in_regularized(name: str) -> list[int]:
        return [i for i in by_name[ids[name]]
                if task_of[i] >= 0 and spans[task_of[i]][4]]

    # One step runs from the start of two_views to the end of sgd_step.
    steps_us: list[float] = []
    starts: dict[int, int] = {}
    for i in sorted(by_name[ids["continual.two_views"]]
                    + by_name[ids["model.sgd_step"]]):
        if spans[i][0] == ids["continual.two_views"]:
            starts[task_of[i]] = spans[i][1]
        elif task_of[i] in starts:
            steps_us.append((spans[i][2] - starts.pop(task_of[i])) / 1e3)
    reg_steps = max(len(in_regularized("model.sgd_step")), 1)

    lse = [spans[i][4] for i in in_regularized("numerics.logsumexp_rows")]
    queue_rows = sum(spans[i][4] for name in ("embedding_queue.snapshot",
                                              "embedding_queue.enqueue")
                     for i in in_regularized(name))
    fnv = by_name[ids["numerics.fnv1a64"]]
    fnv_bytes = sum(spans[i][4] for i in fnv)
    fnv_s = sum(dur(i) for i in fnv) / 1e9

    return {
        "continual.step_us_p50": _median(steps_us),
        "continual.step_us_p99": _p99(steps_us),
        "continual.step_us_p99_samples": float(len(steps_us)),
        "continual.two_views_us": us("continual.two_views"),
        "continual.encode_views_us": us("continual.encode_views"),
        "continual.backprop_views_us": us("continual.backprop_views"),
        "continual.train_task_self_s": sum(
            dur(i) - children_ns[i] for i in by_name[task_id]) / 1e9,
        "numerics.permutation_us": us("numerics.permutation"),
        "numerics.fnv1a64_s_per_mb": fnv_s / (fnv_bytes / 1e6)
        if fnv_bytes else 0.0,
        "numerics.logsumexp_rows_us": us("numerics.logsumexp_rows"),
        "losses.total_loss_us": us("losses.total_loss"),
        "losses.validate_norms_calls_per_step":
            len(in_regularized("losses.validate_norms")) / reg_steps,
        "losses.pool_cols_per_anchor":
            _median([cols for _rows, cols in lse]),
        "losses.logits_mb_per_step":
            sum(rows * cols * 8 for rows, cols in lse) / 1e6 / reg_steps,
        "model.forward_us": us("model.forward"),
        "model.forward_calls_per_step":
            len(in_regularized("model.forward")) / reg_steps,
        "model.backward_us": us("model.backward"),
        "model.sgd_step_us": us("model.sgd_step"),
        "model.ema_update_us": us("model.ema_update"),
        "embedding_queue.snapshot_us": us("embedding_queue.snapshot"),
        "embedding_queue.enqueue_us": us("embedding_queue.enqueue"),
        "embedding_queue.rows_copied_per_step": queue_rows / reg_steps,
        "evaluate.linear_probe_ms": us("evaluate.linear_probe") / 1e3,
        "evaluate.encoder_features_us": us("evaluate.encoder_features"),
        "evaluate.probe_calls":
            float(len(by_name[ids["evaluate.linear_probe"]])),
        "datastore.dataset_io_s": sum(
            dur(i) for name in ("datastore.save_dataset",
                                "datastore.load_dataset")
            for i in by_name[ids[name]]) / 1e9,
        "datastore.save_checkpoint_ms": us("datastore.save_checkpoint") / 1e3,
        "datastore.load_checkpoint_ms": us("datastore.load_checkpoint") / 1e3,
        "datastore.bytes_checksummed": float(fnv_bytes),
        "config.load_config_ms": us("config.load_config") / 1e3,
    }
