"""The benchmark's trace points exist in the package and are reached.

``perfbench/tracing.py`` wraps functions at the names their callers look
up. A refactor that renames one only prints "cannot trace" at benchmark
time and zeroes the per-layer metric, so this checks every entry here; one
that stops calling a function through its traced name leaves the metric at
zero just as silently, so a toy run must record a span for each entry.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cssl import continual, evaluate
from cssl.losses import Method, PnrConfig, Regime
from cssl.model import init_stack
from cssl.numerics import Rng

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracing = _load_tracing()
    missing = [f"{path}.{attr}" for path, attr, _, _ in tracing.PATCHES
               if tracing._resolve(path).__dict__.get(attr) is None]
    assert tracing.PATCHES
    assert not missing, f"cannot trace {missing}"


def test_every_trace_point_is_reached():
    # Config loading and file I/O are the benchmark pipeline's own calls;
    # everything else must be reached by training and probing.
    tracing = _load_tracing()
    ds = continual.LabeledDataset(Rng(1).gaussian_matrix(16, 6),
                                  np.repeat(np.arange(4), 4))
    stream = continual.build_class_il(ds, 2)
    dims = dict(encoder_dims=[6, 5, 4], projector_dims=[4, 4],
                predictor_dims=[4, 4])
    with tracing.Tracer() as tr:
        for method in (Method.MOCO, Method.BYOL):
            cfg = continual.TrainConfig(
                epochs_per_task=1, batch_size=4, queue_capacity=8, **dims,
                loss=PnrConfig(method=method, regime=Regime.PNR))
            stack = init_stack(Rng(2), **dims)
            stack, _ = continual.train_task(stack, None, stream.tasks[0], cfg)
            continual.train_task(stack, stack.clone(), stream.tasks[1], cfg,
                                 task_index=2)
        evaluate.fill_accuracy_matrix([stack, stack], None, stream,
                                      evaluate.ProbeConfig(epochs=2), 1)
    reached = {tr.names[span[0]] for span in tr.spans}
    unreached = [name for path, _, name, _ in tracing.PATCHES
                 if not path.startswith(("cssl.config", "cssl.datastore"))
                 and name not in reached]
    assert not unreached, f"no span recorded for {unreached}"
