"""Metric declarations shared by the runner, the report and the self-test.

``BENCHMARK.json`` at the repository root declares the same names and units;
``selftest.py`` checks that the two agree and that every run emits them.
"""

from __future__ import annotations

# (name, unit, better). Measured with tracing off, one value per run.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("train_steps_per_s", "steps/s", "higher"),
    ("probe_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("acc_final", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

SIMCLR = "simclr-pnr-classil"
MOCO = "moco-pnr-queue"
BYOL = "byol-pnr-domainil-probe"

# (name, unit, better, [(end-to-end metric it should move, workload), ...]),
# from one traced run per workload; tracing.py says how each is computed.
# Times in us/ms are medians per call; datastore.bytes_checksummed counts one
# pass, whose checkpoint and report writes run pipeline.IO_REPEATS times.
# "Per step" counts are over the steps of tasks 2..T of the sequential run,
# where the configured regime is in force; the step percentiles cover every
# step, FT references included. The pairs name where a change to
# the layer should show most; on byol-pnr-domainil-probe a change confined to
# losses or embedding_queue should show no change at all.
_TRAIN = "train_steps_per_s"
PER_LAYER = [
    ("continual.step_us_p50", "us", "lower",
     [(_TRAIN, SIMCLR), (_TRAIN, BYOL)]),
    ("continual.step_us_p99", "us", "lower",
     [(_TRAIN, SIMCLR), (_TRAIN, BYOL)]),
    ("continual.step_us_p99_samples", "count", "higher", []),
    ("continual.two_views_us", "us", "lower",
     [(_TRAIN, SIMCLR), (_TRAIN, BYOL)]),
    ("continual.encode_views_us", "us", "lower",
     [(_TRAIN, SIMCLR), (_TRAIN, BYOL)]),
    ("continual.backprop_views_us", "us", "lower",
     [(_TRAIN, SIMCLR), (_TRAIN, BYOL)]),
    ("continual.train_task_self_s", "s", "lower",
     [(_TRAIN, SIMCLR), (_TRAIN, BYOL)]),
    ("numerics.permutation_us", "us", "lower",
     [(_TRAIN, SIMCLR), ("probe_s", BYOL)]),
    ("numerics.fnv1a64_s_per_mb", "s/MB", "lower",
     [("setup_s", BYOL), ("wall_s", BYOL)]),
    ("numerics.logsumexp_rows_us", "us", "lower", [(_TRAIN, MOCO)]),
    ("losses.total_loss_us", "us", "lower",
     [(_TRAIN, MOCO), (_TRAIN, SIMCLR)]),
    ("losses.validate_norms_calls_per_step", "count", "lower",
     [(_TRAIN, MOCO), (_TRAIN, SIMCLR)]),
    ("losses.pool_cols_per_anchor", "count", "lower",
     [(_TRAIN, MOCO), (_TRAIN, SIMCLR)]),
    ("losses.logits_mb_per_step", "MB_computed", "lower",
     [(_TRAIN, MOCO), (_TRAIN, SIMCLR)]),
    ("model.forward_us", "us", "lower",
     [(_TRAIN, BYOL), (_TRAIN, SIMCLR), (_TRAIN, MOCO)]),
    ("model.forward_calls_per_step", "count", "lower",
     [(_TRAIN, BYOL), (_TRAIN, SIMCLR), (_TRAIN, MOCO)]),
    ("model.backward_us", "us", "lower",
     [(_TRAIN, BYOL), (_TRAIN, SIMCLR), (_TRAIN, MOCO)]),
    ("model.sgd_step_us", "us", "lower",
     [(_TRAIN, BYOL), (_TRAIN, SIMCLR), (_TRAIN, MOCO)]),
    ("model.ema_update_us", "us", "lower", [(_TRAIN, BYOL)]),
    ("embedding_queue.snapshot_us", "us", "lower", [(_TRAIN, MOCO)]),
    ("embedding_queue.enqueue_us", "us", "lower", [(_TRAIN, MOCO)]),
    ("embedding_queue.rows_copied_per_step", "count", "lower",
     [(_TRAIN, MOCO)]),
    ("evaluate.linear_probe_ms", "ms", "lower",
     [("probe_s", BYOL), ("probe_s", SIMCLR)]),
    ("evaluate.encoder_features_us", "us", "lower",
     [("probe_s", BYOL), ("probe_s", SIMCLR)]),
    ("evaluate.probe_calls", "count", "lower",
     [("probe_s", BYOL), ("probe_s", SIMCLR)]),
    ("datastore.dataset_io_s", "s", "lower", [("setup_s", BYOL)]),
    ("datastore.io_s", "s", "lower", [("wall_s", BYOL), ("wall_s", SIMCLR)]),
    ("datastore.save_checkpoint_ms", "ms", "lower", [("wall_s", BYOL)]),
    ("datastore.load_checkpoint_ms", "ms", "lower", [("wall_s", BYOL)]),
    ("datastore.bytes_checksummed", "bytes", "lower",
     [("setup_s", BYOL), ("wall_s", BYOL)]),
    ("config.load_config_ms", "ms", "lower", [("setup_s", BYOL)]),
    ("trace.overhead_frac", "fraction", "lower", []),
]

def layer_map() -> list[dict]:
    """The layer metric -> end-to-end metric -> workload map, as records."""
    return [{"layer_metric": name, "unit": unit,
             "moves": [{"metric": m, "workload": w} for m, w in moves]}
            for name, unit, _better, moves in PER_LAYER]
