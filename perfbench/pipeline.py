"""One pass of ``cssl gen-data -> train -> probe`` for one seed, in process.

The pass calls the package's public functions through their module
attributes (so ``tracing.Tracer`` can wrap them), times each phase, and
checks every output. An operation is a training sequence, a probe grid or a
file round trip; it fails on a ``CsslError``, a non-finite loss or a failed
output check. A failure ends the pass, except an ``acc_final`` below its
floor: that pass goes on, so its timings still count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

from cssl import config, continual, datastore, evaluate
from cssl.errors import CsslError

# One round of file I/O takes tens of milliseconds, so a single round mostly
# measures host noise. Each pass times this many rounds; run.py reports the
# fastest round of the run as datastore.io_s.
IO_REPEATS = 5


@dataclass
class Pass:
    """Timings (seconds), counts and checks of one pipeline pass."""

    setup_s: float = 0.0
    train_s: float = 0.0
    probe_s: float = 0.0
    ckpt_io_s: list[float] = field(default_factory=list)  # one per round
    report_io_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0  # 0 unless every timed phase completed
    steps: int = 0
    acc_final: float = 0.0
    digest: str = ""
    passed: int = 0  # operations that completed and checked out
    problems: list[str] = field(default_factory=list)


class _CheckFailed(Exception):
    pass


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise _CheckFailed(what)


def _build_stream(cfg, dataset):
    if cfg.scenario == continual.Scenario.CLASS_IL:
        return continual.build_class_il(dataset, cfg.num_tasks)
    if cfg.scenario == continual.Scenario.DATA_IL:
        return continual.build_data_il(dataset, cfg.num_tasks, cfg.seeds[0])
    return continual.build_domain_il(dataset, cfg.num_tasks, cfg.seeds[0])


def _expected_steps(cfg, task_size: int) -> int:
    """Steps per task: one per batch per epoch; VICReg and Barlow skip a
    trailing batch of one sample."""
    tc = cfg.train
    batches = -(-task_size // tc.batch_size)
    if (task_size % tc.batch_size == 1
            and tc.loss.method.value in ("vicreg", "barlow")):
        batches -= 1
    return batches * tc.epochs_per_task


def _check_training(cfg, stream, result, with_ft_refs: bool) -> int:
    logs = list(result.task_logs)
    _check(len(logs) == stream.T, f"{len(logs)} task logs, {stream.T} tasks")
    if with_ft_refs:
        _check(len(result.ft_logs) == stream.T, "FT reference count != T")
        logs += result.ft_logs
    tasks = list(stream.tasks) * (2 if with_ft_refs else 1)
    for log, task in zip(logs, tasks):
        _check(all(math.isfinite(v) for v in log.epoch_losses),
               "non-finite epoch loss")
        _check(len(log.epoch_losses) == cfg.train.epochs_per_task,
               "epoch count differs from config")
        expected = _expected_steps(cfg, task.num_samples)
        _check(log.steps == expected,
               f"{log.steps} steps, config implies {expected}")
    return sum(log.steps for log in logs)


def _grid_metrics(am, seed: int) -> dict:
    """The metrics object `cssl probe` writes for one seed."""
    metrics: dict = {"seed": seed}
    for t in range(1, am.T + 1):
        metrics[f"A_{t}"] = evaluate.avg_accuracy(am, t)
    if am.T >= 2:
        metrics["S"] = evaluate.stability(am)
        if am.ft is not None:
            metrics["P"] = evaluate.plasticity(am)
    metrics["a"] = am.a.tolist()
    if am.ft is not None:
        metrics["ft"] = am.ft.tolist()
    return metrics


def _same_params(a, b) -> bool:
    pairs = [(getattr(a, part), getattr(b, part))
             for part in ("encoder", "projector", "predictor")]
    return all(
        len(pa.weights) == len(pb.weights)
        and all(x.shape == y.shape and (x == y).all()
                for x, y in zip(pa.weights + pa.biases,
                                pb.weights + pb.biases))
        for pa, pb in pairs)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_pass(config_path: str, workdir: str, seed: int, with_ft_refs: bool,
             acc_floor: float | None) -> Pass:
    """Run and check one pass; files go to ``workdir`` (overwritten)."""
    out = Pass()
    clock = time.perf_counter
    data_path = os.path.join(workdir, "data.bin")
    json_path = os.path.join(workdir, f"metrics_seed{seed}.json")
    csv_path = os.path.join(workdir, f"metrics_seed{seed}.csv")
    stage = "setup"
    try:
        t_start = clock()
        cfg = config.load_config(config_path)
        d = cfg.dataset
        dataset = datastore.gen_synthetic(d.classes, d.input_dim,
                                          d.samples_per_class, d.radius,
                                          d.sigma, cfg.seeds[0])
        datastore.save_dataset(dataset, data_path)
        loaded = datastore.load_dataset(data_path)
        stream = _build_stream(cfg, loaded)
        out.setup_s = clock() - t_start
        _check(loaded.x.shape == dataset.x.shape
               and (loaded.x == dataset.x).all()
               and (loaded.y == dataset.y).all(), "dataset round trip")
        out.passed += 1

        stage = "train"
        t0 = clock()
        result = continual.run_sequence(stream, cfg.train_for_seed(seed),
                                        with_ft_refs=with_ft_refs)
        out.train_s = clock() - t0
        out.steps = _check_training(cfg, stream, result, with_ft_refs)
        out.passed += 1

        stage = "checkpoint i/o"
        trained = ([("seq", c) for c in result.checkpoints]
                   + [("ft", c) for c in result.ft_checkpoints])
        paths = [os.path.join(workdir, f"seed{seed}_{kind}_task{t}.ckpt")
                 for t, (kind, _c) in enumerate(trained, 1)]
        for _ in range(IO_REPEATS):
            t0 = clock()
            for (_kind, ckpt), path in zip(trained, paths):
                datastore.save_checkpoint(ckpt, path)
            reloaded = [datastore.load_checkpoint(path) for path in paths]
            out.ckpt_io_s.append(clock() - t0)

        stage = "probe"
        T = stream.T
        t0 = clock()
        am = evaluate.fill_accuracy_matrix(
            reloaded[:T], reloaded[T:] if with_ft_refs else None, stream,
            cfg.probe, seed)
        metrics = _grid_metrics(am, seed)
        out.probe_s = clock() - t0
        out.acc_final = metrics[f"A_{T}"]
        _check(am.T == T and (am.ft is not None) == with_ft_refs,
               "probe grid shape")
        if acc_floor is not None and out.acc_final < acc_floor:
            # A failed check, but the pass goes on so its timings still count.
            out.problems.append(f"probe: acc_final {out.acc_final:.4f} "
                                f"below {acc_floor:.4f}")
        else:
            out.passed += 1

        stage = "report i/o"
        json_text = datastore.metrics_json(metrics)
        csv_text = datastore.accuracy_csv(am)
        for _ in range(IO_REPEATS):
            t0 = clock()
            datastore.write_text(json_path, json_text)
            datastore.write_text(csv_path, csv_text)
            out.report_io_s.append(clock() - t0)
        # The pass as `cssl` runs it, with its first round of file I/O only.
        out.wall_s = clock() - t_start - (sum(out.ckpt_io_s[1:])
                                          + sum(out.report_io_s[1:]))

        # Checks that read files back run after the timed pass.
        stage = "checkpoint round trip"
        for (_kind, ckpt), back in zip(trained, reloaded):
            _check(_same_params(ckpt, back), "checkpoint round trip")
            out.passed += 1
        out.digest = hashlib.sha256(
            b"".join(_read(path) for path in paths)).hexdigest()
        stage = "report round trip"
        _check(json.loads(_read(json_path)) == metrics, "metrics JSON")
        _check(_read(csv_path).decode("utf-8") == csv_text, "accuracy CSV")
        out.passed += 2
    except (CsslError, _CheckFailed) as exc:
        out.problems.append(f"{stage}: {type(exc).__name__}: {exc}")
    return out


def planned_ops(num_tasks: int, with_ft_refs: bool) -> int:
    """Operations in one pass: dataset round trip, training, checkpoints,
    probe grid, metrics JSON and CSV."""
    return 1 + 1 + num_tasks * (2 if with_ft_refs else 1) + 1 + 2
