"""Command-line entry points.

Subcommands: gen-data, train, probe, gradcheck, report. Exit codes: 0 on
success, 1 on validation failure (bad config, bad arguments, failed
gradient check), 2 on I/O failure (missing/corrupt files).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .config import DEFAULT_CONFIG_YAML, ExperimentConfig, load_config
from .continual import (
    Scenario,
    TaskStream,
    build_class_il,
    build_data_il,
    build_domain_il,
    run_sequence,
)
from .datastore import (
    accuracy_csv,
    aggregate_metrics,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    metrics_json,
    save_checkpoint,
    save_dataset,
    write_text,
)
from .errors import ConfigError, CorruptFile, CsslError
from .evaluate import avg_accuracy, fill_accuracy_matrix, plasticity, stability
from .gradcheck import run_gradcheck


def _config_and_stream(args) -> tuple[ExperimentConfig, TaskStream]:
    """The config and the task stream that every seed shares."""
    cfg = load_config(args.config)
    dataset = load_dataset(args.data)
    if dataset.input_dim != cfg.train.encoder_dims[0]:
        raise CsslError(f"{args.data}: input width {dataset.input_dim} does "
                        f"not match model.encoder_dims[0] = "
                        f"{cfg.train.encoder_dims[0]}")
    if cfg.scenario == Scenario.CLASS_IL:
        return cfg, build_class_il(dataset, cfg.num_tasks)
    if cfg.scenario == Scenario.DATA_IL:
        return cfg, build_data_il(dataset, cfg.num_tasks, cfg.seeds[0])
    return cfg, build_domain_il(dataset, cfg.num_tasks, cfg.seeds[0])


def _cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    d = cfg.dataset
    ds = gen_synthetic(d.classes, d.input_dim, d.samples_per_class,
                       d.radius, d.sigma, cfg.seeds[0])
    save_dataset(ds, args.out)
    print(f"wrote {ds.num_samples} samples ({d.classes} classes, "
          f"dim {d.input_dim}) to {args.out}")
    return 0


def _ckpt_path(out_dir: str, seed: int, kind: str, t: int | str) -> str:
    return os.path.join(out_dir, f"seed{seed}_{kind}_task{t}.ckpt")


def _cmd_train(args) -> int:
    cfg, stream = _config_and_stream(args)
    os.makedirs(args.out_dir, exist_ok=True)
    log: dict = {"scenario": cfg.scenario, "num_tasks": cfg.num_tasks,
                 "method": cfg.train.loss.method.value,
                 "regime": cfg.train.loss.regime.value, "seeds": {}}
    for seed in cfg.seeds:
        if args.no_ft_refs:  # else probe reads an earlier run's references
            for path in glob.glob(_ckpt_path(glob.escape(args.out_dir), seed,
                                             "ft", "*")):
                os.remove(path)
        result = run_sequence(stream, cfg.train_for_seed(seed),
                              with_ft_refs=not args.no_ft_refs)
        for t, ckpt in enumerate(result.checkpoints, 1):
            save_checkpoint(ckpt, _ckpt_path(args.out_dir, seed, "seq", t))
        for t, ckpt in enumerate(result.ft_checkpoints, 1):
            save_checkpoint(ckpt, _ckpt_path(args.out_dir, seed, "ft", t))
        log["seeds"][str(seed)] = {
            "task_losses": [lg.epoch_losses for lg in result.task_logs],
            "ft_losses": [lg.epoch_losses for lg in result.ft_logs],
        }
        print(f"seed {seed}: trained {stream.T} tasks "
              f"(+{len(result.ft_checkpoints)} FT references)")
    write_text(os.path.join(args.out_dir, "train_log.json"),
               metrics_json(log))
    return 0


def _cmd_probe(args) -> int:
    cfg, stream = _config_and_stream(args)
    all_metrics = []
    for seed in cfg.seeds:
        tasks = range(1, cfg.num_tasks + 1)
        checkpoints = [load_checkpoint(_ckpt_path(args.checkpoints, seed,
                                                  "seq", t)) for t in tasks]
        ft_paths = [_ckpt_path(args.checkpoints, seed, "ft", t) for t in tasks]
        missing = [p for p in ft_paths if not os.path.exists(p)]
        if missing and len(missing) < len(ft_paths):
            raise CsslError(f"{missing[0]} is missing, but other FT "
                            "reference checkpoints of this seed exist")
        ft = None if missing else [load_checkpoint(p) for p in ft_paths]
        am = fill_accuracy_matrix(checkpoints, ft, stream, cfg.probe, seed)
        metrics: dict = {"seed": seed}
        for t in range(1, am.T + 1):
            metrics[f"A_{t}"] = avg_accuracy(am, t)
        if am.T >= 2:
            metrics["S"] = stability(am)
            if ft is not None:
                metrics["P"] = plasticity(am)
        metrics["a"] = am.a.tolist()
        if am.ft is not None:
            metrics["ft"] = am.ft.tolist()
        all_metrics.append(metrics)
        write_text(f"{args.out}_seed{seed}.csv", accuracy_csv(am))
        write_text(f"{args.out}_seed{seed}.json", metrics_json(metrics))
        print(f"seed {seed}: A_{am.T} = {metrics[f'A_{am.T}']:.4f}")
    write_text(f"{args.out}_summary.csv", aggregate_metrics(all_metrics))
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_gradcheck(trials=args.trials, loss=args.loss)
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: max err {r.max_err:.3e} "
              f"(tol {r.tol:.0e}, {r.trials} trials, {r.elapsed:.2f}s)")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} gradient check(s) failed", file=sys.stderr)
        return 1
    print("all gradient checks passed")
    return 0


def _cmd_report(args) -> int:
    dicts = []
    for path in args.metrics:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                dicts.append(json.load(fh))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise CsslError(f"{path}: {exc}") from exc
        if not isinstance(dicts[-1], dict):
            raise CsslError(f"{path}: metrics must be a JSON object")
    csv = aggregate_metrics(dicts)
    if args.out:
        write_text(args.out, csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_default_config(args) -> int:
    if args.out:
        write_text(args.out, DEFAULT_CONFIG_YAML)
    else:
        sys.stdout.write(DEFAULT_CONFIG_YAML)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cssl",
        description="Continual self-supervised learning with pseudo-negatives")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run the incremental training sequence")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--no-ft-refs", action="store_true",
                   help="skip the single-task reference models")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("probe", help="probe checkpoints and write metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--out", required=True,
                   help="output path prefix for CSV/JSON")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--loss", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="aggregate per-seed metrics JSONs")
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("default-config", help="print the default config YAML")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_default_config)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CorruptFile, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # CsslError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
