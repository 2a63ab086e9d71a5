"""Run one benchmark workload and print its metrics as the last output line.

Usage, from the repository root::

    python3 perfbench/run.py --workload simclr-pnr-classil --seed 1 \\
        --seconds 40 --trace 0

The run does what ``cssl gen-data``, ``cssl train`` and ``cssl probe`` do for
one seed, in this single-threaded process, and repeats that pass until the
next one would end after ``--seconds`` (two passes at least). With
``--trace 0`` it reports the end-to-end metrics, medians over the passes.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``datastore.io_s``: the fastest
file I/O round of the untraced ones. Every pass repeats the first one's
inputs, so its checkpoints must match the first pass byte for byte (traced
passes included). The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with status 2. Scratch files go to a
``.perfbench-*`` directory in the repository root, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from spec import END_TO_END, PER_LAYER
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: one epoch per task and a 5-epoch probe, for "
                        "selftest.py; skips the acc_final floor")
    return p.parse_args(argv)


def machine_record(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _fastest_io(passes) -> float:
    """One round of checkpoint and report I/O, at its fastest in the run:
    a round lasts tens of milliseconds, and host noise only adds time."""
    return (min((t for p in passes for t in p.ckpt_io_s), default=0.0)
            + min((t for p in passes for t in p.report_io_s), default=0.0))


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "cssl", "__init__.py")):
        print(f"perfbench: no cssl package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    for var in THREAD_VARS:
        os.environ[var] = "1"

    t_process = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy as np
    import cssl
    import_s = time.perf_counter() - t_process
    if os.path.dirname(os.path.dirname(os.path.abspath(cssl.__file__))) != SRC:
        print(f"perfbench: imported cssl from {cssl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import yaml
    from pipeline import planned_ops, run_pass
    from tracing import Tracer, layer_metrics

    wl = WORKLOADS[args.workload]
    smoke = args.scale == "smoke"
    acc_floor = None if smoke else wl.acc_reference * (1 - bounds["acc_final"])
    cfg = wl.config(args.seed, smoke)
    planned = planned_ops(cfg["num_tasks"], wl.with_ft_refs)
    deadline = t_process + args.seconds
    plain, traced, layers, loop_s = [], [], [], []
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        config_path = os.path.join(workdir, "config.yaml")
        with open(config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
        while True:
            t0 = time.perf_counter()
            if args.trace and len(traced) < len(plain):
                with Tracer() as tracer:
                    result = run_pass(config_path, workdir, args.seed,
                                      wl.with_ft_refs, acc_floor)
                traced.append(result)
                if result.wall_s:
                    layers.append(layer_metrics(tracer))
                del tracer
            else:
                plain.append(run_pass(config_path, workdir, args.seed,
                                      wl.with_ft_refs, acc_floor))
            loop_s.append(time.perf_counter() - t0)
            enough = (traced and plain) if args.trace else (
                len(plain) >= MIN_PASSES)
            if enough and time.perf_counter() + max(loop_s[-2:]) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = planned * len(passes) + len(passes) - 1
    failed = sum(planned - p.passed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
    finished = [p for p in passes if p.digest]
    for p in finished[1:]:
        if (p.digest, p.acc_final) != (finished[0].digest,
                                       finished[0].acc_final):
            failed += 1
            print("perfbench: a repeated pass changed its checkpoints",
                  file=sys.stderr)

    # Passes whose timed phases all ran; a failed check after them (say, the
    # acc_final floor) still leaves their timings valid.
    ok = [p for p in plain if p.wall_s]
    if args.trace:
        metrics = {name: _median([m[name] for m in layers])
                   for name in layers[0]} if layers else {}
        ok_traced = [p.wall_s for p in traced if p.wall_s]
        metrics["datastore.io_s"] = _fastest_io(ok)
        metrics["trace.overhead_frac"] = (
            _median(ok_traced) / _median([p.wall_s for p in ok]) - 1.0
            if ok and ok_traced else 0.0)
        declared = PER_LAYER
    else:
        metrics = {
            "setup_s": import_s + _median([p.setup_s for p in ok]),
            "train_s": _median([p.train_s for p in ok]),
            "train_steps_per_s": _median([p.steps / p.train_s for p in ok]),
            "probe_s": _median([p.probe_s for p in ok]),
            "wall_s": import_s + _median([p.wall_s for p in ok]),
            "acc_final": ok[0].acc_final if ok else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = END_TO_END

    print("machine: " + json.dumps(machine_record(np), sort_keys=True))
    print(f"workload: {wl.name} seed {args.seed} scale {args.scale} "
          f"passes {len(plain)} untraced + {len(traced)} traced")
    print(f"checkpoint-sha256: {finished[0].digest if finished else ''}")
    print("passes: " + json.dumps([
        {"traced": p in traced, "setup_s": round(p.setup_s, 4),
         "train_s": round(p.train_s, 4), "probe_s": round(p.probe_s, 4),
         "io_s": round(_fastest_io([p]), 4),
         "wall_s": round(p.wall_s, 4)}
        for p in passes]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit, *_rest in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
