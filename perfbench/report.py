"""Run workloads over several seeds and print every metric with its unit.

Usage, from the repository root::

    python3 perfbench/report.py                    # all workloads, seeds 1-3
    python3 perfbench/report.py --seeds 1-10 --save perfbench/baseline.json
    python3 perfbench/report.py --trace 1 --seeds 1
    python3 perfbench/report.py --against perfbench/baseline.json

Each run is a fresh ``run.py`` process, one after another. For each workload
and metric the table gives the median over seeds, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the bound in ``BENCHMARK.json``. ``failed_frac``
is failed operations over attempted ones, summed over the runs. ``--save``
writes these figures, the machine record and the layer map to a JSON file
(one section per trace setting); ``--against`` compares medians with such a
file, using the same bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from spec import END_TO_END, PER_LAYER, layer_map
from workloads import WORKLOADS

BETTER = {name: better for name, _unit, better, *_r in END_TO_END + PER_LAYER}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int
         ) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), {})
    return json.loads(lines[-1]), machine


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and values of each metric over a workload's runs."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out = {"runs": len(results), "correct": all(r["correct"] for r in results),
           "attempted": attempted, "failed": failed,
           "failed_frac": failed / attempted, "metrics": {}}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3 = _quartiles(values)
        out["metrics"][name] = {"unit": entry["unit"], "median": med,
                                "q1": q1, "q3": q3, "values": values}
    return out


def _spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def print_table(name: str, summary: dict, bounds: dict,
                against: dict | None) -> None:
    print(f"\n{name}: {summary['runs']} runs, correct={summary['correct']}")
    print(f"  {'metric':40s} {'unit':12s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>7s} {'bound':>6s}"
          + ("  vs saved" if against else ""))
    for metric, m in summary["metrics"].items():
        bound = bounds.get(metric)
        line = (f"  {metric:40s} {m['unit']:12s} {m['median']:14.6g} "
                f"{m['q1']:14.6g} {m['q3']:14.6g} {_spread(m):7.3f} "
                + (f"{bound:6.3f}" if bound is not None else f"{'-':>6s}"))
        if bound is not None and metric != "setup_s":
            line += "" if _spread(m) <= bound / 3 else (
                "  WIDE" if _spread(m) <= bound else "  TOO WIDE")
        old = (against or {}).get("metrics", {}).get(metric)
        if old and old["median"]:
            change = m["median"] / old["median"] - 1
            line += f"  {change:+.3f}"
            worse = -change if BETTER.get(metric) == "higher" else change
            if bound is not None and worse > bound:
                line += " REGRESSION"
        print(line)
    # Not a declared metric: it is 0 on a healthy commit, and bounds are
    # shares of a median.
    print(f"  {'failed_frac':40s} {'fraction':12s} "
          f"{summary['failed_frac']:14.6g}   "
          f"({summary['failed']} of {summary['attempted']} operations)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-3")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", default=None, help="write figures to this JSON")
    p.add_argument("--label", default="",
                   help="what was measured (say, a commit), kept by --save")
    p.add_argument("--against", default=None,
                   help="compare medians with a file written by --save")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    against = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            against = json.load(fh).get(section, {})

    summaries, machine = {}, {}
    seeds = _seeds(args.seeds)
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            print(f"running {workload} seed {seed} trace {args.trace}",
                  file=sys.stderr, flush=True)
            result, machine = _run(workload, seed, seconds, args.trace)
            results.append(result)
        summaries[workload] = summarize(results)
        print_table(workload, summaries[workload], bounds,
                    (against or {}).get(workload))
    print("\nmachine: " + json.dumps(machine, sort_keys=True))

    if args.save:
        saved = {}
        if os.path.exists(args.save):
            with open(args.save, encoding="utf-8") as fh:
                saved = json.load(fh)
        saved.update({"label": args.label, "machine": machine,
                      "layer_map": layer_map(),
                      "why": {w.name: w.why for w in WORKLOADS.values()}})
        saved[section] = {"run_seconds": seconds, "seeds": seeds,
                          **summaries}
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
