"""Steadiness check: run each workload over several seeds and report the
spread of every end-to-end metric.

    python3 perfbench/steady.py --workloads sniff-iq,sniff-msg --seeds 10 \
        --out perfbench/steadiness.json

Runs ``perfbench/run.py`` once per (workload, seed), one after the other,
with ``run_seconds`` from ``BENCHMARK.json``.  For each metric it reports
the median over seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread within a third of the metric's bound passes.  With
``--out`` the per-run values are merged into that JSON file, keyed by
workload, so evidence for several workloads can be gathered in steps.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    evidence = {}
    if args.out is not None and args.out.exists():
        evidence = json.loads(args.out.read_text())
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append({"seed": seed,
                         **run_once(workload, seed, bench["run_seconds"])})
            print(f"{workload} seed {seed}: "
                  f"{runs[-1]['elapsed_s']:.1f} s", file=sys.stderr)
        print(f"\n{workload} ({len(runs)} seeds, mean run "
              f"{statistics.mean(r['elapsed_s'] for r in runs):.1f} s)")
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            ok = name == "setup_s" or share <= bound / 3
            steady &= ok
            summary[name] = {"median": median, "spread": share,
                             "bound": bound, "values": values}
            print(f"  {name:<20} median {median:12.6g}  spread "
                  f"{share:7.2%}  bound {bound:.0%}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        evidence[workload] = {
            "cpu_count": os.cpu_count(), "run_seconds": bench["run_seconds"],
            "seeds": [r["seed"] for r in runs],
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": summary}
        if args.out is not None:
            args.out.write_text(json.dumps(evidence, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
