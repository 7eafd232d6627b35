"""Run one workload of the end-to-end + per-layer benchmark.

    python3 perfbench/run.py --workload sniff-iq --seed 1 --seconds 10 \
        --trace 0

Run from the repository root.  ``--trace 0`` repeats the seeded session
(at least twice, until ``--seconds`` of timed loop have passed), checks
every repeat and prints the end-to-end metrics; ``--trace 1`` runs one
untraced reference session and one traced session of the same seed and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Results with provenance go to ``.perfbench/results/``, traced spans to
``.perfbench/traces/``.  The exit code is 0 only if every correctness
check passed; 2 means the program could not be found or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPEATS = 2
MIN_SETUPS = 7
#: Stop starting repeats after this much wall time, whatever --seconds
#: asked for, so a run on a slow machine still ends well within limits.
REPEAT_WALL_CAP_S = 110.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread, no sanitizer, no huge pages for numpy arrays;
    set before numpy is imported so spawned workers inherit it too.
    Huge pages come only when the host has free ones, which moved peak
    RSS by 12 MB between identical runs."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ.pop("NRSAN", None)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def provenance(args: argparse.Namespace, workload, repeats: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "commit": commit, "source_sha256": source.hexdigest(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "workload": workload.name,
        "seed": args.seed, "air_s": workload.air_s, "repeats": repeats,
        "trace": args.trace, "executor": workload.executor,
    }


def run_untraced(workload, args, workdir: Path):
    from perfbench.metrics import END_TO_END, end_to_end, \
        over_budget_frac, percentile_us
    from perfbench.workloads import measure_setup, run_session

    sessions = []
    started = time.perf_counter()
    while len(sessions) < MIN_REPEATS \
            or (sum(s.wall_s for s in sessions) < args.seconds
                and time.perf_counter() - started < REPEAT_WALL_CAP_S):
        sessions.append(run_session(workload, args.seed,
                                    workdir / f"repeat-{len(sessions)}"))
    setups = [s.setup_ref_s for s in sessions]
    while len(setups) < MIN_SETUPS:
        setups.append(measure_setup(workload, args.seed,
                                    workdir / f"setup-{len(setups)}"))
    errors = [e for s in sessions for e in s.errors]
    if workload.deterministic and len({s.digest for s in sessions}) != 1:
        errors.append("telemetry differs between repeats")
    metrics = end_to_end(sessions, setups)
    each = [end_to_end([s], [s.setup_ref_s]) for s in sessions]
    spread = {}
    for name, unit, _ in END_TO_END:
        values = setups if name == "setup_s" else [e[name] for e in each]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread[name] = {"median": median, "q1": q1, "q3": q3,
                        "values": values, "unit": unit}
    extra = {"over_budget_frac": over_budget_frac(sessions),
             "speed_scale": [s.wall_ref_s / s.wall_s for s in sessions],
             "unscaled_air_s_per_wall_s": [s.air_per_wall
                                           for s in sessions],
             **{f"unscaled_{kind}_p{q}_us": percentile_us(
                 [t for s in sessions for t in getattr(s, attr)], q)
                for kind, attr in (("slot", "slot_cpu_s"),
                                   ("query", "query_s"))
                for q in (50, 99)},
             "slots_per_repeat": sessions[0].slots,
             "queries_per_repeat": len(sessions[0].query_s),
             "telemetry_sha256": sessions[0].digest}
    units = {name: unit for name, unit, _ in END_TO_END}
    return sessions, errors, metrics, units, {"spread": spread,
                                              "extra": extra}


def run_traced(workload, args, workdir: Path):
    from perfbench.metrics import PER_LAYER, per_layer
    from perfbench.probes import Tracer
    from perfbench.workloads import run_session

    reference = run_session(workload, args.seed, workdir / "reference")
    tracer = Tracer()
    traced = run_session(workload, args.seed, workdir / "traced", tracer)
    errors = reference.errors + traced.errors
    if workload.deterministic and reference.digest != traced.digest:
        errors.append("telemetry differs with tracing on")
    leftovers = tracer.patches.unrestored()
    if leftovers:
        errors.append(f"probes not restored: {', '.join(leftovers)}")
    metrics = per_layer(tracer, traced, reference)
    trace_path = ROOT / ".perfbench" / "traces" \
        / f"{workload.name}-seed{args.seed}.json.gz"
    tracer.write(trace_path)
    units = dict(PER_LAYER)
    extra = {"trace_file": str(trace_path.relative_to(ROOT)),
             "traced_air_s_per_wall_s": traced.air_per_wall,
             "untraced_air_s_per_wall_s": reference.air_per_wall}
    return [reference, traced], errors, metrics, units, {"extra": extra}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_environment()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                    dir=scratch))
    try:
        run = run_traced if args.trace else run_untraced
        sessions, errors, metrics, units, details = run(workload, args,
                                                        workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.slots + len(s.query_s) for s in sessions)
    failed = sum(s.dropped for s in sessions)
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"provenance": provenance(args, workload, len(sessions)),
              "errors": errors, **details, **result}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(sessions)} sessions, {workload.air_s} s air each "
          f"({record['provenance']['cpu_count']} CPUs, python "
          f"{record['provenance']['python']}, numpy "
          f"{record['provenance']['numpy']})")
    spread = details.get("spread", {})
    for name, value in metrics.items():
        line = f"{name:<36} {value:>14.6g} {units[name]}"
        if name in spread:
            line += (f"   (repeats: q1 {spread[name]['q1']:.6g}, "
                     f"q3 {spread[name]['q3']:.6g})")
        print(line)
    for name, value in details["extra"].items():
        print(f"{name:<36} {value}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
