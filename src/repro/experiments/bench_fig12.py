"""The Fig-12 hot-path bench: the repository's perf trajectory anchor.

Measures the production slot pipeline (OFDM demod backbone + per-UE
PDCCH blind decode) over the Fig 12 workload at several tracked-UE
counts, across the executor x kernel matrix:

* executors — ``inline`` (scalar baseline) and ``process:4`` (true
  multi-core: the same decode job pickled to four worker processes);
* kernels — ``scalar`` (per-candidate Python loop) vs ``batched``
  (stacked numpy gather/demod/descramble/polar, bit-identical outputs).

``mean_slot_us`` is wall-clock over the submitted slots divided by the
slot count — it credits cross-slot pipelining, which is exactly what a
multi-core executor buys.  ``p95_slot_us`` is the 95th percentile of
per-slot decode compute time.  Every config must decode the identical
DCI count per slot (checked here), so the speedups compare equal work.

The result is written to ``BENCH_fig12.json`` (schema
``bench-fig12/v1``) so each subsequent PR can diff the trajectory; CI
runs a tiny config and validates the schema with :func:`validate_bench`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.runtime import build_executor
from repro.experiments.common import ExperimentError
from repro.experiments.fig12_processing import build_runtime, \
    build_workload
from repro.gnb.cell_config import AMARISOFT_PROFILE, CellProfile

SCHEMA = "bench-fig12/v1"

#: The measured matrix: (executor spec, batched kernels?).
CONFIGS: tuple[tuple[str, bool], ...] = (
    ("inline", False),
    ("inline", True),
    ("process:4", False),
    ("process:4", True),
)

UE_COUNTS = (1, 8, 32, 128)
QUICK_UE_COUNTS = (1, 4)

#: The acceptance comparison: batched process:4 over scalar inline.
BASELINE = ("inline", False)
CONTENDER = ("process:4", True)


def config_label(spec: str, batch: bool) -> str:
    return f"{'batched' if batch else 'scalar'}-{spec}"


@dataclass(frozen=True)
class BenchPoint:
    """One (config, UE count) measurement."""

    n_ues: int
    mean_slot_us: float
    p95_slot_us: float
    decoded_per_slot: int


@dataclass
class BenchConfig:
    """One executor/kernel combination's sweep."""

    executor: str
    batch: bool
    points: list[BenchPoint] = field(default_factory=list)

    @property
    def label(self) -> str:
        return config_label(self.executor, self.batch)

    def point(self, n_ues: int) -> BenchPoint:
        for p in self.points:
            if p.n_ues == n_ues:
                return p
        raise ExperimentError(f"{self.label} has no {n_ues}-UE point")


def measure_point(profile: CellProfile, spec: str, batch: bool,
                  n_ues: int, n_slots: int,
                  warmup_slots: int | None = None) -> BenchPoint:
    """Run one config at one UE count over ``n_slots`` identical slots.

    Warm-up slots bring up executor workers (process spawn, cache fill)
    before the timed window; stats are reset in between.  Pool
    executors get enough warm-up slots for *every* worker to spawn and
    fill its kernel caches — with too few, the round-robin leaves some
    workers cold and their first-job compile cost lands inside the
    timed window.
    """
    workload = build_workload(profile, n_ues)
    executor = build_executor(spec)
    if warmup_slots is None:
        warmup_slots = 1 + 3 * getattr(executor, "n_workers", 0)
    latencies: list[float] = []
    decoded_counts: list[int] = []
    runtime = build_runtime(workload, executor, batch=batch,
                            latencies=latencies,
                            decoded_counts=decoded_counts)
    for _ in range(warmup_slots):
        runtime.submit(None)
    runtime.flush()
    runtime.reset_stats()
    latencies.clear()
    decoded_counts.clear()
    start = time.perf_counter()
    for _ in range(n_slots):
        runtime.submit(None)
    runtime.flush()
    wall_s = time.perf_counter() - start
    runtime.close()
    stats = runtime.stats()
    if stats.slots_dropped:
        raise ExperimentError(
            f"{config_label(spec, batch)} dropped "
            f"{stats.slots_dropped} slots at queue depth; the bench "
            f"must measure a drop-free run")
    counts = set(decoded_counts)
    if len(counts) != 1:
        raise ExperimentError(
            f"{config_label(spec, batch)} decoded varying DCI counts "
            f"over identical slots: {sorted(counts)}")
    return BenchPoint(
        n_ues=n_ues,
        mean_slot_us=1e6 * wall_s / n_slots,
        p95_slot_us=float(np.percentile(np.array(latencies), 95)) * 1e6,
        decoded_per_slot=decoded_counts[0])


def run(profile: CellProfile = AMARISOFT_PROFILE,
        ue_counts: tuple[int, ...] = UE_COUNTS,
        n_slots: int = 20,
        configs: tuple[tuple[str, bool], ...] = CONFIGS) \
        -> list[BenchConfig]:
    """The full sweep, with the cross-config equal-work check."""
    results = [BenchConfig(executor=spec, batch=batch)
               for spec, batch in configs]
    for n_ues in ue_counts:
        for cfg in results:
            cfg.points.append(measure_point(
                profile, cfg.executor, cfg.batch, n_ues, n_slots))
        decoded = {cfg.label: cfg.point(n_ues).decoded_per_slot
                   for cfg in results}
        if len(set(decoded.values())) != 1:
            raise ExperimentError(
                f"configs disagree on decoded DCIs at {n_ues} UEs: "
                f"{decoded} — the kernels are supposed to be "
                f"bit-identical")
    return results


def speedups(results: list[BenchConfig],
             ue_counts: tuple[int, ...]) -> dict[str, dict[str, float]]:
    """Mean-slot-time ratios of every config over the scalar-inline
    baseline, per UE count (>1 means faster than the baseline)."""
    by_key = {(c.executor, c.batch): c for c in results}
    base = by_key.get(BASELINE)
    out: dict[str, dict[str, float]] = {}
    if base is None:
        return out
    for n_ues in ue_counts:
        ref = base.point(n_ues).mean_slot_us
        out[str(n_ues)] = {
            cfg.label: ref / max(cfg.point(n_ues).mean_slot_us, 1e-9)
            for cfg in results if (cfg.executor, cfg.batch) != BASELINE}
    return out


def to_document(results: list[BenchConfig],
                ue_counts: tuple[int, ...], n_slots: int,
                profile: CellProfile) -> dict:
    """The ``BENCH_fig12.json`` document (schema ``bench-fig12/v1``)."""
    return {
        "schema": SCHEMA,
        "profile": profile.name,
        "cpu_count": os.cpu_count(),
        "n_slots": n_slots,
        "ue_counts": list(ue_counts),
        "configs": [
            {
                "executor": cfg.executor,
                "batch": cfg.batch,
                "label": cfg.label,
                "results": [
                    {
                        "n_ues": p.n_ues,
                        "mean_slot_us": round(p.mean_slot_us, 1),
                        "p95_slot_us": round(p.p95_slot_us, 1),
                        "decoded_per_slot": p.decoded_per_slot,
                    }
                    for p in cfg.points
                ],
            }
            for cfg in results
        ],
        "speedup_vs_scalar_inline": {
            count: {label: round(ratio, 2)
                    for label, ratio in per_config.items()}
            for count, per_config in
            speedups(results, ue_counts).items()
        },
    }


def validate_bench(doc: dict) -> None:
    """Raise :class:`ExperimentError` unless ``doc`` is a well-formed
    ``bench-fig12/v1`` document (the CI bench-smoke gate)."""
    if doc.get("schema") != SCHEMA:
        raise ExperimentError(f"bad schema: {doc.get('schema')!r}")
    for key in ("profile", "n_slots", "ue_counts", "configs",
                "speedup_vs_scalar_inline"):
        if key not in doc:
            raise ExperimentError(f"missing key: {key!r}")
    ue_counts = doc["ue_counts"]
    if not isinstance(ue_counts, list) or not ue_counts:
        raise ExperimentError("ue_counts must be a non-empty list")
    if not isinstance(doc["configs"], list) or not doc["configs"]:
        raise ExperimentError("configs must be a non-empty list")
    for cfg in doc["configs"]:
        for key in ("executor", "batch", "label", "results"):
            if key not in cfg:
                raise ExperimentError(
                    f"config missing key {key!r}: {cfg}")
        seen = [r.get("n_ues") for r in cfg["results"]]
        if seen != ue_counts:
            raise ExperimentError(
                f"{cfg['label']} covers UE counts {seen}, "
                f"expected {ue_counts}")
        for res in cfg["results"]:
            for key in ("mean_slot_us", "p95_slot_us",
                        "decoded_per_slot"):
                value = res.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ExperimentError(
                        f"{cfg['label']} n_ues={res.get('n_ues')}: "
                        f"bad {key}: {value!r}")
    for per_config in doc["speedup_vs_scalar_inline"].values():
        for label, ratio in per_config.items():
            if not isinstance(ratio, (int, float)) or ratio <= 0:
                raise ExperimentError(
                    f"bad speedup for {label}: {ratio!r}")


def render(doc: dict) -> str:
    """Human-readable summary of a bench document."""
    lines = [f"BENCH fig12 [{doc['profile']}] "
             f"({doc['n_slots']} slots per point)"]
    header = "config".ljust(22) + "".join(
        f"{n:>12}" for n in doc["ue_counts"])
    lines.append(header + "   (mean us/slot)")
    for cfg in doc["configs"]:
        cells = "".join(f"{r['mean_slot_us']:12.0f}"
                        for r in cfg["results"])
        lines.append(cfg["label"].ljust(22) + cells)
    top = str(doc["ue_counts"][-1])
    contender = config_label(*CONTENDER)
    ratio = doc["speedup_vs_scalar_inline"].get(top, {}).get(contender)
    if ratio is not None:
        lines.append(f"speedup at {top} UEs, {contender} vs "
                     f"{config_label(*BASELINE)}: {ratio:.2f}x")
    return "\n".join(lines)


def main(out_path: str = "BENCH_fig12.json", quick: bool = False,
         n_slots: int | None = None) -> dict:
    """Run the sweep and write the JSON document; returns it."""
    ue_counts = QUICK_UE_COUNTS if quick else UE_COUNTS
    slots = n_slots if n_slots is not None else (2 if quick else 20)
    results = run(ue_counts=ue_counts, n_slots=slots)
    doc = to_document(results, ue_counts, slots, AMARISOFT_PROFILE)
    validate_bench(doc)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return doc
