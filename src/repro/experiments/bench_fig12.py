"""The Fig-12 hot-path bench: the repository's perf trajectory anchor.

Runs :func:`repro.experiments.fig12_processing.measure` — the Fig 12
workload on the production slot runtime and batched decode job — at
several tracked-UE counts on both of the figure's executors:

* ``inline`` — the paper's one DCI thread, on the caller's thread;
* ``process:4`` — its four DCI threads, as the same decode job pickled
  to four worker processes (true multi-core).

``mean_slot_us`` is wall-clock over the submitted slots divided by the
slot count — it credits cross-slot pipelining, which is exactly what a
multi-core executor buys.  ``p95_slot_us`` is the 95th percentile of
per-slot decode compute time.  Both configs must decode the identical
DCI count per slot (checked here), so the speedups compare equal work.

The result is written to ``BENCH_fig12.json`` (schema
``bench-fig12/v2``) so each subsequent change can diff the trajectory;
CI runs a tiny config and validates the schema with
:func:`validate_bench`.
"""

from __future__ import annotations

import json
import os

from repro.experiments.common import ExperimentError
from repro.experiments.fig12_processing import THREAD_COUNTS, TimingRow, \
    executor_spec, measure
from repro.gnb.cell_config import AMARISOFT_PROFILE, CellProfile

SCHEMA = "bench-fig12/v2"

UE_COUNTS = (1, 8, 32, 128)
QUICK_UE_COUNTS = (1, 4)

#: The executor every speedup is measured against.
BASELINE = "inline"


def run(profile: CellProfile = AMARISOFT_PROFILE,
        ue_counts: tuple[int, ...] = UE_COUNTS,
        n_slots: int = 20) -> list[TimingRow]:
    """The full sweep, with the cross-executor equal-work check."""
    rows: list[TimingRow] = []
    for n_ues in ue_counts:
        point = [measure(profile, n_ues, n_threads, n_slots=n_slots)
                 for n_threads in THREAD_COUNTS]
        decoded = {executor_spec(r.n_threads): r.decoded_per_slot
                   for r in point}
        if len(set(decoded.values())) != 1:
            raise ExperimentError(
                f"executors disagree on decoded DCIs at {n_ues} UEs: "
                f"{decoded} — the decode job is supposed to be "
                f"byte-identical on every executor")
        rows.extend(point)
    return rows


def to_document(rows: list[TimingRow], ue_counts: tuple[int, ...],
                n_slots: int, profile: CellProfile) -> dict:
    """The ``BENCH_fig12.json`` document (schema ``bench-fig12/v2``)."""
    by_spec: dict[str, dict[int, TimingRow]] = {}
    for row in rows:
        by_spec.setdefault(executor_spec(row.n_threads),
                           {})[row.n_ues] = row
    base = by_spec.get(BASELINE, {})
    return {
        "schema": SCHEMA,
        "profile": profile.name,
        "cpu_count": os.cpu_count(),
        "n_slots": n_slots,
        "ue_counts": list(ue_counts),
        "configs": [
            {
                "executor": spec,
                "results": [
                    {
                        "n_ues": n,
                        "mean_slot_us": round(points[n].mean_slot_us, 1),
                        "p95_slot_us": round(points[n].p95_slot_us, 1),
                        "decoded_per_slot": points[n].decoded_per_slot,
                    }
                    for n in ue_counts
                ],
            }
            for spec, points in by_spec.items()
        ],
        "speedup_vs_inline": {
            str(n): {
                spec: round(base[n].mean_slot_us
                            / max(points[n].mean_slot_us, 1e-9), 2)
                for spec, points in by_spec.items() if spec != BASELINE
            }
            for n in ue_counts if n in base
        },
    }


def validate_bench(doc: dict) -> None:
    """Raise :class:`ExperimentError` unless ``doc`` is a well-formed
    ``bench-fig12/v2`` document (the CI bench-smoke gate)."""
    if doc.get("schema") != SCHEMA:
        raise ExperimentError(f"bad schema: {doc.get('schema')!r}")
    for key in ("profile", "n_slots", "ue_counts", "configs",
                "speedup_vs_inline"):
        if key not in doc:
            raise ExperimentError(f"missing key: {key!r}")
    ue_counts = doc["ue_counts"]
    if not isinstance(ue_counts, list) or not ue_counts:
        raise ExperimentError("ue_counts must be a non-empty list")
    if not isinstance(doc["configs"], list) or not doc["configs"]:
        raise ExperimentError("configs must be a non-empty list")
    for cfg in doc["configs"]:
        for key in ("executor", "results"):
            if key not in cfg:
                raise ExperimentError(
                    f"config missing key {key!r}: {cfg}")
        seen = [r.get("n_ues") for r in cfg["results"]]
        if seen != ue_counts:
            raise ExperimentError(
                f"{cfg['executor']} covers UE counts {seen}, "
                f"expected {ue_counts}")
        for res in cfg["results"]:
            for key in ("mean_slot_us", "p95_slot_us",
                        "decoded_per_slot"):
                value = res.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ExperimentError(
                        f"{cfg['executor']} n_ues={res.get('n_ues')}: "
                        f"bad {key}: {value!r}")
    for per_config in doc["speedup_vs_inline"].values():
        for spec, ratio in per_config.items():
            if not isinstance(ratio, (int, float)) or ratio <= 0:
                raise ExperimentError(
                    f"bad speedup for {spec}: {ratio!r}")


def render(doc: dict) -> str:
    """Human-readable summary of a bench document."""
    lines = [f"BENCH fig12 [{doc['profile']}] "
             f"({doc['n_slots']} slots per point)"]
    header = "executor".ljust(22) + "".join(
        f"{n:>12}" for n in doc["ue_counts"])
    lines.append(header + "   (mean us/slot)")
    for cfg in doc["configs"]:
        cells = "".join(f"{r['mean_slot_us']:12.0f}"
                        for r in cfg["results"])
        lines.append(cfg["executor"].ljust(22) + cells)
    top = str(doc["ue_counts"][-1])
    for spec, ratio in doc["speedup_vs_inline"].get(top, {}).items():
        lines.append(f"speedup at {top} UEs, {spec} vs {BASELINE}: "
                     f"{ratio:.2f}x")
    return "\n".join(lines)


def main(out_path: str = "BENCH_fig12.json", quick: bool = False,
         n_slots: int | None = None) -> dict:
    """Run the sweep and write the JSON document; returns it."""
    ue_counts = QUICK_UE_COUNTS if quick else UE_COUNTS
    slots = n_slots if n_slots is not None else (2 if quick else 20)
    rows = run(ue_counts=ue_counts, n_slots=slots)
    doc = to_document(rows, ue_counts, slots, AMARISOFT_PROFILE)
    validate_bench(doc)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return doc
