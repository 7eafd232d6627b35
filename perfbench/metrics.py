"""Metric tables, the traced layers, and how sessions become numbers.

``END_TO_END`` and ``PER_LAYER`` are the single source of every metric
name and unit; ``BENCHMARK.json`` lists the same names (a self-test
holds the two together).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from perfbench.probes import Probe, Tracer

if TYPE_CHECKING:
    from perfbench.workloads import Session

#: (name, unit, better) — measured with tracing off, every workload.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("air_s_per_wall_s", "air-s/s", "higher"),
    ("sniffer_rt_factor", "s/air-s", "lower"),
    ("slot_p50_us", "us", "lower"),
    ("slot_p99_us", "us", "lower"),
    ("dci_miss_frac", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
)

#: Stages of the sniffer's slot runtime, in slot order.
STAGES = ("sync", "prune", "uci", "capture", "rach", "dci", "sinks")
#: Telemetry store query kernels the dashboard mix calls.
QUERY_KERNELS = ("bits_between", "bitrate_series", "mcs_distribution",
                 "retransmission_ratio")

#: (name, unit) — from the traced run; zero where a layer is not used.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("gnb.step.calls", "count"),
    ("gnb.step.self_ms", "ms"),
    ("gnb.scheduler.self_ms", "ms"),
    ("ue.advance_slot.self_ms", "ms"),
    ("gnb.encode_pdcch.calls", "count"),
    ("gnb.encode_pdcch.self_ms", "ms"),
    ("scope.observe_slot.calls", "count"),
    ("scope.observe_slot.self_ms", "ms"),
    ("scope.flush.self_ms", "ms"),
    *((f"runtime.stage.{stage}.mean_us", "us") for stage in STAGES),
    ("runtime.budget_overruns", "count"),
    ("runtime.slots_dropped", "count"),
    ("runtime.over_budget_frac", "ratio"),
    ("capture.clone_with_noise.self_ms", "ms"),
    ("dci.decode_slot_batch.calls", "count"),
    ("dci.decode_slot_batch.self_ms", "ms"),
    ("dci.blind_decode_common.self_ms", "ms"),
    ("dci.attempts", "count"),
    ("dci.useful_ratio", "ratio"),
    ("dci.record_decode.self_ms", "ms"),
    ("phy.gather.self_ms", "ms"),
    ("phy.demod.self_ms", "ms"),
    ("phy.descramble.self_ms", "ms"),
    ("phy.polar_sc.calls", "count"),
    ("phy.polar_sc.self_ms", "ms"),
    ("phy.polar_sc.rows_per_call", "rows"),
    ("phy.crc.self_ms", "ms"),
    ("wire.pack.self_ms", "ms"),
    ("wire.bytes_per_slot", "B"),
    ("telemetry.append.calls", "count"),
    ("telemetry.append.self_ms", "ms"),
    *((f"telemetry.query.{kernel}.self_ms", "ms")
      for kernel in QUERY_KERNELS),
    ("multicell.correlate.self_ms", "ms"),
    ("telemetry.write_jsonl.self_ms", "ms"),
    ("telemetry.segments.self_ms", "ms"),
    ("telemetry.segments.bytes", "B"),
    ("fleet.checkpoint.calls", "count"),
    ("fleet.checkpoint.self_ms", "ms"),
    ("fleet.checkpoint.bytes_last", "B"),
    ("obs.events", "count"),
    ("obs.reporter_emit.self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)


#: Per-layer names that sum several probes' spans.
SPAN_GROUPS = {"wire.pack": ("wire.pack_grid", "wire.pack_tracked")}


def _payload_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    """Bytes a packed decode payload part carries over the wire."""
    if isinstance(result, bytes):
        return float(len(result))
    return float(sum(value.nbytes for value in result.values()
                     if isinstance(value, np.ndarray)))


def _rows(args: tuple, kwargs: dict, result: Any) -> float:
    return float(args[0].shape[0])


def program_probes() -> list[Probe]:
    """Every public call the traced run times, grouped by layer.

    Functions a module imported by name are wrapped in that module
    (``repro.gnb.gnb.encode_pdcch``, the decoder's kernel imports);
    ``polar`` is reached as a module attribute, so it is wrapped there.
    """
    import repro.core.dci_decoder as dci_decoder
    import repro.core.multicell as multicell
    import repro.core.scope as scope
    import repro.gnb.gnb as gnb
    from repro.core.fleet import FleetSupervisor
    from repro.core.telemetry import TelemetryLog
    from repro.core.telemetry_store import TelemetryStore
    from repro.gnb.scheduler import BaseScheduler
    from repro.phy import polar
    from repro.phy.resource_grid import ResourceGrid
    from repro.ue.ue import UserEquipment

    return [
        Probe("gnb.step", gnb.GNodeB, "step"),
        Probe("gnb.scheduler", BaseScheduler, "schedule"),
        Probe("ue.advance_slot", UserEquipment, "advance_slot"),
        Probe("gnb.encode_pdcch", gnb, "encode_pdcch"),
        Probe("scope.observe_slot", scope.NRScope, "observe_slot"),
        Probe("scope.flush", scope.NRScope, "flush"),
        Probe("capture.clone_with_noise", ResourceGrid, "clone_with_noise"),
        Probe("dci.decode_slot_batch", dci_decoder.GridDciDecoder,
              "decode_slot_batch"),
        Probe("dci.blind_decode_common", dci_decoder.GridDciDecoder,
              "blind_decode_common"),
        Probe("dci.record_decode", dci_decoder.RecordDciDecoder,
              "decode_slot"),
        Probe("phy.gather", dci_decoder, "gather_candidates_batch"),
        Probe("phy.demod", dci_decoder, "demodulate_soft_batch"),
        Probe("phy.descramble", dci_decoder, "descramble_llrs"),
        Probe("phy.polar_sc", polar, "decode_batch_joint", measure=_rows),
        Probe("phy.crc", dci_decoder, "dci_crc_check_batch"),
        Probe("wire.pack_grid", scope, "pack_grid_for_decode",
              measure=_payload_bytes),
        Probe("wire.pack_tracked", scope, "pack_tracked_for_decode",
              measure=_payload_bytes),
        Probe("telemetry.append", TelemetryStore, "append"),
        *(Probe(f"telemetry.query.{kernel}", TelemetryStore, kernel)
          for kernel in QUERY_KERNELS),
        Probe("multicell.correlate", multicell, "correlate_streams"),
        Probe("telemetry.write_jsonl", TelemetryLog, "write_jsonl"),
        Probe("telemetry.segments", TelemetryStore, "write_segments"),
        Probe("fleet.checkpoint", FleetSupervisor, "checkpoint"),
    ]


def reporter_probes(reporters: list[Any]) -> list[Probe]:
    """The benchmark-built obs reporters' ``emit`` (instance level)."""
    return [Probe("obs.reporter_emit", reporter, "emit")
            for reporter in reporters]


def percentile_us(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e6


def over_budget_frac(sessions: list["Session"]) -> float:
    """Share of slots whose observe_slot time exceeded the slot."""
    over = sum(int(np.count_nonzero(np.asarray(s.slot_s) > s.slot_budget_s))
               for s in sessions)
    return over / sum(len(s.slot_s) for s in sessions)


def end_to_end(sessions: list["Session"], setups: list[float]) \
        -> dict[str, float]:
    """Untraced repeats -> the end-to-end metrics, at reference speed.

    Rates are medians over repeats; percentiles pool every repeat's
    samples; the miss fraction pools the DCIs.  Peak RSS is the first
    repeat's: later repeats start from the allocator's high-water mark,
    so their peaks depend on how many repeats ran before.  ``setups``
    are reference-speed set-up times.

    ``slot_p99_us`` is the one time left unscaled: the slowest slots do
    not follow the calibration bursts (when the host sped bursts up by
    40%, the median slot got 38% faster and the p99 slot 7%), so scaling
    them widened their ten-seed spread from 9% to 16% on ``sniff-msg``.
    """
    slots = [t for s in sessions for t in s.slot_ref_s]
    slots_cpu = [t for s in sessions for t in s.slot_cpu_s]
    queries = [t for s in sessions for t in s.query_ref_s]
    return {
        "setup_s": float(np.median(setups)),
        "air_s_per_wall_s": float(np.median(
            [s.air_s / s.wall_ref_s for s in sessions])),
        "sniffer_rt_factor": float(np.median(
            [s.sniffer_ref_s / s.air_s for s in sessions])),
        "slot_p50_us": percentile_us(slots, 50),
        "slot_p99_us": percentile_us(slots_cpu, 99),
        "dci_miss_frac": sum(s.missed for s in sessions)
        / sum(s.ground_truth for s in sessions),
        "peak_rss_mb": sessions[0].rss_mb,
        "query_p50_us": percentile_us(queries, 50),
        "query_p99_us": percentile_us(queries, 99),
    }


def per_layer(tracer: Tracer, traced: "Session",
              reference: "Session") -> dict[str, float]:
    """Traced spans plus the program's own counters -> layer metrics.

    ``reference`` is the untraced session of the same seed; it supplies
    the tracing overhead and the over-budget share (which tracing
    would inflate).
    """
    times = tracer.layer_times()
    measured = tracer.measured
    rows = measured.get("phy.polar_sc", [])
    grid_packs = times.get("wire.pack_grid", (0, 0.0))[0]
    wire_bytes = sum(measured.get("wire.pack_grid", [])) \
        + sum(measured.get("wire.pack_tracked", []))
    out: dict[str, float] = {
        "wire.bytes_per_slot": wire_bytes / grid_packs if grid_packs
        else 0.0,
        "phy.polar_sc.rows_per_call": float(np.mean(rows)) if rows
        else 0.0,
        "runtime.over_budget_frac": over_budget_frac([reference]),
        "trace.spans": float(len(tracer.names)),
        "trace.overhead_ratio": reference.air_per_wall
        / traced.air_per_wall,
    }
    for name, _ in PER_LAYER:
        if name in out:
            continue
        span, _, stat = name.rpartition(".")
        spans = SPAN_GROUPS.get(span, (span,))
        if stat == "calls":
            out[name] = float(sum(times.get(n, (0, 0.0))[0]
                                  for n in spans))
        elif stat == "self_ms":
            out[name] = 1e3 * sum(times.get(n, (0, 0.0))[1]
                                  for n in spans)
        else:
            out[name] = traced.layers.get(name, 0.0)
    return {name: out[name] for name, _ in PER_LAYER}
