"""Fig 12: per-slot processing time vs tracked UEs (paper section 5.3.2).

The paper measures signal processing (FFT/demodulation, O(n log n) in
the slot's samples) plus per-UE DCI decoding (O(m) in the UE count) with
one or four DCI threads, on the Amarisoft cell (20 MHz) and a T-Mobile
cell (10 MHz), and finds a linear trend in the UE count.

This module measures the same quantities on the *shared* slot runtime —
the same :class:`~repro.core.runtime.SlotRuntime` stages and batched
decode job NR-Scope runs in production, with the per-stage means read
out of its :class:`~repro.core.runtime.RuntimeStats` — not a private
harness.  The paper's one DCI thread is the inline executor and its
four DCI threads are ``process:4``; the GIL leaves Python threads
nothing to win back (EXPERIMENTS.md discusses the deviation), and the
linear-in-m trend is the portable result.  :func:`measure` is also the
one measurement behind ``BENCH_fig12.json``
(:mod:`repro.experiments.bench_fig12`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.dci_decoder import DecodeSpec, grid_decode_job
from repro.core.rach_sniffer import RachSniffer
from repro.core.runtime import Executor, SlotContext, SlotRuntime, Stage, \
    build_executor
from repro.core.scope import GridDecodePayload
from repro.experiments.common import ExperimentError, FigureResult
from repro.gnb.cell_config import AMARISOFT_PROFILE, CellProfile, \
    TMOBILE_N25_PROFILE
from repro.analysis.report import Table
from repro.phy.dci import Dci, DciFormat, riv_encode
from repro.phy.ofdm import OfdmConfig, demodulate_slot, modulate_slot
from repro.phy.pdcch import PdcchCandidate, encode_pdcch
from repro.phy.resource_grid import ResourceGrid
from repro.rrc.messages import RrcSetup

UE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)
THREAD_COUNTS = (1, 4)


@dataclass
class Workload:
    """One slot's decode workload for a given tracked-UE count."""

    profile: CellProfile
    tracked: dict
    samples: object          # time-domain IQ for one slot
    ofdm: OfdmConfig
    slot_index: int
    n_encoded: int


@dataclass(frozen=True)
class TimingRow:
    """One point of Fig 12.

    ``mean_us`` is the figure's quantity: the demod and DCI stage means
    summed.  ``mean_slot_us`` is wall time over the timed slots (flush
    included) per slot — it credits cross-slot pipelining, which is what
    a multi-core executor buys.  ``p95_slot_us`` is the 95th percentile
    of per-slot decode compute time.  ``cpu_slot_us`` is the median
    per-slot CPU time of the submitting thread: the whole slot (demod
    and decode) on the inline executor, only the backbone's share on a
    process pool.  CPU time leaves out the time other processes on a
    shared host take from the run, so it is the steadiest of the four.
    """

    profile: str
    n_ues: int
    n_threads: int           # the paper's DCI threads (see executor_spec)
    mean_us: float
    mean_slot_us: float
    p95_slot_us: float
    cpu_slot_us: float
    decoded_per_slot: int


def build_workload(profile: CellProfile, n_ues: int,
                   slot_index: int = 4,
                   active_ues: int = 8) -> Workload:
    """Tracked table of ``n_ues`` plus a slot with real encoded DCIs.

    Only up to ``active_ues`` UEs carry a DCI this slot (PDCCH capacity
    caps simultaneous scheduling), but the decoder must check every
    tracked UE's candidates — which is exactly the O(m) term.
    """
    if n_ues < 1:
        raise ExperimentError(f"need at least one UE: {n_ues}")
    sniffer = RachSniffer(bwp_n_prb=profile.n_prb)
    setup = RrcSetup(tc_rnti=0x4601,
                     search_space=profile.search_space_config(),
                     mcs_table=profile.mcs_table)
    sniffer.discover(0x4601, 0.0, setup)
    for i in range(1, n_ues):
        sniffer.discover(0x4601 + i, 0.0, None)

    grid = ResourceGrid(profile.n_prb)
    cfg = profile.dci_size_config()
    used: set[int] = set()
    encoded = 0
    for rnti, ue in list(sniffer.tracked.items()):
        if encoded >= active_ues:
            break
        for start in ue.search_space.candidate_cces(2, slot_index, rnti):
            cces = set(range(start, start + 2))
            if cces & used:
                continue
            dci = Dci(format=DciFormat.DL_1_1, rnti=rnti,
                      freq_alloc_riv=riv_encode(0, 4, profile.n_prb),
                      time_alloc=1, mcs=10, ndi=0, rv=0, harq_id=0)
            encode_pdcch(dci, cfg, ue.search_space.coreset,
                         PdcchCandidate(start, 2), grid,
                         n_id=profile.cell_id, slot_index=slot_index)
            used |= cces
            encoded += 1
            break
    ofdm = OfdmConfig.for_grid(grid.n_subcarriers)
    samples = modulate_slot(grid, ofdm)
    return Workload(profile=profile, tracked=sniffer.tracked,
                    samples=samples, ofdm=ofdm, slot_index=slot_index,
                    n_encoded=encoded)


def build_runtime(workload: Workload, executor: Executor,
                  latencies: list[float],
                  decoded_counts: list[int]) -> SlotRuntime:
    """The production stage graph over a fixed workload: OFDM
    demodulation on the backbone, the candidate search as the parallel
    stage's decode job (byte-identical results on every executor).

    A sink appends each slot's decode compute time to ``latencies`` and
    its decoded DCI count to ``decoded_counts``, in slot order.
    """
    spec = DecodeSpec(dci_cfg=workload.profile.dci_size_config(),
                      n_id=workload.profile.cell_id, noise_var=1e-3)

    def demod(ctx: SlotContext) -> None:
        ctx.grid = demodulate_slot(workload.samples, workload.ofdm)

    def pack(ctx: SlotContext):
        return grid_decode_job, GridDecodePayload(
            spec=spec, grid=ctx.grid, slot_index=workload.slot_index,
            tracked=workload.tracked)

    def merge(ctx: SlotContext, result) -> None:
        ctx.decoded, _ = result

    def collect(ctx: SlotContext) -> None:
        latencies.append(ctx.decode_time_s)
        decoded_counts.append(len(ctx.decoded))

    return SlotRuntime(stages=[Stage("demod", demod),
                               Stage("dci", pack=pack, merge=merge),
                               Stage("collect", collect, sink=True)],
                       executor=executor)


def executor_spec(n_threads: int) -> str:
    """Map the paper's DCI thread count onto a runtime executor spec:
    one thread is the deterministic inline path, N run as N worker
    processes."""
    return "inline" if n_threads <= 1 else f"process:{n_threads}"


def measure(profile: CellProfile, n_ues: int, n_threads: int,
            n_slots: int = 3) -> TimingRow:
    """Time ``n_slots`` identical slots of the Fig 12 workload.

    Warm-up slots bring up executor workers (process spawn, cache fill)
    before the timed window; stats are reset in between.  A pool gets
    enough warm-up slots for *every* worker to spawn and fill its
    kernel caches — with too few, the round-robin leaves some workers
    cold and their first-job compile cost lands inside the timed
    window.  The timed run must drop no slot and decode the same DCI
    count in every slot, or the row would compare unequal work.
    """
    workload = build_workload(profile, n_ues)
    spec = executor_spec(n_threads)
    latencies: list[float] = []
    decoded_counts: list[int] = []
    runtime = build_runtime(workload, build_executor(spec), latencies,
                            decoded_counts)
    warmup_slots = 1 if n_threads <= 1 else 1 + 3 * n_threads
    for _ in range(warmup_slots):
        runtime.submit(None)
    runtime.flush()
    runtime.reset_stats()
    latencies.clear()
    decoded_counts.clear()
    cpu_s: list[float] = []
    start = time.perf_counter()
    for _ in range(n_slots):
        cpu_start = time.thread_time()
        runtime.submit(None)
        cpu_s.append(time.thread_time() - cpu_start)
    runtime.flush()
    wall_s = time.perf_counter() - start
    runtime.close()
    stats = runtime.stats()
    if stats.slots_dropped:
        raise ExperimentError(
            f"{spec} dropped {stats.slots_dropped} slots at queue depth "
            f"({n_ues} UEs); Fig 12 must time a drop-free run")
    counts = set(decoded_counts)
    if len(counts) != 1:
        raise ExperimentError(
            f"{spec} decoded varying DCI counts over identical slots "
            f"({n_ues} UEs): {sorted(counts)}")
    return TimingRow(
        profile=profile.name, n_ues=n_ues, n_threads=n_threads,
        mean_us=stats.stage("demod").mean_us + stats.stage("dci").mean_us,
        mean_slot_us=1e6 * wall_s / n_slots,
        p95_slot_us=1e6 * float(np.percentile(latencies, 95)),
        cpu_slot_us=1e6 * float(np.median(cpu_s)),
        decoded_per_slot=decoded_counts[0])


def run(ue_counts: tuple[int, ...] = UE_COUNTS,
        n_slots: int = 3) -> list[TimingRow]:
    """The full sweep: both cells x both thread counts x UE counts."""
    rows = []
    for profile in (AMARISOFT_PROFILE, TMOBILE_N25_PROFILE):
        for n_threads in THREAD_COUNTS:
            for n_ues in ue_counts:
                rows.append(measure(profile, n_ues, n_threads,
                                    n_slots=n_slots))
    return rows


def to_result(rows: list[TimingRow]) -> FigureResult:
    result = FigureResult(figure="fig12")
    keys = {(r.profile, r.n_threads) for r in rows}
    for profile, n_threads in sorted(keys):
        points = [(float(r.n_ues), r.mean_us) for r in rows
                  if r.profile == profile and r.n_threads == n_threads]
        result.add_series(f"{profile}-{n_threads}thread",
                          sorted(points))
    # Linearity check: time at the largest UE count over the smallest
    # should scale roughly with the count ratio, not explode.
    for profile, n_threads in sorted(keys):
        mine = sorted([(r.n_ues, r.mean_us) for r in rows
                       if r.profile == profile
                       and r.n_threads == n_threads])
        if len(mine) >= 2 and mine[0][1] > 0:
            result.summary[f"{profile}-{n_threads}t_growth"] = \
                mine[-1][1] / mine[0][1]
    return result


def table(rows: list[TimingRow]) -> Table:
    return Table(
        title="Fig 12 - per-slot processing time",
        columns=("cell", "UEs", "threads", "mean us/slot"),
        rows=tuple((r.profile, r.n_ues, r.n_threads, r.mean_us)
                   for r in rows))
