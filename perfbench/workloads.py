"""Workloads: seeded, real sessions of the program and their checks.

Every workload is a closed loop driven from one process.  A sniff
workload builds one :class:`~repro.simulation.Simulation`, attaches an
:class:`~repro.core.scope.NRScope` and runs ``air_s`` of air; a fleet
workload builds a :class:`~repro.core.fleet.FleetSupervisor` and runs it
interval by interval, checkpointing and polling a dashboard query mix
at the boundaries.  :func:`run_session` performs one repeat — set-up,
timed loop, query mix, checks — and returns a :class:`Session`.

The seed is the benchmark's argument; the program only sees the
simulation built from it.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
from repro.analysis.matching import match_dcis
from repro.core import multicell
from repro.core.fleet import FleetConfig, FleetSupervisor
from repro.core.runtime import Executor, build_executor
from repro.core.scope import NRScope
from repro.core.telemetry import TelemetryLog
from repro.core.telemetry_store import TelemetryStore
from repro.gnb.cell_config import ALL_PROFILES
from repro.obs import CounterReporter, JsonlReporter, ObsContext, OBS_NOOP
from repro.simulation import Simulation

from perfbench.metrics import program_probes, reporter_probes
from perfbench.probes import Calibrator, SlotTimer, Tracer

#: A fleet without come-and-go arrivals: Poisson arrival counts make a
#: short fleet run's load differ by a quarter between seeds, which no
#: regression bound can absorb.  Churn comes from the handover ring.
NO_ARRIVALS_PER_S = 1e-9
#: Window of the dashboard's bit-rate series query.
BITRATE_WINDOW_S = 0.1
#: How long each process worker sleeps in the set-up warm-up job; the
#: job only has to keep one worker busy while the next one spawns.
WARMUP_JOB_S = 0.05
#: Calibration bursts sampled right before each set-up and each poll.
SETUP_BURSTS = 20
QUERY_BURSTS = 3


@dataclass(frozen=True)
class Workload:
    """One seeded session shape.  ``n_cells > 0`` makes it a fleet."""

    name: str
    why: str
    profile: str
    fidelity: str
    air_s: float
    #: Spacing (in air seconds) of the dashboard query-mix polls.
    poll_interval_s: float
    n_ues: int = 0
    executor: str = "inline"
    #: Sniffer receive SNR (sniff: the CLI's default).
    snr_db: float = 18.0
    #: Obs on (counters + JSONL reporter) and the telemetry JSONL export
    #: inside the timed loop, as a deployment runs it.
    deployment: bool = False
    n_cells: int = 0
    checkpoint_interval_s: float = 0.0
    #: Fleet population: devices attached per cell at set-up; at every
    #: poll each cell hands its oldest device over to the next cell.
    devices_per_cell: int = 0
    #: Listed in BENCHMARK.json, so every later change is judged on it.
    gated: bool = True

    @property
    def fleet(self) -> bool:
        return self.n_cells > 0

    @property
    def deterministic(self) -> bool:
        """Inline sessions commit identical telemetry on every repeat;
        a process executor may shed slots depending on timing."""
        return self.executor == "inline"

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same code paths (self-tests)."""
        if self.fleet:
            return replace(self, n_cells=2, air_s=0.2, poll_interval_s=0.1,
                           checkpoint_interval_s=0.1)
        return replace(self, n_ues=2, air_s=0.1, poll_interval_s=0.05)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sniff-iq",
        why="iq fidelity, 16 UEs, 30 kHz TDD: gNB render, capture and the "
            "batched DCI decode (gather/demod/descramble/polar/CRC) "
            "dominate",
        profile="amarisoft", fidelity="iq", air_s=0.5, n_ues=16,
        poll_interval_s=0.01),
    Workload(
        name="sniff-msg",
        why="message fidelity, 64 UEs, 15 kHz FDD, obs and JSONL export "
            "on: PHY bypassed, load on gNB/UE model, sinks, telemetry "
            "append and obs",
        profile="tmobile-n25", fidelity="message", air_s=5.0, n_ues=64,
        deployment=True, poll_interval_s=0.5),
    Workload(
        name="fleet-ckpt",
        why="8 srsran cells, a handover ring churning UEs, checkpoint every "
            "0.5 s and a live query mix: telemetry reads and persistence",
        profile="srsran", fidelity="message", air_s=2.0, n_cells=8,
        devices_per_cell=2, snr_db=0.0, checkpoint_interval_s=0.5,
        poll_interval_s=0.25),
    # Runnable, not gated: on the 2-CPU host its two workers and the
    # parent contend with the calibration bursts, and its in-flight
    # backlog (hence peak RSS) follows timing; over ten seeds
    # sniffer_rt_factor spread 15% and peak RSS 8% (bound 5%).
    Workload(
        name="sniff-iq-proc",
        why="sniff-iq on process:2: the process executor, its wire "
            "payloads, IPC and merge",
        profile="amarisoft", fidelity="iq", air_s=0.5, n_ues=16,
        executor="process:2", poll_interval_s=0.01, gated=False),
)}


@dataclass
class Session:
    """What one repeat of a workload measured and produced.

    Times are as measured.  The untraced run adds the ``*_ref_s``
    figures the end-to-end metrics report, at reference machine speed
    (``probes.Calibrator``): loop and set-up from wall time, each slot
    and each query from the calling thread's CPU time.
    """

    setup_s: float
    air_s: float                  # air seconds (cell-seconds for a fleet)
    wall_s: float                 # the whole timed loop
    slot_budget_s: float
    slots: int
    dropped: int                  # slots shed under backpressure
    ground_truth: int             # UE-space DCIs in the gNB logs
    missed: int
    phantom: int
    digest: str                   # sha256 of the telemetry JSONL
    rss_mb: float
    query_s: list[float]
    errors: list[str] = field(default_factory=list)
    #: Numbers the program exposes through its public API (runtime
    #: stats, decoder attempts, obs counts, on-disk sizes).
    layers: dict[str, float] = field(default_factory=dict)
    # Untraced only:
    slot_s: list[float] = field(default_factory=list)
    slot_cpu_s: list[float] = field(default_factory=list)
    setup_ref_s: float = 0.0
    wall_ref_s: float = 0.0
    sniffer_ref_s: float = 0.0
    slot_ref_s: list[float] = field(default_factory=list)
    query_ref_s: list[float] = field(default_factory=list)

    @property
    def air_per_wall(self) -> float:
        """As measured, at whatever speed the machine had."""
        return self.air_s / self.wall_s


class Queries:
    """The dashboard query mix: each query's CPU time and end time.

    ``calibrate`` runs before every poll, so the untraced run has
    calibration bursts around the queries it scales.
    """

    def __init__(self, calibrate: Callable[[], None]) -> None:
        self.seconds: list[float] = []
        self.ends: list[float] = []
        #: Wall time spent querying (calibration bursts excluded).
        self.wall_s = 0.0
        self._calibrate = calibrate

    def call(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        cpu = time.thread_time()
        result = fn(*args, **kwargs)
        self.seconds.append(time.thread_time() - cpu)
        self.ends.append(time.perf_counter())
        return result

    def poll(self, logs: list[TelemetryLog], now_s: float,
             window_s: float) -> None:
        """One live-dashboard refresh over every RNTI in every store."""
        self._calibrate()
        start = time.perf_counter()
        self._query_all(logs, now_s, window_s)
        self.wall_s += time.perf_counter() - start

    def _query_all(self, logs: list[TelemetryLog], now_s: float,
                   window_s: float) -> None:
        for log in logs:
            for rnti in log.rntis():
                for downlink in (True, False):
                    self.call(log.bits_between, rnti, now_s - window_s,
                              now_s, downlink=downlink)
                    self.call(log.bitrate_series, rnti, BITRATE_WINDOW_S,
                              now_s, downlink=downlink)
                    self.call(log.mcs_distribution, rnti,
                              downlink=downlink)
                    self.call(log.retransmission_ratio, rnti,
                              downlink=downlink)


# ----------------------------------------------------------- helpers
def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, plus every live child's with
    ``children`` (read from ``/proc``)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not children:
        return kb / 1024.0
    me = str(os.getpid())
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue
        fields = dict(line.split(":", 1) for line in status.splitlines()
                      if ":" in line)
        if fields.get("PPid", "").strip() == me and "VmHWM" in fields:
            kb += int(fields["VmHWM"].split()[0])
    return kb / 1024.0


def start_executor(spec: str) -> Executor:
    """Build an executor and bring every worker up before the loop."""
    executor = build_executor(spec)
    executor.start()
    if executor.requires_payload:
        n_workers = int(getattr(executor, "n_workers", 1))
        for seq in range(n_workers):
            executor.try_submit_payload(-1 - seq, time.sleep, WARMUP_JOB_S)
        executor.wait(60.0)
        executor.pop_ready()
    return executor


def file_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def runtime_layers(stats_list: list[Any]) -> dict[str, float]:
    """Fold per-cell ``RuntimeStats`` into the runtime layer numbers."""
    out: dict[str, float] = {
        "runtime.budget_overruns": float(sum(s.budget_overruns
                                             for s in stats_list)),
        "runtime.slots_dropped": float(sum(s.slots_dropped
                                           for s in stats_list)),
    }
    for name in ("sync", "prune", "uci", "capture", "rach", "dci",
                 "sinks"):
        calls = sum(s.stage(name).calls for s in stats_list)
        total = sum(s.stage(name).total_s for s in stats_list)
        out[f"runtime.stage.{name}.mean_us"] = \
            1e6 * total / calls if calls else 0.0
    return out


def decoder_layers(scopes: list[NRScope], fidelity: str) -> dict[str, float]:
    """DCI attempts and decodes, read through the checkpoint snapshot."""
    key = "grid_decoder" if fidelity == "iq" else "record_decoder"
    attempts = decoded = 0
    for scope in scopes:
        state = scope.checkpoint_state()[key]
        attempts += state["attempts"] if state else 0
        decoded += scope.counters.dcis_decoded
    return {"dci.attempts": float(attempts),
            "dci.useful_ratio": decoded / attempts if attempts else 0.0}


def match_cell(sim: Simulation, log: TelemetryLog) -> tuple[int, int, int]:
    """(ground truth, missed, phantom) UE-space DCIs for one cell."""
    truth = [r for r in sim.gnb.log.dci_records if r.search_space == "ue"]
    result = match_dcis(truth, log.records)
    return len(truth), len(result.missed), len(result.phantom)


# ---------------------------------------------------------- sniffing
def _setup_sniff(w: Workload, seed: int, workdir: Path):
    gc.collect()
    start = time.perf_counter()
    sim = Simulation.build(ALL_PROFILES[w.profile], n_ues=w.n_ues,
                           seed=seed, fidelity=w.fidelity)
    reporters: list[Any] = []
    obs: Any = OBS_NOOP
    if w.deployment:
        reporters = [CounterReporter(), JsonlReporter(workdir / "obs.jsonl")]
        obs = ObsContext.create(reporters, run_id=f"bench-{seed:08x}")
    scope = NRScope.attach(sim, snr_db=w.snr_db,
                           executor=start_executor(w.executor), obs=obs)
    return time.perf_counter() - start, sim, scope, obs, reporters


def _sniff(w: Workload, seed: int, workdir: Path, tracer: Tracer | None,
           timer: SlotTimer | None, queries: Queries) -> Session:
    setup_s, sim, scope, obs, reporters = _setup_sniff(w, seed, workdir)
    if tracer is not None:
        tracer.install(reporter_probes(reporters))
    telemetry_path = workdir / "telemetry.jsonl"
    slots_per_poll = round(w.poll_interval_s / sim.profile.slot_duration_s)
    gc.collect()
    start = time.perf_counter()
    for k in range(1, round(w.air_s / w.poll_interval_s) + 1):
        sim.run_slots(slots_per_poll)
        # The dashboard reads committed telemetry while the session
        # runs; its time (and its calibration) is left out of the loop.
        queries.poll([scope.telemetry], k * w.poll_interval_s,
                     w.poll_interval_s)
    sim.flush_observers()
    paused = time.perf_counter()
    rss_mb = peak_rss_mb(children=not w.deterministic)  # workers alive
    resumed = time.perf_counter()
    scope.close()
    if w.deployment:
        scope.telemetry.write_jsonl(telemetry_path)
        obs.close()
    wall_s = (paused - start) + (time.perf_counter() - resumed) \
        - queries.wall_s \
        - (timer.calibrator.spent_s if timer is not None else 0.0)
    _stop(tracer, timer)

    if not w.deployment:
        scope.telemetry.write_jsonl(telemetry_path)
    truth, missed, phantom = match_cell(sim, scope.telemetry)
    layers = runtime_layers([scope.runtime_stats])
    layers.update(decoder_layers([scope], w.fidelity))
    if w.deployment:
        layers["obs.events"] = float(reporters[1].count)
    session = Session(
        setup_s=setup_s, air_s=w.air_s, wall_s=wall_s,
        slot_budget_s=sim.profile.slot_duration_s, slots=sim.slots_run,
        dropped=scope.counters.slots_dropped, ground_truth=truth,
        missed=missed, phantom=phantom,
        digest=file_digest([telemetry_path]), rss_mb=rss_mb,
        query_s=queries.seconds, layers=layers)
    expected = round(w.air_s / sim.profile.slot_duration_s)
    if sim.slots_run != expected:
        session.errors.append(f"ran {sim.slots_run} slots, "
                              f"expected {expected}")
    return session


# -------------------------------------------------------------- fleet
def _setup_fleet(w: Workload, seed: int) \
        -> tuple[float, FleetSupervisor, dict[str, list[int]]]:
    """Build the fleet and attach each cell's devices."""
    gc.collect()
    start = time.perf_counter()
    fleet = FleetSupervisor.build(FleetConfig(
        n_cells=w.n_cells, profile=w.profile, seed=seed,
        snr_db=w.snr_db, arrivals_per_second=NO_ARRIVALS_PER_S,
        horizon_s=w.air_s, fidelity=w.fidelity,
        checkpoint_interval_s=w.checkpoint_interval_s,
        executor=w.executor))
    controller = fleet.controller
    devices = {cell: [controller.attach_device(cell)
                      for _ in range(w.devices_per_cell)]
               for cell in controller.cells}
    return time.perf_counter() - start, fleet, devices


def _hand_over(fleet: FleetSupervisor,
               devices: dict[str, list[int]]) -> None:
    """Each cell hands its oldest device to the next cell (a ring)."""
    cells = fleet.controller.cells
    moves = [(cell, cells[(i + 1) % len(cells)], devices[cell].pop(0))
             for i, cell in enumerate(cells)]
    for source, target, ue_id in moves:
        devices[target].append(
            fleet.controller.handover(ue_id, source, target))


def _fleet(w: Workload, seed: int, workdir: Path, tracer: Tracer | None,
           timer: SlotTimer | None, queries: Queries) -> Session:
    setup_s, fleet, devices = _setup_fleet(w, seed)
    controller = fleet.controller
    streams = [controller.stream(name) for name in controller.cells]
    logs = [stream.scope.telemetry for stream in streams]
    checkpoint = workdir / "fleet.ckpt"
    segments = workdir / "segments"
    polls_per_checkpoint = round(w.checkpoint_interval_s
                                 / w.poll_interval_s)

    gc.collect()
    start = time.perf_counter()
    n_polls = round(w.air_s / w.poll_interval_s)
    for k in range(1, n_polls + 1):
        due = k % polls_per_checkpoint == 0
        fleet.run(w.poll_interval_s,
                  checkpoint_path=checkpoint if due else None)
        queries.poll(logs, k * w.poll_interval_s, w.poll_interval_s)
        for left, right in zip(streams, streams[1:]):
            queries.call(multicell.correlate_streams, left, right)
        if k < n_polls:
            _hand_over(fleet, devices)
    for stream in streams:
        stream.scope.close()
    fleet.write_segments(segments)
    wall_s = time.perf_counter() - start \
        - (timer.calibrator.spent_s if timer is not None else 0.0)
    rss_mb = peak_rss_mb()
    _stop(tracer, timer)

    paths = []
    truth = missed = phantom = 0
    for stream in streams:
        path = workdir / f"{stream.name}.jsonl"
        stream.scope.telemetry.write_jsonl(path)
        paths.append(path)
        cell = match_cell(stream.sim, stream.scope.telemetry)
        truth, missed, phantom = (truth + cell[0], missed + cell[1],
                                  phantom + cell[2])
    layers = runtime_layers([s.scope.runtime_stats for s in streams])
    layers.update(decoder_layers([s.scope for s in streams], w.fidelity))
    layers["fleet.checkpoint.bytes_last"] = float(checkpoint.stat().st_size)
    layers["telemetry.segments.bytes"] = float(sum(
        p.stat().st_size for p in segments.rglob("*") if p.is_file()))
    session = Session(
        setup_s=setup_s, air_s=w.air_s * len(streams), wall_s=wall_s,
        slot_budget_s=streams[0].sim.profile.slot_duration_s,
        slots=sum(s.sim.slots_run for s in streams),
        dropped=sum(s.scope.counters.slots_dropped for s in streams),
        ground_truth=truth, missed=missed, phantom=phantom,
        digest=file_digest(paths), rss_mb=rss_mb, query_s=queries.seconds,
        layers=layers)
    session.errors.extend(_check_fleet_persistence(fleet, checkpoint,
                                                   segments))
    return session


def _check_fleet_persistence(fleet: FleetSupervisor, checkpoint: Path,
                             segments: Path) -> list[str]:
    """The last checkpoint restores and the segments round-trip."""
    errors = []
    restored = FleetSupervisor.restore(checkpoint)
    if restored.controller.cells != fleet.controller.cells:
        errors.append("restored fleet has different cells")
    if restored.now_s != fleet.now_s:
        errors.append(f"restored clock {restored.now_s} != {fleet.now_s}")
    for name in fleet.controller.cells:
        rows = len(fleet.controller.stream(name).scope.telemetry)
        if name in restored.controller.cells:
            back = len(restored.controller.stream(name).scope.telemetry)
            if back != rows:
                errors.append(f"{name}: checkpoint restored {back} rows, "
                              f"live {rows}")
        reread = len(TelemetryStore.read_segments(segments / name))
        if reread != rows:
            errors.append(f"{name}: segments hold {reread} rows, "
                          f"live {rows}")
    return errors


# ------------------------------------------------------------ repeats
def _stop(tracer: Tracer | None, timer: SlotTimer | None) -> None:
    """End the measured part: put every probed attribute back."""
    if tracer is not None:
        tracer.restore()
    if timer is not None:
        timer.restore()


def run_session(w: Workload, seed: int, workdir: Path,
                tracer: Tracer | None = None) -> Session:
    """One repeat: set-up, timed loop, query mix, checks.

    Untraced, a :class:`SlotTimer` times every ``observe_slot`` call and
    a :class:`Calibrator` samples machine speed between slots and
    before each query poll; traced, the tracer's probes are installed
    instead.  Either goes in before set-up (the simulation keeps the
    bound method it is given) and is restored before the checks run.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    setup_speed = Calibrator()
    setup_speed.sample(SETUP_BURSTS)
    timer = None
    if tracer is None:
        timer = SlotTimer(Calibrator())
        timer.install(NRScope)
        queries = Queries(lambda: timer.calibrator.sample(QUERY_BURSTS))
    else:
        tracer.install(program_probes())
        queries = Queries(lambda: None)
    body = _fleet if w.fleet else _sniff
    try:
        session = body(w, seed, workdir, tracer, timer, queries)
    finally:
        _stop(tracer, timer)
    if session.phantom:
        session.errors.append(f"{session.phantom} phantom DCIs")
    if timer is not None:
        speed = timer.calibrator
        session.slot_s = timer.slot_s
        session.slot_cpu_s = timer.slot_cpu_s
        session.setup_ref_s = session.setup_s * setup_speed.scale
        session.wall_ref_s = session.wall_s * speed.scale
        session.slot_ref_s = (np.asarray(timer.slot_cpu_s)
                              * speed.local_scales(timer.slot_end)).tolist()
        session.query_ref_s = (np.asarray(queries.seconds)
                               * speed.local_scales(queries.ends)).tolist()
        session.sniffer_ref_s = timer.sniffer_s * speed.scale
    return session


def measure_setup(w: Workload, seed: int, workdir: Path) -> float:
    """Set-up alone (build, attach, start the executor), then tear
    down; returned at reference speed."""
    workdir.mkdir(parents=True, exist_ok=True)
    speed = Calibrator()
    speed.sample(SETUP_BURSTS)
    if w.fleet:
        return _setup_fleet(w, seed)[0] * speed.scale
    setup_s, _, scope, obs, _ = _setup_sniff(w, seed, workdir)
    scope.close()
    obs.close()
    return setup_s * speed.scale
