"""Tests for the staged slot runtime (executors, ordering, backpressure)."""

import time

import pytest

from repro import NRScope, Simulation
from repro.core.dci_decoder import DecodeSpec, grid_decode_job
from repro.core.rach_sniffer import RachSniffer
from repro.core.scope import GridDecodePayload
from repro.core.runtime import Executor, InlineExecutor, JobResult, \
    ProcessExecutor, SlotRuntime, SlotRuntimeError, Stage, build_executor
from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.phy.dci import Dci, DciFormat, riv_encode
from repro.phy.pdcch import PdcchCandidate, encode_pdcch
from repro.phy.resource_grid import ResourceGrid
from repro.rrc.messages import RrcSetup


def build_tracked(n_ues=3):
    """A tracked-UE table with real search spaces."""
    sniffer = RachSniffer(bwp_n_prb=51)
    setup = RrcSetup(tc_rnti=0x4601,
                     search_space=SRSRAN_PROFILE.search_space_config())
    sniffer.discover(0x4601, 0.0, setup)
    for i in range(1, n_ues):
        sniffer.discover(0x4601 + i, 0.0, None)
    return sniffer.tracked


def build_slot(tracked, slot_index=4):
    """Encode one real DCI per tracked UE into a grid."""
    grid = ResourceGrid(SRSRAN_PROFILE.n_prb)
    cfg = SRSRAN_PROFILE.dci_size_config()
    used = set()
    encoded = 0
    for rnti, ue in tracked.items():
        space = ue.search_space
        for start in space.candidate_cces(2, slot_index, rnti):
            cces = set(range(start, start + 2))
            if cces & used:
                continue
            dci = Dci(format=DciFormat.DL_1_1, rnti=rnti,
                      freq_alloc_riv=riv_encode(0, 4, 51), time_alloc=1,
                      mcs=10, ndi=0, rv=0, harq_id=0)
            encode_pdcch(dci, cfg, space.coreset,
                         PdcchCandidate(start, 2), grid,
                         n_id=SRSRAN_PROFILE.cell_id,
                         slot_index=slot_index)
            used |= cces
            encoded += 1
            break
    return grid, encoded


class TestDecodeJob:
    def test_job_decodes_every_encoded_dci(self):
        tracked = build_tracked(3)
        grid, encoded = build_slot(tracked)
        spec = DecodeSpec(dci_cfg=SRSRAN_PROFILE.dci_size_config(),
                          n_id=SRSRAN_PROFILE.cell_id, noise_var=1e-3)
        decoded, attempts = grid_decode_job(GridDecodePayload(
            spec=spec, grid=grid, slot_index=4, tracked=tracked))
        assert len(decoded) == encoded
        assert attempts >= encoded


class TestWireForms:
    def test_only_a_payload_that_crosses_is_packed(self, monkeypatch):
        import repro.core.scope as scope_module
        packed = []
        pack = scope_module.pack_grid_for_decode
        monkeypatch.setattr(
            scope_module, "pack_grid_for_decode",
            lambda grid, tracked: packed.append(grid) or pack(grid, tracked))
        tracked = build_tracked(3)
        grid, encoded = build_slot(tracked)
        payload = GridDecodePayload(
            spec=DecodeSpec(dci_cfg=SRSRAN_PROFILE.dci_size_config(),
                            n_id=SRSRAN_PROFILE.cell_id, noise_var=1e-3),
            grid=grid, slot_index=4, tracked=tracked)
        inline = InlineExecutor()
        inline.try_submit_payload(0, grid_decode_job, payload)
        [local] = inline.pop_ready()
        assert packed == []
        process = ProcessExecutor(n_workers=1)
        try:
            assert process.try_submit_payload(1, grid_decode_job, payload)
            # packed once, on the submitting thread, at submit
            assert packed == [grid]
            # an unpicklable payload fails its own slot, not the submit
            assert process.try_submit_payload(2, square, lambda: 0)
            process.wait(60.0)
            results = {r.seq: r for r in process.pop_ready()}
        finally:
            process.shutdown()
        assert results[1].error is None
        assert results[1].result == local.result
        assert len(local.result[0]) == encoded
        assert results[2].error is not None


def square(n):
    return n * n


def explode(payload):
    raise RuntimeError("decode exploded")


def parallel_stage(name, job, payload_of=lambda ctx: ctx.output,
                   merge=lambda ctx, result: None):
    """A parallel stage that runs ``job`` on ``payload_of(ctx)``."""
    return Stage(name, pack=lambda ctx: (job, payload_of(ctx)),
                 merge=merge)


def make_runtime(executor=None, **kwargs):
    """A three-stage runtime: tag on the backbone, square in parallel,
    collect in the sink."""
    committed = []

    def backbone(ctx):
        ctx.output = dict(ctx.output)

    def merge(ctx, result):
        ctx.output["square"] = result

    def sink(ctx):
        committed.append(ctx)

    runtime = SlotRuntime(
        stages=[Stage("backbone", backbone),
                parallel_stage("work", square,
                               payload_of=lambda ctx: ctx.output["n"],
                               merge=merge),
                Stage("sink", sink, sink=True)],
        executor=executor, **kwargs)
    return runtime, committed


class ReversingExecutor(InlineExecutor):
    """Test double: runs each job at once but hands the results back
    in reverse submission order, and only when waited on."""

    def __init__(self):
        super().__init__()
        self._released = []

    def pop_ready(self):
        released, self._released = self._released, []
        return released

    def wait(self, timeout_s):
        self._released = super().pop_ready()[::-1]


class TestSlotRuntime:
    def test_inline_processes_synchronously(self):
        runtime, committed = make_runtime(InlineExecutor())
        for n in range(5):
            runtime.submit({"n": n})
        assert [c.output["square"] for c in committed] == \
            [n * n for n in range(5)]
        stats = runtime.stats()
        assert stats.slots_submitted == stats.slots_completed == 5
        assert stats.slots_dropped == 0
        assert stats.stage("work").calls == 5
        assert stats.stage("work").mean_us >= 0.0

    def test_out_of_order_completion_commits_in_slot_order(self):
        runtime, committed = make_runtime(ReversingExecutor())
        for n in range(40):
            runtime.submit({"n": n})
        assert committed == []
        runtime.close()
        assert [c.output["n"] for c in committed] == list(range(40))
        assert [c.output["square"] for c in committed] == \
            [n * n for n in range(40)]
        assert runtime.stats().slots_completed == 40

    def test_halted_slot_skips_tail(self):
        hits = []
        runtime = SlotRuntime(stages=[
            Stage("gate", lambda ctx: False if ctx.output < 0 else None),
            Stage("tail", hits.append, sink=True)])
        runtime.submit(-1)
        runtime.submit(1)
        assert len(hits) == 1
        assert runtime.stats().slots_completed == 1

    def test_worker_error_raised_at_commit(self):
        # ``int`` is a module-level job a worker process can unpickle;
        # this payload makes it raise there.
        runtime = SlotRuntime(
            stages=[parallel_stage("work", int)],
            executor=ProcessExecutor(n_workers=1))
        try:
            with pytest.raises(SlotRuntimeError, match="invalid literal"):
                runtime.submit("not a number")
                runtime.flush()
        finally:
            runtime.executor.shutdown()

    def test_inline_job_error_raised_at_commit(self):
        runtime = SlotRuntime(stages=[parallel_stage("work", explode)])
        with pytest.raises(SlotRuntimeError,
                           match="decode exploded") as excinfo:
            runtime.submit(object())
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_merge_error_raised_at_commit(self):
        def bad_merge(ctx, result):
            raise ValueError("merge exploded")

        runtime = SlotRuntime(
            stages=[parallel_stage("work", square, merge=bad_merge)])
        with pytest.raises(SlotRuntimeError, match="merge exploded"):
            runtime.submit(3)

    def test_reset_stats(self):
        runtime, _ = make_runtime(InlineExecutor())
        runtime.submit({"n": 2})
        runtime.reset_stats()
        stats = runtime.stats()
        assert stats.slots_submitted == 0
        assert stats.stage("work").calls == 0

    def test_stage_is_fn_or_pack_merge_pair(self):
        def pack(ctx):
            return square, 1

        def merge(ctx, result):
            return None

        for kwargs in ({}, {"fn": square, "pack": pack, "merge": merge},
                       {"pack": pack}, {"fn": square, "merge": merge},
                       {"pack": pack, "merge": merge, "sink": True}):
            with pytest.raises(SlotRuntimeError):
                Stage("bad", **kwargs)
        assert Stage("ok", pack=pack, merge=merge).parallel
        assert not Stage("ok", square).parallel

    def test_rejects_two_parallel_stages(self):
        with pytest.raises(SlotRuntimeError):
            SlotRuntime(stages=[parallel_stage("a", square),
                                parallel_stage("b", square)])

    def test_rejects_backbone_after_sink(self):
        with pytest.raises(SlotRuntimeError):
            SlotRuntime(stages=[Stage("sink", lambda c: None, sink=True),
                                Stage("late", lambda c: None)])

    def test_rejects_duplicate_stage_names(self):
        with pytest.raises(SlotRuntimeError):
            SlotRuntime(stages=[Stage("x", lambda c: None),
                                Stage("x", lambda c: None)])

    def test_unknown_stage_lookup(self):
        runtime, _ = make_runtime(InlineExecutor())
        with pytest.raises(SlotRuntimeError):
            runtime.stats().stage("nonexistent")


class TestBackpressure:
    """Real backpressure: one worker process sleeping through each
    slot's job (``time.sleep`` is a module-level job it can unpickle)."""

    def test_overload_drops_with_accounting_and_never_deadlocks(self):
        """Feed slots far faster than the single busy worker can
        process: the runtime must shed them with accounting, then
        flush cleanly — no stall, no deadlock."""
        runtime = SlotRuntime(
            stages=[parallel_stage("slow", time.sleep,
                                   payload_of=lambda ctx: 0.2),
                    Stage("sink", lambda ctx: None, sink=True)],
            executor=ProcessExecutor(n_workers=1, queue_depth=2),
            drop_cost=lambda ctx: 3)
        start = time.monotonic()
        for n in range(50):
            runtime.submit(n)
        assert time.monotonic() - start < 2.0, "submission must not stall"
        runtime.close()
        stats = runtime.stats()
        assert stats.slots_dropped > 0
        assert stats.dcis_dropped == 3 * stats.slots_dropped
        # Dropped slots still commit the sink, so every slot completes.
        assert stats.slots_completed == 50
        assert stats.drop_rate > 0.0

    def test_dropped_context_flagged(self):
        dropped_flags = []
        runtime = SlotRuntime(
            stages=[parallel_stage("slow", time.sleep,
                                   payload_of=lambda ctx: 0.05),
                    Stage("sink",
                          lambda ctx: dropped_flags.append(ctx.dropped),
                          sink=True)],
            executor=ProcessExecutor(n_workers=1, queue_depth=1))
        for n in range(20):
            runtime.submit(n)
        runtime.close()
        assert any(dropped_flags)
        assert not dropped_flags[0]

    def test_flush_timeout_raises(self):
        runtime = SlotRuntime(
            stages=[parallel_stage("hang", time.sleep,
                                   payload_of=lambda ctx: 1.0)],
            executor=ProcessExecutor(n_workers=1))
        runtime.submit(object())
        with pytest.raises(SlotRuntimeError, match="timed out"):
            runtime.flush(timeout_s=0.05)
        runtime.close()


class StallingExecutor(Executor):
    """Test double: holds one job and refuses every other until the
    runtime waits on it (the scope flushes at prune boundaries and at
    close), then runs the held job inline."""

    def __init__(self):
        self._held = None
        self._ready = []

    def try_submit_payload(self, seq, job, payload):
        if self._held is not None:
            return False
        self._held = (seq, job, payload)
        return True

    def pop_ready(self):
        ready, self._ready = self._ready, []
        return ready

    def wait(self, timeout_s):
        if self._held is not None:
            seq, job, payload = self._held
            self._held = None
            self._ready.append(JobResult(seq=seq, result=job(payload),
                                         elapsed_s=0.0))


class TestScopeBackpressure:
    def test_scope_sheds_slots_as_counted_dci_misses(self):
        """A scope whose executor cannot keep up reports the shed slots
        in both RuntimeStats and its own DCI-miss counters — and the
        session still terminates."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=11)
        scope = NRScope.attach(sim, snr_db=20.0,
                               executor=StallingExecutor())
        sim.run_slots(400)
        scope.close()
        stats = scope.runtime_stats
        assert stats.slots_dropped > 0
        assert scope.counters.slots_dropped == stats.slots_dropped
        assert scope.counters.dcis_dropped == stats.dcis_dropped
        assert scope.counters.dcis_dropped > 0


class TestExecutors:
    def test_build_executor_names(self):
        assert build_executor("inline").name == "inline"
        process = build_executor("process", queue_depth=7)
        assert process.n_workers == 4
        assert process.queue_depth == 7
        passthrough = InlineExecutor()
        assert build_executor(passthrough) is passthrough
        with pytest.raises(SlotRuntimeError):
            build_executor("quantum")

    def test_worker_count_suffix(self):
        process = build_executor("process:2")
        assert isinstance(process, ProcessExecutor)
        assert process.name == "process"
        assert process.n_workers == 2
        assert build_executor("process:3").n_workers == 3
        with pytest.raises(SlotRuntimeError):
            build_executor("inline:2")
        with pytest.raises(SlotRuntimeError):
            build_executor("process:lots")

    def test_process_rejects_bad_config(self):
        for kwargs in ({"n_workers": 0}, {"queue_depth": 0}):
            with pytest.raises(SlotRuntimeError):
                ProcessExecutor(**kwargs)

    def test_only_process_executor_requires_payload(self):
        # Callers (benchmarks) warm workers up only where jobs cross a
        # process boundary.
        assert InlineExecutor.requires_payload is False
        assert ProcessExecutor.requires_payload is True

    def test_shutdown_idempotent(self):
        executor = ProcessExecutor(n_workers=1)
        executor.start()
        executor.shutdown()
        executor.shutdown()


class TestCrossExecutorDeterminism:
    @pytest.mark.parametrize("fidelity,seconds",
                             [("message", 0.5), ("iq", 0.1)])
    def test_process_executor_matches_inline(self, fidelity, seconds):
        """Same bar across the process boundary: the spawned-worker
        session (slim wire payloads, per-worker kernel caches) commits
        the identical TelemetryLog."""

        def session(executor, **kwargs):
            sim = Simulation.build(SRSRAN_PROFILE, n_ues=4, seed=42,
                                   fidelity=fidelity)
            scope = NRScope.attach(sim, snr_db=18.0, executor=executor,
                                   idle_timeout_s=5.0, **kwargs)
            sim.run(seconds=seconds)
            scope.close()
            return scope

        inline = session("inline")
        # A deep queue: the simulated clock outruns 1-CPU CI boxes, and
        # this comparison needs a drop-free run, not backpressure.
        process = session("process:2", queue_depth=8192)
        assert process.runtime_stats.slots_dropped == 0, \
            "determinism comparison needs a drop-free run"
        assert inline.telemetry.records == process.telemetry.records
        assert inline.counters == process.counters
        assert inline.tracked_rntis == process.tracked_rntis
        assert inline.uci.observations == process.uci.observations
