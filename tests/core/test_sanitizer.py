"""nrsan tests: the runtime half of the stage-purity contract.

The headline test mirrors the static R006 fixture dynamically: a
parallel job that mutates the tracked snapshot must be caught by the
write-guard and surface as a ``SlotRuntimeError`` at commit.
"""

import numpy as np
import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.core.rach_sniffer import RachSniffer
from repro.core.runtime import (
    SlotContext,
    SlotRuntime,
    SlotRuntimeError,
    Stage,
)
from repro.core.sanitizer import (
    AuditedGenerator,
    GuardedTrackedTable,
    Sanitizer,
    SanitizerViolation,
    parallel_stage,
)


def make_ue(rnti=0x4601):
    from repro.rrc.messages import RrcSetup
    sniffer = RachSniffer(bwp_n_prb=52)
    return sniffer.discover(rnti, 0.0, RrcSetup(tc_rnti=rnti))


class TestActivation:
    def test_disabled_hooks_are_passthrough(self):
        san = Sanitizer(enabled=False)
        table = {1: make_ue(1)}
        rng = np.random.default_rng(0)
        assert san.guard_tracked(table) is table
        assert san.audit_rng(rng) is rng

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("NRSAN", raising=False)
        assert not Sanitizer.from_env().enabled
        for value in ("1", "on", "yes", "true"):
            monkeypatch.setenv("NRSAN", value)
            assert Sanitizer.from_env().enabled
        for value in ("0", "off", "false", ""):
            monkeypatch.setenv("NRSAN", value)
            assert not Sanitizer.from_env().enabled

    def test_parallel_stage_marker_returns_function(self):
        def fn(ctx):
            return ctx

        marked = parallel_stage(fn)
        assert marked is fn
        assert marked.__nr_parallel_stage__


class TestTrackedGuard:
    def test_snapshot_is_frozen_everywhere(self, nrsan):
        guarded = nrsan.guard_tracked({1: make_ue(1)})
        assert isinstance(guarded, GuardedTrackedTable)
        for op in (lambda: guarded.pop(1),
                   lambda: guarded.popitem(),
                   lambda: guarded.clear(),
                   lambda: guarded.update({2: make_ue(2)}),
                   lambda: guarded.setdefault(3, make_ue(3)),
                   lambda: guarded.__setitem__(4, make_ue(4)),
                   lambda: guarded.__delitem__(1)):
            with pytest.raises(SanitizerViolation):
                op()
        assert nrsan.violations

    def test_reads_pass_through(self, nrsan):
        ue = make_ue(7)
        guarded = nrsan.guard_tracked({7: ue})
        assert 7 in guarded
        assert guarded[7].rnti == 7
        assert guarded[7].search_space is ue.search_space
        assert sorted(guarded) == [7]

    def test_ue_mutation_legal_outside_stage(self, nrsan):
        ue = make_ue()
        guarded = nrsan.guard_tracked({ue.rnti: ue})
        guarded[ue.rnti].touch(1.5)
        assert ue.last_seen_s == 1.5
        guarded[ue.rnti].decoded_dcis = 3
        assert ue.decoded_dcis == 3

    def test_ue_mutation_trips_inside_stage(self, nrsan):
        ue = make_ue()
        guarded = nrsan.guard_tracked({ue.rnti: ue})
        with nrsan.parallel_stage_scope("dci"):
            with pytest.raises(SanitizerViolation):
                guarded[ue.rnti].touch(2.0)
            with pytest.raises(SanitizerViolation):
                guarded[ue.rnti].decoded_dcis = 9
        assert ue.last_seen_s == 0.0
        assert any("dci" in v for v in nrsan.violations)


class TestRngAudit:
    def test_stream_is_bit_identical(self, nrsan):
        bare = np.random.default_rng(42)
        audited = nrsan.audit_rng(np.random.default_rng(42))
        assert isinstance(audited, AuditedGenerator)
        assert audited.random() == bare.random()
        assert np.array_equal(audited.integers(0, 100, 10),
                              bare.integers(0, 100, 10))
        assert np.array_equal(audited.normal(0, 1, 5), bare.normal(0, 1, 5))

    def test_draw_trips_inside_stage(self, nrsan):
        audited = nrsan.audit_rng(np.random.default_rng(0))
        with nrsan.parallel_stage_scope("dci"):
            with pytest.raises(SanitizerViolation):
                audited.random()
        # Outside the scope the same proxy draws again.
        assert 0.0 <= audited.random() < 1.0

    def test_scope_is_thread_local(self, nrsan):
        import threading

        audited = nrsan.audit_rng(np.random.default_rng(0))
        results = {}

        def other_thread():
            try:
                results["value"] = audited.random()
            except SanitizerViolation as exc:  # pragma: no cover
                results["error"] = exc

        with nrsan.parallel_stage_scope("dci"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert "value" in results and "error" not in results


def touch_every_ue(tracked):
    """An impure decode job: the violation bad_stage.py seeds for
    static R006."""
    for ue in tracked.values():
        ue.touch(9.9)


class TestRuntimeIntegration:
    """The dynamic R006 catch: an impure parallel job fails at commit."""

    def _runtime(self, nrsan, job, merge=lambda ctx, result: None):
        # Pack hands the job the tracked snapshot itself: the inline
        # executor runs it in-process, inside the sanitizer's scope.
        return SlotRuntime(
            stages=[Stage("decode", pack=lambda ctx: (job, ctx.tracked),
                          merge=merge)],
            sanitizer=nrsan)

    def test_tracked_mutation_in_parallel_stage_is_caught(self, nrsan):
        ue = make_ue()
        runtime = self._runtime(nrsan, touch_every_ue)
        ctx = SlotContext(output=None)
        ctx.tracked = nrsan.guard_tracked({ue.rnti: ue})
        with pytest.raises(SlotRuntimeError) as excinfo:
            runtime.submit(ctx)
            runtime.flush()
        assert isinstance(excinfo.value.__cause__, SanitizerViolation)
        assert ue.last_seen_s == 0.0
        assert nrsan.violations

    def test_rng_draw_in_parallel_stage_is_caught(self, nrsan):
        audited = nrsan.audit_rng(np.random.default_rng(0))

        def drawing_job(tracked):
            return audited.random()

        runtime = self._runtime(nrsan, drawing_job)
        with pytest.raises(SlotRuntimeError):
            runtime.submit(SlotContext(output=None))
            runtime.flush()

    def test_pure_stage_passes(self, nrsan):
        seen = []
        runtime = self._runtime(
            nrsan, sorted, merge=lambda ctx, result: seen.append(result))
        ctx = SlotContext(output=None)
        ctx.tracked = nrsan.guard_tracked({5: make_ue(5)})
        runtime.submit(ctx)
        runtime.flush()
        assert seen == [[5]]
        assert nrsan.violations == []


class TestScopeIntegration:
    def _session(self, sanitizer=None, seconds=0.5, seed=5):
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=seed)
        scope = NRScope.attach(sim, snr_db=20.0,
                               **({"sanitizer": sanitizer}
                                  if sanitizer is not None else {}))
        sim.run(seconds=seconds)
        scope.flush()
        return scope

    def test_instrumented_session_is_clean_and_identical(self, nrsan):
        """The production pipeline passes its own runtime audit, and
        instrumentation does not perturb telemetry."""
        bare = self._session()
        instrumented = self._session(sanitizer=nrsan)
        assert nrsan.violations == []
        assert instrumented.counters.dcis_decoded > 0
        assert [r for r in instrumented.telemetry.records] \
            == [r for r in bare.telemetry.records]

    def test_process_executor_session_stays_clean(self, nrsan):
        """The audit holds across the process boundary too: the parent
        half of a ProcessExecutor session (payload packing, result
        merge, commit) runs instrumented and stays violation-free, with
        telemetry identical to the bare inline session."""
        bare = self._session()
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=5)
        scope = NRScope.attach(sim, snr_db=20.0, sanitizer=nrsan,
                               executor="process:2",
                               queue_depth=8192, idle_timeout_s=5.0)
        sim.run(seconds=0.5)
        scope.close()
        assert nrsan.violations == []
        assert scope.runtime_stats.slots_dropped == 0
        assert [r for r in scope.telemetry.records] \
            == [r for r in bare.telemetry.records]
