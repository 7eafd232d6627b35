"""Self-tests of the benchmark: probes, self time, workloads, output.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run as runner
from perfbench import workloads as wl
from perfbench.metrics import END_TO_END, PER_LAYER, SPAN_GROUPS, \
    per_layer, program_probes, reporter_probes
from perfbench.probes import Patches, Probe, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ self time
def test_self_time_subtracts_covered_child_time():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs
    # past the parent's end; a grandchild [1.5, 2.5] sits in [1, 3].
    names = ["p", "c", "c", "c", "g", "p"]
    starts = [0.0, 1.0, 2.0, 8.0, 1.5, 20.0]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5, 21.0]
    parents = [-1, 0, 0, 0, 1, -1]
    times = self_times(names, starts, ends, parents)
    # parent: 10 - |[1, 5] u [8, 10]| = 10 - 6, plus the second p (1.0)
    assert times["p"] == (2, pytest.approx(5.0))
    # children: (2 - 1) + 3 + 4 — the grandchild only shrinks its parent
    assert times["c"] == (3, pytest.approx(8.0))
    assert times["g"] == (1, pytest.approx(1.0))


def test_tracer_records_nested_spans_and_measures():
    module = types.SimpleNamespace()

    def inner(rows):
        return len(rows)

    def outer(rows):
        return module.inner(rows) + 1

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.install([Probe("outer", module, "outer"),
                    Probe("inner", module, "inner",
                          measure=lambda args, kwargs, result: result)])
    assert module.outer([1, 2, 3]) == 4
    tracer.restore()
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    assert tracer.measured["inner"] == [3.0]
    calls, own = tracer.layer_times()["outer"]
    assert calls == 1
    assert own <= tracer.ends[0] - tracer.starts[0]


# -------------------------------------------------------------- restore
class _Target:
    def method(self):
        return "original"


def test_patches_restore_class_module_and_instance_attributes():
    target = _Target()
    module = types.SimpleNamespace(fn=len)
    originals = (vars(_Target)["method"], module.fn)
    patches = Patches()
    wrapper = (lambda func: lambda *a, **k: "wrapped")
    patches.wrap(_Target, "method", wrapper)
    patches.wrap(module, "fn", wrapper)
    patches.wrap(target, "method", wrapper)
    assert target.method() == "wrapped"
    assert patches.unrestored()
    patches.restore()
    assert vars(_Target)["method"] is originals[0]
    assert module.fn is originals[1]
    assert "method" not in vars(target)
    assert target.method() == "original"
    assert patches.unrestored() == []


def test_every_program_probe_is_restored():
    from repro.obs import CounterReporter, JsonlReporter

    reporters = [CounterReporter(), JsonlReporter(ROOT / "unused.jsonl")]
    probes = program_probes() + reporter_probes(reporters)
    before = [(p.owner, p.attr, vars(p.owner).get(p.attr)) for p in probes]
    tracer = Tracer()
    tracer.install(probes)
    assert all(vars(owner).get(attr) is not original
               for owner, attr, original in before)
    tracer.restore()
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr}"
    assert tracer.patches.unrestored() == []


def test_every_span_metric_names_a_probe():
    spans = {p.span for p in program_probes() + reporter_probes([None])}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "self_ms"):
            assert set(SPAN_GROUPS.get(span, (span,))) <= spans, name


# ------------------------------------------------------------ workloads
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_workload_runs_end_to_end(name, tmp_path):
    workload = wl.WORKLOADS[name].tiny()
    untraced = wl.run_session(workload, 3, tmp_path / "untraced")
    tracer = Tracer()
    traced = wl.run_session(workload, 3, tmp_path / "traced", tracer)
    for session in (untraced, traced):
        assert session.errors == []
        assert session.phantom == 0
        assert session.ground_truth > 0
        assert session.slots > 0 and session.wall_s > 0
    assert len(untraced.slot_s) == untraced.slots
    assert untraced.query_s
    if workload.deterministic:
        assert untraced.digest == traced.digest
    assert tracer.patches.unrestored() == []
    layers = per_layer(tracer, traced, untraced)
    assert list(layers) == [metric for metric, _ in PER_LAYER]
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert layers["gnb.step.calls"] == traced.slots
    assert layers["scope.observe_slot.calls"] == traced.slots
    if workload.executor.startswith("process"):
        # the decode runs in the workers, out of the tracer's sight
        assert layers["wire.bytes_per_slot"] > 0
        assert layers["phy.polar_sc.calls"] == 0
    elif workload.fidelity == "iq":
        assert layers["phy.polar_sc.calls"] > 0
        assert layers["wire.bytes_per_slot"] == 0
    else:
        assert layers["phy.polar_sc.calls"] == 0
        assert layers["dci.record_decode.self_ms"] > 0
    if workload.fleet:
        assert layers["fleet.checkpoint.calls"] > 0
        assert layers["multicell.correlate.self_ms"] > 0
    if workload.deployment:
        assert layers["obs.events"] > 0
        assert layers["telemetry.write_jsonl.self_ms"] > 0


# -------------------------------------------------------------- output
def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(PER_LAYER)
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] \
        == [(w.name, w.why) for w in wl.WORKLOADS.values() if w.gated]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace, table",
                         [(0, [(n, u) for n, u, _ in END_TO_END]),
                          (1, list(PER_LAYER))])
def test_runner_emits_every_metric_with_its_unit(trace, table, capsys,
                                                 monkeypatch):
    tiny = replace(wl.WORKLOADS["sniff-msg"].tiny(), air_s=0.2)
    monkeypatch.setitem(wl.WORKLOADS, "sniff-msg", tiny)
    code = runner.main(["--workload", "sniff-msg", "--seed", "5",
                        "--seconds", "0.1", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] \
        == table
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sniff-iq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
