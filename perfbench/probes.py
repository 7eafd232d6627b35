"""Passive probes: time calls into the program from the benchmark's side.

Nothing under ``src/`` knows it is being measured.  A :class:`Patches`
set replaces a class method, a module attribute or an instance's bound
method with a timing wrapper and puts the original object back on
:meth:`Patches.restore`.  Two users share it:

* :class:`SlotTimer` — the untraced run's only instrument: per-call
  wall and CPU time of ``NRScope.observe_slot`` and the summed time
  inside ``flush``/``close``.  One wrapper frame per slot.
* :class:`Tracer` — the traced run: one span per wrapped call with
  name, start, end and parent, kept in memory and written out at the
  end.  :func:`self_times` turns spans into per-layer self time.

:class:`Calibrator` measures how fast the machine is right now, so
timings from a shared host whose speed drifts can be compared across
runs (see its docstring).

Patch targets by the attribute the caller actually resolves: a module
that did ``from x import f`` calls its own ``f`` global, so the probe
must wrap that module's attribute, not ``x.f``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

#: Interpreter iterations of one calibration burst (about 1 ms on a
#: 2-CPU Xeon VM with Python 3.11).
CALIBRATION_ITERATIONS = 4000
#: Burst duration that defines "reference speed": timings are reported
#: as if every burst had taken exactly this long.
CALIBRATION_REFERENCE_S = 1e-3


@dataclass(frozen=True)
class Probe:
    """One wrapped callable and the span name its calls record.

    ``measure`` (optional) maps ``(args, kwargs, result)`` to a number
    accumulated per span name — rows per batch, bytes per payload.
    Several probes may share one span name (their calls add up).
    """

    span: str
    owner: Any
    attr: str
    measure: Callable[[tuple, dict, Any], float] | None = None


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, bool, Any]] = []
        self._history: list[tuple[Any, str, bool, Any]] = []

    def wrap(self, owner: Any, attr: str,
             factory: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``factory(original)``.

        ``owner`` is a class, a module or an instance; an instance
        without its own attribute gets a shadowing one that
        :meth:`restore` deletes again.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot probe {owner!r}.{attr}: "
                            f"{type(original).__name__}")
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        setattr(owner, attr, factory(original))
        self._saved.append((owner, attr, own, original))
        self._history.append((owner, attr, own, original))

    def unrestored(self) -> list[str]:
        """Attributes ever wrapped that do not hold their original now."""
        missing = object()
        out = []
        for owner, attr, own, original in self._history:
            current = vars(owner).get(attr, missing)
            if current is not (original if own else missing):
                out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return out

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Calibrator:
    """Machine speed, sampled through the run it calibrates.

    On a shared host the same work takes up to twice as long from one
    minute to the next, in CPU time as well as wall time.  A fixed burst
    of interpreter and small-numpy work — the program's own mix — is
    timed (wall and thread CPU time) every ``period_s`` of wall time
    between units of work.  :attr:`scale` (reference burst time over
    mean wall burst time) converts the wall time of a whole stretch to
    reference speed; :meth:`local_scales` converts the CPU time of
    single events from the mean CPU time of the bursts within a second
    of them.  Means, not medians: the bursts must feel the same share
    of disturbances the program feels.  Time spent in bursts is tracked
    so timed loops can leave it out.
    """

    def __init__(self, period_s: float = 0.02) -> None:
        self.period_s = period_s
        self.starts: list[float] = []
        self.bursts: list[float] = []
        self.cpu_bursts: list[float] = []
        self.spent_s = 0.0
        self._next = 0.0
        self._vector = np.arange(64.0)

    def burst(self) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        acc = 0.0
        for i in range(CALIBRATION_ITERATIONS):
            acc += i * 0.5
            if i % 16 == 0:
                acc += float(np.dot(self._vector, self._vector))
        cpu = time.thread_time() - cpu
        done = time.perf_counter()
        self.starts.append(start)
        self.bursts.append(done - start)
        self.cpu_bursts.append(cpu)
        self.spent_s += done - start

    def tick(self) -> None:
        """Run a burst if one is due (call between units of work)."""
        if time.perf_counter() >= self._next:
            self.burst()
            self._next = time.perf_counter() + self.period_s

    def sample(self, n_bursts: int) -> None:
        """Calibrate a stretch with no work to interleave."""
        for _ in range(n_bursts):
            self.burst()

    @property
    def scale(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return CALIBRATION_REFERENCE_S * len(self.bursts) / sum(self.bursts)

    def local_scales(self, at: list[float],
                     window_s: float = 1.0) -> np.ndarray:
        """Per-event scale for CPU times: the mean CPU time of the
        bursts within ``window_s`` of each event time (the nearest burst
        if none is that close)."""
        starts = np.asarray(self.starts)
        bursts = np.asarray(self.cpu_bursts)
        times = np.asarray(at)
        lo = np.searchsorted(starts, times - window_s, side="left")
        hi = np.searchsorted(starts, times + window_s, side="right")
        nearest = np.clip(np.searchsorted(starts, times), 0,
                          len(starts) - 1)
        out = np.empty(len(times))
        for index, (a, b) in enumerate(zip(lo, hi)):
            window = bursts[a:b] if b > a else bursts[nearest[index]:
                                                       nearest[index] + 1]
            out[index] = CALIBRATION_REFERENCE_S / window.mean()
        return out


class SlotTimer:
    """Per-slot ``observe_slot`` time and total sniffer time.

    Install before the scope attaches: ``Simulation.add_observer``
    stores the bound method it is given, so a later class patch would
    not be seen.  After every slot the calibrator may run a burst,
    outside the slot's timing.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.slot_s: list[float] = []
        self.slot_cpu_s: list[float] = []
        self.slot_end: list[float] = []
        self.other_s = 0.0
        self.calibrator = calibrator
        self.patches = Patches()

    def install(self, scope_cls: type) -> None:
        self.patches.wrap(scope_cls, "observe_slot", self._per_slot)
        self.patches.wrap(scope_cls, "flush", self._summed)
        self.patches.wrap(scope_cls, "close", self._summed)

    def _per_slot(self, func: Callable) -> Callable:
        record, record_end = self.slot_s.append, self.slot_end.append
        record_cpu = self.slot_cpu_s.append
        tick = self.calibrator.tick
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start, cpu = clock(), cpu_clock()
            try:
                return func(*args, **kwargs)
            finally:
                record_cpu(cpu_clock() - cpu)
                end = clock()
                record(end - start)
                record_end(end)
                tick()
        return timed

    def _summed(self, func: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.other_s += clock() - start
        return timed

    @property
    def sniffer_s(self) -> float:
        """Wall time inside observe_slot, flush and close."""
        return sum(self.slot_s) + self.other_s

    def restore(self) -> None:
        self.patches.restore()


class Tracer:
    """In-memory span recorder fed by probe wrappers.

    All probed calls run on the submitting thread (inline decode runs
    there; process workers are invisible from outside), so one stack
    gives every span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.measured: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self.patches = Patches()

    def install(self, probes: Iterable[Probe]) -> None:
        for probe in probes:
            self.patches.wrap(probe.owner, probe.attr,
                              self._factory(probe))

    def restore(self) -> None:
        self.patches.restore()

    def _factory(self, probe: Probe) -> Callable[[Callable], Callable]:
        name, measure = probe.span, probe.measure
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        sink = self.measured.setdefault(name, []) if measure else None
        clock = time.perf_counter

        def factory(func: Callable) -> Callable:
            @functools.wraps(func)
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(names)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
                stack.append(index)
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    starts[index] = start
                    ends[index] = end
                if sink is not None:
                    sink.append(float(measure(args, kwargs, result)))
                return result
            return traced
        return factory

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}``."""
        return self_times(self.names, self.starts, self.ends, self.parents)

    def write(self, path: Path) -> None:
        """Dump the spans as gzipped JSON: a name table plus one
        ``[name_id, start_us, end_us, parent]`` row per span."""
        table: dict[str, int] = {}
        rows = []
        origin = self.starts[0] if self.starts else 0.0
        for name, start, end, parent in zip(self.names, self.starts,
                                            self.ends, self.parents):
            rows.append([table.setdefault(name, len(table)),
                         round((start - origin) * 1e6, 3),
                         round((end - origin) * 1e6, 3), parent])
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"names": list(table), "spans": rows}, handle,
                      separators=(",", ":"))


def self_times(names: list[str], starts: list[float], ends: list[float],
               parents: list[int]) -> dict[str, tuple[int, float]]:
    """Per-name call count and self time from parent-linked spans.

    A span's self time is its duration minus the part of its interval
    that its direct children cover (children are clipped to the parent
    and overlapping children are counted once).
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out: dict[str, tuple[int, float]] = {}
    for index, name in enumerate(names):
        start, end = starts[index], ends[index]
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()),
                            key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out
