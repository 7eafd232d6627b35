"""Fig 12: per-slot processing time with one or four DCI threads.

Paper result: processing time grows linearly with the number of tracked
UEs (O(n log n) signal processing + O(m) DCI decoding); four threads
keep larger cells within the TTI budget.  This reproduction runs the
same pipeline in Python, where the GIL flattens the thread win — the
linear trend in m is the portable observation (see EXPERIMENTS.md).
"""

from repro.analysis.report import print_tables
from repro.experiments import fig12_processing as fig12
from repro.gnb.cell_config import AMARISOFT_PROFILE

UE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


def test_fig12_processing_time(once):
    rows = once(fig12.run, ue_counts=UE_COUNTS, n_slots=15)
    result = fig12.to_result(rows)
    print()
    print_tables([fig12.table(rows)])
    print("summary:", {k: round(v, 2) for k, v in result.summary.items()})

    # The trend is read from the median per-slot CPU time, which other
    # processes on a shared host disturb less than the wall-clock
    # means.  The host's own speed still drifts by tens of percent
    # within a sweep, so the one-thread amarisoft series is swept
    # twice more and each point keeps its fastest sweep.
    sweeps = [[r for r in rows
               if r.profile == "amarisoft" and r.n_threads == 1]]
    for _ in range(2):
        sweeps.append([fig12.measure(AMARISOFT_PROFILE, n, 1, n_slots=15)
                       for n in UE_COUNTS])
    amarisoft_1t = sorted(
        (n, min(r.cpu_slot_us for sweep in sweeps for r in sweep
                if r.n_ues == n))
        for n in UE_COUNTS)

    # Shape: monotone growth with the UE count (allowing timer noise).
    times = [t for _, t in amarisoft_1t]
    assert times[-1] > times[0], "more UEs must cost more"
    grew = sum(b >= a * 0.9 for a, b in zip(times, times[1:]))
    assert grew >= len(times) - 2, f"trend not monotone: {times}"

    # Shape: linear-ish, not quadratic — 128x the UEs costs far less
    # than 128^2 the time.
    assert times[-1] / times[0] < 128, \
        "per-UE cost must stay sub-linear in total (shared FFT amortised)"
