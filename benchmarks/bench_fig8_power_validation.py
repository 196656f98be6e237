"""Figure 8: theoretical error bounds vs actual error.

For each of the six microbenchmarks, the *true* average power comes
from simulating the entire execution on the gate level (the thing
Strober avoids), driven by the run's whole I/O trace in the snapshots'
columnar layout; repeated sampling runs then give estimates whose 99%
error bounds are compared against the actual error — the paper's key
accuracy validation.

Snapshot replays run through the worker pool (``--workers N``, default
``os.cpu_count()``); a serial-vs-parallel wall-clock comparison of one
run's replay set is appended to the emitted table.
"""

import time

import pytest

from repro.core import run_strober
from repro.isa.programs import MICROBENCHMARKS

from _common import emit, fmt_table

# scaled-down workloads keep the full-gate-level truth runs tractable
BENCH_KWARGS = {
    "vvadd": {"n": 64},
    "towers": {"n": 5},
    "dhrystone": {"iterations": 16},
    "qsort": {"n": 24},
    "spmv": {"rows": 12},
    "dgemm": {"n": 6},
}
REPETITIONS = 3
SAMPLE_SIZE = 20
REPLAY_LENGTH = 64
CONFIDENCE = 0.99


def test_fig8_power_validation(benchmark, workers):
    def run_all():
        records = []
        for name in sorted(BENCH_KWARGS):
            runs = []
            truth = None
            for rep in range(REPETITIONS):
                run = run_strober(
                    "rocket_mini", name,
                    workload_kwargs=BENCH_KWARGS[name],
                    sample_size=SAMPLE_SIZE,
                    replay_length=REPLAY_LENGTH,
                    backend="auto", seed=100 + rep,
                    confidence=CONFIDENCE,
                    workers=workers,
                    record_full_io=(rep == 0))
                if rep == 0:
                    # the run's own engine: the truth and the estimate
                    # share one flow and one frequency
                    truth, mism = run.engine.replay_full_trace(
                        run.result.fame.full_io_trace)
                    assert mism == 0, name
                runs.append(run)
            records.append((name, truth, runs))
        return records

    records = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    within = 0
    total = 0
    for name, truth, runs in records:
        for rep, run in enumerate(runs, start=1):
            est = run.energy.power
            actual = abs(est.mean - truth.total_mw) / truth.total_mw
            bound = est.relative_error_bound
            total += 1
            if actual <= bound:
                within += 1
            rows.append([name, rep, f"{truth.total_mw:.2f}",
                         f"{est.mean:.2f}", f"{100 * bound:.2f}%",
                         f"{100 * actual:.2f}%",
                         "yes" if actual <= bound else "NO"])
    rows.append(["(bound coverage)", "", "", "", "",
                 f"{within}/{total}", ""])

    # serial vs worker-pool wall-clock on one run's replay set
    sample_run = records[0][2][0]
    t0 = time.perf_counter()
    serial = sample_run.engine.replay_all(sample_run.snapshots, workers=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = sample_run.engine.replay_all(sample_run.snapshots,
                                            workers=max(2, workers))
    parallel_s = time.perf_counter() - t0
    assert [r.power.total_w for r in serial] == \
        [r.power.total_w for r in parallel]
    rows.append([f"(replay {len(sample_run.snapshots)} snaps)", "",
                 f"serial {serial_s:.2f}s",
                 f"workers={max(2, workers)} {parallel_s:.2f}s",
                 f"{serial_s / max(parallel_s, 1e-9):.2f}x", "", ""])

    emit("fig8_power_validation", fmt_table(
        ["benchmark", "rep", "true mW", "estimate mW",
         "99% bound", "actual error", "within"],
        rows))

    # paper: errors are small (<~2.5%) and almost always inside the
    # bound (28/30 in the paper; allow the same probabilistic slack)
    for name, truth, runs in records:
        for run in runs:
            actual = abs(run.energy.power.mean - truth.total_mw) \
                / truth.total_mw
            assert actual < 0.15, name
    assert within >= total - 4


def test_fig8_errors_shrink_with_sample_size(benchmark):
    """More snapshots -> tighter bounds (the sqrt(n) law)."""
    def run_pair():
        small = run_strober("rocket_mini", "vvadd",
                            workload_kwargs={"n": 64},
                            sample_size=8, replay_length=64,
                            backend="auto", seed=5)
        large = run_strober("rocket_mini", "vvadd",
                            workload_kwargs={"n": 64},
                            sample_size=24, replay_length=64,
                            backend="auto", seed=5)
        return small, large

    small, large = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert large.energy.power.relative_error_bound <= \
        small.energy.power.relative_error_bound * 1.25
    assert small.energy.power.mean == pytest.approx(
        large.energy.power.mean, rel=0.25)
