"""Table IV: simulated vs replayed cycles per microbenchmark.

30 random snapshots of the replay window are captured for each of the
six Rocket microbenchmarks; the replayed cycles cover only a small
fraction of the execution (the paper reports 0.21%-2.05%), yet — per
Figure 8 — yield accurate power estimates.
"""

import time

from repro.core import get_circuits, get_replay_engine
from repro.targets.soc import run_workload
from repro.isa.programs import MICROBENCHMARKS

from _common import emit, fmt_table

SAMPLE_SIZE = 30
REPLAY_LENGTH = 64  # paper: 128 @ ~10^5-10^6 cycles; scaled runs
# enlarge the shortest benchmarks so coverage stays representative
BENCH_KWARGS = {"towers": {"n": 8}, "coremark_lite": {},
                "dhrystone": {"iterations": 80}}


def test_table4_coverage(benchmark, workers):
    circuit = get_circuits("rocket_mini").simulator_circuit

    def run_all():
        results = {}
        for name in sorted(MICROBENCHMARKS):
            result = run_workload(
                circuit, MICROBENCHMARKS[name](
                    **BENCH_KWARGS.get(name, {})),
                max_cycles=2_000_000, mem_latency=20, backend="auto",
                sample_size=SAMPLE_SIZE, replay_length=REPLAY_LENGTH,
                seed=11)
            assert result.passed, name
            results[name] = result
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, result in results.items():
        n_snaps = len(result.snapshots)
        replayed = n_snaps * REPLAY_LENGTH
        coverage = 100.0 * replayed / result.cycles
        rows.append([name, result.cycles,
                     f"{n_snaps}x{REPLAY_LENGTH}",
                     f"{coverage:.2f}%"])

    # replay one benchmark's snapshot set serially and through the
    # worker pool (--workers) to report the replay-phase wall-clock
    engine = get_replay_engine("rocket_mini")
    snaps = results["towers"].snapshots
    t0 = time.perf_counter()
    serial = engine.replay_all(snaps, workers=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = engine.replay_all(snaps, workers=max(2, workers))
    parallel_s = time.perf_counter() - t0
    assert [r.power.total_w for r in serial] == \
        [r.power.total_w for r in parallel]
    rows.append([f"(replay towers {len(snaps)} snaps)",
                 f"serial {serial_s:.2f}s",
                 f"workers={max(2, workers)} {parallel_s:.2f}s",
                 f"{serial_s / max(parallel_s, 1e-9):.2f}x"])

    emit("table4_coverage", fmt_table(
        ["benchmark", "simulated cycles", "replayed cycles", "coverage"],
        rows))

    for name, result in results.items():
        n_snaps = len(result.snapshots)
        assert n_snaps >= 1
        coverage = n_snaps * REPLAY_LENGTH / result.cycles
        # small coverage, as in the paper (scaled runs allow up to ~60%)
        assert coverage < 0.65, name
        for snap in result.snapshots:
            snap.validate()
