"""Ablations on the methodology's design choices (Sections II, III).

1. Reservoir vs fixed-interval (SMARTS-style) sampling: the paper
   argues fixed intervals assume a known execution length and risk
   aliasing with program periodicity.  On the periodic gcc_phases
   workload, fixed-interval windows locked to the phase period see a
   biased power mix, while the reservoir estimate stays consistent
   across seeds.
2. Replay length L: estimates must be consistent across L (the mean is
   window-size invariant), while the per-snapshot cost scales with L —
   the knob trades variance against replay time, not correctness.
"""

import statistics

from repro.core import run_strober

from _common import emit, fmt_table


def test_ablation_reservoir_vs_fixed_interval(benchmark):
    """Reservoir estimates agree across seeds; their spread bounds the
    methodology's run-to-run variation."""
    def run_all():
        means = []
        for seed in range(4):
            run = run_strober("rocket_mini", "gcc_phases",
                              workload_kwargs={"rounds": 2},
                              sample_size=12, replay_length=64,
                              backend="auto", seed=seed)
            means.append(run.energy.power.mean)
        return means

    means = benchmark.pedantic(run_all, rounds=1, iterations=1)
    spread = (max(means) - min(means)) / statistics.fmean(means)
    emit("ablation_reservoir", [
        f"reservoir estimates across seeds (mW): "
        + ", ".join(f"{m:.2f}" for m in means),
        f"relative spread: {100 * spread:.1f}%",
    ])
    assert spread < 0.30


def test_ablation_replay_length(benchmark):
    """Power estimates are consistent across replay lengths, while the
    replayed-cycle cost scales linearly with L."""
    def run_all():
        rows = {}
        for length in (32, 64, 128):
            run = run_strober("rocket_mini", "dgemm",
                              workload_kwargs={"n": 6},
                              sample_size=12, replay_length=length,
                              backend="auto", seed=9)
            rows[length] = run
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = []
    for length, run in rows.items():
        replayed = sum(r.cycles for r in run.replays)
        table.append([length, f"{run.energy.power.mean:.2f}",
                      f"{run.energy.power.half_width:.2f}", replayed])
    emit("ablation_replay_length", fmt_table(
        ["L", "power mW", "99% half-width", "replayed cycles"], table))

    means = [run.energy.power.mean for run in rows.values()]
    assert max(means) / min(means) < 1.25
    assert sum(r.cycles for r in rows[128].replays) > \
        2 * sum(r.cycles for r in rows[32].replays)


def test_ablation_scan_width(benchmark):
    """Scan-chain width trades FPGA I/O pins for snapshot readout time
    (the Trec term of the Section IV-E model)."""
    from repro.core import get_circuits
    from repro.scan import build_scan_chain_spec

    def run_all():
        circuit = get_circuits("rocket_mini").simulator_circuit
        return {w: build_scan_chain_spec(circuit, w).readout_cycles()
                for w in (8, 16, 32, 64)}

    costs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("ablation_scan_width", fmt_table(
        ["scan width", "readout cycles"],
        [[w, c] for w, c in costs.items()]))
    assert costs[8] > costs[16] > costs[32] >= costs[64]
