"""Table III: simulation performance with and without sampling.

Runs the three case-study workloads on the two-way BOOM, with snapshot
sampling enabled and disabled, reporting simulation cycles, record
counts, and wall time — the paper's claim is that the record count grows
only logarithmically (reservoir sampling), so the sampling overhead is
small for long runs.
"""

import math

from repro.core import get_circuits
from repro.sampling import expected_record_count
from repro.targets.soc import run_workload
from repro.isa.programs import ALL_PROGRAMS

from _common import emit, fmt_table

WORKLOADS = [
    ("boot", {}),                      # "LinuxBoot" stand-in
    ("coremark_lite", {"iterations": 6}),
    ("gcc_phases", {"rounds": 6}),     # "gcc" stand-in (longest run)
]
REPLAY_LENGTH = 128
SAMPLE_SIZE = 30


def test_table3_simulation_performance(benchmark):
    circuit = get_circuits("boom-2w_mini").simulator_circuit

    def run_all():
        rows = []
        for name, kwargs in WORKLOADS:
            source = ALL_PROGRAMS[name](**kwargs)
            sampled = run_workload(circuit, source, max_cycles=2_000_000,
                                   mem_latency=20, backend="auto",
                                   sample_size=SAMPLE_SIZE,
                                   replay_length=REPLAY_LENGTH, seed=2)
            assert sampled.passed, name
            plain = run_workload(circuit, source, max_cycles=2_000_000,
                                 mem_latency=20, backend="auto")
            assert plain.passed, name
            rows.append((name, sampled, plain))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_rows = []
    for name, sampled, plain in rows:
        expected = expected_record_count(
            sampled.cycles / REPLAY_LENGTH, SAMPLE_SIZE)
        table_rows.append([
            name,
            sampled.cycles,
            sampled.stats.record_count,
            f"{expected:.0f}",
            f"{sampled.stats.wall_seconds:.2f}",
            f"{plain.stats.wall_seconds:.2f}",
        ])
    emit("table3_sim_performance", fmt_table(
        ["benchmark", "cycles", "records", "records (model)",
         "time w/ sampling (s)", "time w/o sampling (s)"],
        table_rows))

    # record counts must grow ~logarithmically, not linearly
    for name, sampled, _plain in rows:
        windows = sampled.cycles / REPLAY_LENGTH
        model = expected_record_count(windows, SAMPLE_SIZE)
        assert sampled.stats.record_count < 3 * model + 10, name
        assert sampled.stats.record_count < 0.5 * windows + SAMPLE_SIZE
    # the longest run must have only moderately more records than the
    # shortest (paper: 980 vs 1497 for a 150x cycle difference)
    counts = {name: s.stats.record_count for name, s, _ in rows}
    cycles = {name: s.cycles for name, s, _ in rows}
    longest = max(counts, key=lambda n: cycles[n])
    shortest = min(counts, key=lambda n: cycles[n])
    cycle_ratio = cycles[longest] / cycles[shortest]
    count_ratio = counts[longest] / max(counts[shortest], 1)
    assert count_ratio < cycle_ratio / 1.5 or cycle_ratio < 4
