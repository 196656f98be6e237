"""Figure 7: DRAM timing model validation.

A pointer-chase through increasing array sizes measures load-to-load
latency; sweeping the simulated DRAM latency moves the off-chip plateau
while the in-cache region stays fixed — demonstrating, as in the paper,
that the host-decoupled timing model controls target-visible memory
latency.
"""

from repro.core import get_circuits
from repro.targets.soc import run_workload
from repro.isa.programs import pointer_chase

from _common import emit, fmt_table

ARRAY_BYTES = [512, 1024, 2048, 4096, 8192, 16384]   # D$ is 4 KiB
DRAM_LATENCIES = [20, 50, 100]
LOADS = 192


def measure(circuit, array_bytes, latency):
    source = pointer_chase(array_bytes=array_bytes, loads=LOADS)
    result = run_workload(circuit, source, max_cycles=3_000_000,
                          mem_latency=latency, backend="auto")
    assert result.passed
    # the program reports load-to-load latency * 16 through PERF
    return result.htif.perf_log[-1] / 16.0


def test_fig7_dram_timing_validation(benchmark):
    circuit = get_circuits("rocket_mini").simulator_circuit

    def sweep():
        data = {}
        for latency in DRAM_LATENCIES:
            data[latency] = [measure(circuit, size, latency)
                             for size in ARRAY_BYTES]
        return data

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for i, size in enumerate(ARRAY_BYTES):
        rows.append([f"{size} B"]
                    + [f"{data[lat][i]:.1f}" for lat in DRAM_LATENCIES])
    emit("fig7_dram_timing", fmt_table(
        ["array size"] + [f"DRAM={lat}cy" for lat in DRAM_LATENCIES],
        rows))

    for latency in DRAM_LATENCIES:
        series = data[latency]
        # in-cache region: small arrays are fast and latency-insensitive
        assert series[0] < 15
        # off-chip region: large arrays approach the DRAM latency
        assert series[-1] > latency * 0.6
        # monotone-ish growth through the capacity cliff
        assert series[-1] > series[0] * 3
    # the simulated-latency knob must move the off-chip plateau (Fig 7)
    assert data[100][-1] > data[50][-1] > data[20][-1]
    # ...and affect the in-cache region far less than the off-chip one
    # (small residual sensitivity comes from cold misses)
    in_cache_ratio = data[100][0] / data[20][0]
    off_chip_ratio = data[100][-1] / data[20][-1]
    assert in_cache_ratio < 2.0
    assert off_chip_ratio > 2.5
    assert off_chip_ratio > 1.5 * in_cache_ratio
