"""DRAM timing-model sweep (the paper's Figure 7 experiment).

Measures pointer-chase load-to-load latency across array sizes for
several simulated DRAM latencies, showing the host-decoupled memory
timing model at work: the L1 region is stable while the off-chip
plateau tracks the configured latency.

    python examples/dram_latency_sweep.py
"""

from repro.core import get_circuits
from repro.targets.soc import run_workload
from repro.isa.programs import pointer_chase

SIZES = [512, 1024, 2048, 4096, 8192, 16384]
LATENCIES = [20, 50, 100]


def main():
    circuit = get_circuits("rocket_mini").simulator_circuit
    print("pointer-chase load-to-load latency (cycles)")
    print(f"{'array':>8} | " + " | ".join(f"DRAM={lat:>3}" for lat in
                                          LATENCIES))
    print("-" * 46)
    for size in SIZES:
        row = []
        for latency in LATENCIES:
            result = run_workload(
                circuit, pointer_chase(array_bytes=size, loads=192),
                max_cycles=3_000_000, mem_latency=latency,
                backend="auto")
            assert result.passed
            row.append(result.htif.perf_log[-1] / 16.0)
        marker = "  <- D$ capacity" if size == 4096 else ""
        print(f"{size:>6} B | " + " | ".join(f"{v:8.1f}" for v in row)
              + marker)
    print()
    print("the in-cache region is latency-insensitive; beyond the 4 KiB")
    print("D$ the measured latency tracks the simulated DRAM latency.")


if __name__ == "__main__":
    main()
