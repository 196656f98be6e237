"""Figure 10: CPI over time with snapshot markers.

Runs the phase-varying gcc stand-in on Rocket while sampling snapshots;
renders the CPI timeline (sampled from the performance counters at a
fixed interval, like the paper's user-level sampler) with markers at
the cycles where Strober captured snapshots.
"""

from repro.core import get_circuits
from repro.targets.soc import run_workload
from repro.isa.programs import gcc_phases

from _common import emit

INTERVAL = 512  # paper samples every 100M cycles; scaled run


def test_fig10_cpi_timeline(benchmark):
    circuit = get_circuits("rocket_mini").simulator_circuit
    timeline = []

    def sample(fame):
        outs = fame.sim.peek_all()
        timeline.append((fame.stats.target_cycles,
                         outs["perf_instret"]))

    def run():
        timeline.clear()
        return run_workload(circuit, gcc_phases(rounds=3),
                            max_cycles=3_000_000, mem_latency=20,
                            backend="auto", sample_size=12,
                            replay_length=64, seed=8,
                            progress_fn=sample,
                            progress_interval=INTERVAL)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.passed

    snap_cycles = sorted(s.cycle for s in result.snapshots)
    lines = []
    prev_c, prev_i = 0, 0
    cpis = []
    snap_iter = iter(snap_cycles)
    next_snap = next(snap_iter, None)
    for cycles, instret in timeline:
        d_c, d_i = cycles - prev_c, instret - prev_i
        prev_c, prev_i = cycles, instret
        if d_i <= 0:
            continue
        cpi = d_c / d_i
        cpis.append(cpi)
        marks = ""
        while next_snap is not None and next_snap <= cycles:
            marks += "|"
            next_snap = next(snap_iter, None)
        bar = "#" * int(cpi * 12)
        lines.append(f"cycle {cycles:7d}  CPI {cpi:5.2f} {bar} {marks}")
    lines.append(f"snapshots at cycles: {snap_cycles}")
    emit("fig10_cpi_timeline", lines)

    # phase structure must be visible: CPI varies over the run
    assert len(cpis) >= 8
    assert max(cpis) > 1.25 * min(cpis)
    # snapshots must be spread across the execution, not clustered at
    # the start (reservoir sampling property)
    assert snap_cycles, "no snapshots captured"
    assert snap_cycles[-1] > result.cycles // 2
