"""Robustness layer: supervision overhead and the fault campaign.

Two questions the robustness PR must answer with numbers:

1. What does supervision *cost* on the happy path?  The supervised
   pool (per-snapshot deadlines, crash detection, health accounting)
   replaced the bare ``pool.map``; its overhead versus an in-process
   serial replay of the same snapshots is the price of fault
   tolerance, and it must be small.

2. Do the guarantees *hold*?  The standard fault-injection campaign
   (worker kill, worker stall, transient error, snapshot/trace
   bit-flips, cache corruption, journal corruption) must come back
   all-``recovered``/``detected`` — plus a measurement of how much a
   recovery costs in wall-clock versus a clean run.

Writes ``results/BENCH_robustness.json``.
"""

import os
import time

from repro.core import get_circuits, get_replay_engine
from repro.isa.programs import MICROBENCHMARKS
from repro.robust import FaultPlan, FaultSpec, run_campaign
from repro.robust import supervisor
from repro.targets.soc import run_workload

from _common import emit, fmt_table, save_json


def test_robustness(benchmark, workers, trace_dir, monkeypatch):
    monkeypatch.setattr(supervisor, "_BACKOFF_BASE_S", 0.05)
    circuit = get_circuits("rocket_mini").simulator_circuit
    sample = run_workload(circuit, MICROBENCHMARKS["towers"](n=7),
                          max_cycles=2_000_000, mem_latency=20,
                          backend="auto", sample_size=8,
                          replay_length=64, seed=7)
    assert sample.passed
    snaps = sample.snapshots
    engine = get_replay_engine("rocket_mini")
    n_workers = max(2, min(workers, len(snaps)))

    def supervised(fault_plan=None, timeout=60.0):
        # one snapshot per batch, so the kill's index is its own dispatch
        results = engine.replay_all(snaps, workers=n_workers,
                                    batch_lanes=1, timeout=timeout,
                                    fault_plan=fault_plan)
        return results, engine.last_health

    def measure():
        times = {}
        t0 = time.perf_counter()
        serial = engine.replay_all(snaps, workers=1)
        times["serial_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        clean, health = supervised()
        times["supervised_s"] = time.perf_counter() - t0
        assert health.healthy
        assert [r.power.total_w for r in clean] == \
            [r.power.total_w for r in serial]

        t0 = time.perf_counter()
        healed, health = supervised(
            fault_plan=FaultPlan([FaultSpec("kill", index=1)]))
        times["supervised_with_kill_s"] = time.perf_counter() - t0
        assert health.crashes >= 1
        assert [r.power.total_w for r in healed] == \
            [r.power.total_w for r in serial]
        return times

    if trace_dir is None:
        times = benchmark.pedantic(measure, rounds=1, iterations=1)
    else:
        # --trace-dir DIR: record the supervised runs (worker spans,
        # supervisor incidents, recovery timeline) as a Chrome trace
        from repro.obs import Tracer, export_chrome_trace, \
            get_registry, set_tracer
        tracer = Tracer(distributed=True)
        prev = set_tracer(tracer)
        try:
            times = benchmark.pedantic(measure, rounds=1, iterations=1)
        finally:
            set_tracer(prev)
        export_chrome_trace(
            os.path.join(trace_dir, "bench_robustness.json"), tracer,
            registry=get_registry())

    campaign_t0 = time.perf_counter()
    verdicts = run_campaign(engine, snaps, workers=n_workers,
                            timeout=5.0)
    campaign_s = time.perf_counter() - campaign_t0

    overhead = times["supervised_s"] / max(times["serial_s"], 1e-9)
    recovery_cost = (times["supervised_with_kill_s"]
                     / max(times["supervised_s"], 1e-9))
    rows = [
        [f"replay_all serial ({len(snaps)} snapshots)",
         f"{times['serial_s']:.2f} s"],
        [f"supervised pool (workers={n_workers})",
         f"{times['supervised_s']:.2f} s"],
        ["supervised / serial", f"{overhead:.2f}x"],
        ["supervised + injected worker kill",
         f"{times['supervised_with_kill_s']:.2f} s"],
        ["recovery cost vs clean supervised",
         f"{recovery_cost:.2f}x"],
    ]
    rows += [[f"campaign: {fault}", verdict]
             for fault, verdict in sorted(verdicts.items())]
    rows.append(["campaign wall time", f"{campaign_s:.1f} s"])
    emit("robustness", fmt_table(["quantity", "value"], rows))
    save_json("BENCH_robustness", {
        "snapshots": len(snaps),
        "workers": n_workers,
        "serial_s": times["serial_s"],
        "supervised_s": times["supervised_s"],
        "supervised_with_kill_s": times["supervised_with_kill_s"],
        "supervision_overhead": overhead,
        "recovery_cost": recovery_cost,
        "campaign": verdicts,
        "campaign_s": campaign_s,
        "cpu_count": os.cpu_count(),
    })

    # the acceptance bar: nothing missed, ever
    assert all(v in ("recovered", "detected") for v in verdicts.values()), \
        f"faults went unnoticed: {verdicts}"
