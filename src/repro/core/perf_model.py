"""Analytic simulation-performance model (Section IV-E).

Implements the paper's equations verbatim:

  T_overall = max(T_FPGAsyn + T_FPGAsim, T_ASIC) + T_replay
  T_FPGAsim = N / K_f  +  T_rec * 2n ln((N/L)/n)
  T_replay  = n * (T_load + L/K_g + T_power) / P

and the two baselines the paper quotes: microarchitectural software
simulation at ~300 KHz and pure gate-level simulation at K_g.  With the
paper's constants this reproduces the worked example: 9.4 hours overall,
3.86 days of software simulation, and 264 years of gate-level simulation
for a 100-billion-cycle benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StroberPerfParams:
    """Measured constants of one Strober deployment (paper values)."""

    t_fpga_syn_s: float = 3600.0       # FPGA synthesis, ~1 h for BOOM-2w
    t_asic_s: float = 4 * 3600.0       # ASIC tool chain, 3-4 h
    k_f_hz: float = 3.6e6              # FPGA simulation rate
    k_g_hz: float = 12.0               # gate-level simulation rate
    t_rec_s: float = 1.3               # read out one snapshot
    t_load_s: float = 3.0              # load one snapshot into gate sim
    t_power_s: float = 150.0           # power analysis per snapshot
    uarch_sim_hz: float = 300e3        # software simulator baseline
    parallel_replays: int = 10         # P instances of gate-level sim


PAPER_PARAMS = StroberPerfParams()


@dataclass
class PerfBreakdown:
    t_fpga_syn_s: float
    t_run_s: float
    t_sample_s: float
    t_asic_s: float
    t_replay_s: float

    @property
    def t_fpga_sim_s(self):
        return self.t_run_s + self.t_sample_s

    @property
    def t_overall_s(self):
        return max(self.t_fpga_syn_s + self.t_fpga_sim_s,
                   self.t_asic_s) + self.t_replay_s


def strober_time(total_cycles, sample_size, replay_length,
                 params=PAPER_PARAMS):
    """Full Section IV-E model; returns a :class:`PerfBreakdown`."""
    n = sample_size
    big_n = total_cycles
    t_run = big_n / params.k_f_hz
    elements = big_n / replay_length
    if elements > n:
        t_sample = params.t_rec_s * 2.0 * n * math.log(elements / n)
    else:
        t_sample = params.t_rec_s * n
    t_replay = (n * (params.t_load_s + replay_length / params.k_g_hz
                     + params.t_power_s)
                / params.parallel_replays)
    return PerfBreakdown(
        t_fpga_syn_s=params.t_fpga_syn_s,
        t_run_s=t_run,
        t_sample_s=t_sample,
        t_asic_s=params.t_asic_s,
        t_replay_s=t_replay,
    )


def uarch_sim_time(total_cycles, params=PAPER_PARAMS):
    """Baseline: microarchitectural software simulation (seconds)."""
    return total_cycles / params.uarch_sim_hz


def gate_sim_time(total_cycles, params=PAPER_PARAMS):
    """Baseline: full gate-level simulation (seconds)."""
    return total_cycles / params.k_g_hz


def speedup_over_uarch(total_cycles, sample_size, replay_length,
                       params=PAPER_PARAMS):
    model = strober_time(total_cycles, sample_size, replay_length, params)
    return uarch_sim_time(total_cycles, params) / model.t_overall_s


def speedup_over_gate_sim(total_cycles, sample_size, replay_length,
                          params=PAPER_PARAMS):
    model = strober_time(total_cycles, sample_size, replay_length, params)
    return gate_sim_time(total_cycles, params) / model.t_overall_s


def measured_params(fame_stats, replay_results, rtl_rate_hz, gl_rate_hz,
                    base=PAPER_PARAMS):
    """Derive model constants from *this reproduction's* measurements, so
    the analytic model can be evaluated against locally observed rates."""
    t_rec = (fame_stats.snapshot_wall_seconds
             / max(fame_stats.record_count, 1))
    if replay_results:
        t_load = sum(r.wall_seconds for r in replay_results) \
            / len(replay_results)
    else:
        t_load = base.t_load_s
    return StroberPerfParams(
        t_fpga_syn_s=0.0,
        t_asic_s=base.t_asic_s,
        k_f_hz=rtl_rate_hz,
        k_g_hz=gl_rate_hz,
        t_rec_s=t_rec,
        t_load_s=t_load,
        t_power_s=0.0,
        uarch_sim_hz=base.uarch_sim_hz,
        parallel_replays=1,
    )
