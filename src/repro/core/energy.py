"""Energy estimation and reporting (Sections III, VI).

Aggregates replayed-snapshot power into the paper's headline outputs:
average power with confidence intervals (eq. 7), per-module power
breakdown with error bounds (Figure 9a), DRAM power from activity
counters (Section IV-D), and CPI/EPI (Figure 9b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..sampling import estimate_mean, Estimate
from ..dram import Lpddr2PowerCalculator


@dataclass
class EnergyEstimate:
    """Workload-level energy report for one design."""

    workload: str
    design: str
    total_cycles: int
    instructions: int
    replay_length: int
    sample_size: int
    confidence: float
    power: Estimate                      # core average power, mW
    breakdown: dict = field(default_factory=dict)   # group -> Estimate mW
    dram_power_mw: float = 0.0
    dram_breakdown: dict = field(default_factory=dict)
    freq_hz: float = 1.0e9

    @property
    def cpi(self):
        if self.instructions == 0:
            return float("inf")
        return self.total_cycles / self.instructions

    @property
    def total_power_mw(self):
        """Core + DRAM average power."""
        return self.power.mean + self.dram_power_mw

    @property
    def epi_nj(self):
        """Energy per instruction in nanojoules (Figure 9b)."""
        if self.instructions == 0:
            return float("inf")
        seconds = self.total_cycles / self.freq_hz
        joules = self.total_power_mw * 1e-3 * seconds
        return joules / self.instructions * 1e9

    def summary(self):
        lines = [
            f"{self.design} / {self.workload}: "
            f"{self.total_cycles} cycles, {self.instructions} insts, "
            f"CPI {self.cpi:.2f}",
            f"  core power: {self.power} mW   "
            f"DRAM: {self.dram_power_mw:.1f} mW   "
            f"EPI: {self.epi_nj:.2f} nJ/inst",
        ]
        for group, est in sorted(self.breakdown.items(),
                                 key=lambda kv: -kv[1].mean):
            lines.append(f"    {group:<24s} {est.mean:8.2f} mW "
                         f"± {est.half_width:.2f}")
        return "\n".join(lines)


def estimate_energy(replays, total_cycles, replay_length,
                    instructions=0, confidence=0.99, workload="",
                    design="", dram_counters=None, dram_params=None,
                    freq_hz=1.0e9):
    """Fold replay results into an :class:`EnergyEstimate`.

    ``replays`` is a list of ReplayResult.  The population is the set of
    all L-cycle windows of the execution (size total_cycles / L), from
    which the snapshots were drawn without replacement (Section III-A).
    """
    if not replays:
        raise ValueError("no replays to aggregate")
    population = max(int(math.ceil(total_cycles / replay_length)),
                     len(replays))
    totals = [r.power.total_mw for r in replays]
    power = estimate_mean(totals, population, confidence)

    # first-seen order, so the breakdown's key order is the same in
    # every process (a set's would follow string hashing)
    groups = dict.fromkeys(g for r in replays for g in r.power.by_group)
    breakdown = {}
    for group in groups:
        values = [r.power.by_group.get(group, 0.0) * 1e3 for r in replays]
        breakdown[group] = estimate_mean(values, population, confidence)

    dram_mw = 0.0
    dram_parts = {}
    if dram_counters is not None:
        calc = Lpddr2PowerCalculator(dram_params)
        report = calc.power(dram_counters, total_cycles,
                            core_freq_hz=freq_hz)
        dram_mw = report.total_mw
        dram_parts = report.as_dict()

    return EnergyEstimate(
        workload=workload,
        design=design,
        total_cycles=total_cycles,
        instructions=instructions,
        replay_length=replay_length,
        sample_size=len(replays),
        confidence=confidence,
        power=power,
        breakdown=breakdown,
        dram_power_mw=dram_mw,
        dram_breakdown=dram_parts,
        freq_hz=freq_hz,
    )
