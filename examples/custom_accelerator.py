"""Energy simulation of *arbitrary RTL*: a custom accelerator.

The paper's generality claim: Strober applies to any RTL the hardware
construction language can express — "including application-specific
accelerators" — not just processors.  This example describes a small
dot-product accelerator with a designer-annotated retimed MAC pipeline
as one :class:`~repro.core.Design` (a build function plus the host
endpoints of its workload) and runs it through the same ``run_strober``
entry the SoC configurations use: FAME1 transform, reservoir snapshot
sampling, synthesis, formal matching, gate-level replay with
retimed-unit warm-up.  It reports the design's average power with a
confidence interval.

    python examples/custom_accelerator.py
"""

import random

from repro.hdl import Module, elaborate
from repro.fame import Endpoint
from repro.core import Design, run_strober
from repro.targets.common import PipelinedMultiplier


class DotProductAccelerator(Module):
    """Streams (a, b) pairs and accumulates a*b through a retimed MAC."""

    def build(self):
        in_valid = self.input("in_valid", 1)
        a = self.input("a", 16)
        b = self.input("b", 16)
        clear = self.input("clear", 1)

        mac = self.instance(PipelinedMultiplier(), "mac")
        mac["valid"] <<= in_valid
        mac["a"] <<= a.pad(32)
        mac["b"] <<= b.pad(32)
        mac["funct3"] <<= 0

        acc = self.reg("acc", 48)
        count = self.reg("count", 32)
        with self.when(clear):
            acc <<= 0
            count <<= 0
        with self.elsewhen(mac["valid_out"]):
            acc <<= (acc + mac["result"].pad(48)).trunc(48)
            count <<= count + 1
        self.output("acc_lo", 32, acc[31:0])
        self.output("acc_hi", 16, acc[47:32])
        self.output("done_count", 32, count)


class StreamDriver(Endpoint):
    """Host endpoint feeding a random-but-reproducible vector stream."""

    def __init__(self, seed=0, duty=0.7):
        self.seed = seed
        self.duty = duty
        self.reset()

    def reset(self):
        self._rng = random.Random(self.seed)

    def tick(self, outputs):
        if self._rng.random() < self.duty:
            return {"in_valid": 1, "a": self._rng.getrandbits(16),
                    "b": self._rng.getrandbits(16), "clear": 0}
        return {"in_valid": 0, "a": 0, "b": 0, "clear": 0}


# The design: a fresh circuit per call, and the host endpoints of each
# workload it runs
DOTP = Design(
    "dot-product accelerator",
    lambda: elaborate(DotProductAccelerator(), name="dotp"),
    {"vector stream": lambda: [StreamDriver(seed=7)]})


def main():
    print("custom accelerator through the Strober flow")
    print("=" * 60)
    run = run_strober(DOTP, "vector stream", sample_size=15,
                      replay_length=48, max_cycles=6000, seed=2)
    print(f"simulated {run.cycles} cycles, captured "
          f"{len(run.snapshots)} snapshots "
          f"({run.result.stats.record_count} recorded)")
    stats = run.engine.flow.netlist.stats()
    print(f"synthesized: {stats['gates']} gates, {stats['dffs']} DFFs")
    retimed = run.engine.flow.name_map.retimed
    print(f"retimed blocks: {[(b.prefix, b.latency) for b in retimed]}")
    mismatches = sum(r.mismatches for r in run.replays)
    print(f"replayed {len(run.replays)} snapshots, {mismatches} mismatches")

    energy = run.energy
    print()
    print(f"average power: {energy.power} mW")
    for group, est in sorted(energy.breakdown.items(),
                             key=lambda kv: -kv[1].mean):
        print(f"  {group:<20s} {est.mean:8.3f} mW ± {est.half_width:.3f}")


if __name__ == "__main__":
    main()
