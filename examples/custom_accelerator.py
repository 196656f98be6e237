"""Energy simulation of *arbitrary RTL*: a custom accelerator.

The paper's generality claim: Strober applies to any RTL the hardware
construction language can express — "including application-specific
accelerators" — not just processors.  This example builds a small
dot-product accelerator with a designer-annotated retimed MAC pipeline,
pushes it through the complete flow (FAME1 transform, reservoir
snapshot sampling, synthesis, formal matching, gate-level replay with
retimed-unit warm-up), and reports its average power with a confidence
interval.

    python examples/custom_accelerator.py
"""

import random

from repro.hdl import Module, elaborate, mux
from repro.fame import Fame1Simulator, Endpoint
from repro.core import ReplayEngine, StroberCompiler, estimate_energy
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


def main():
    print("custom accelerator through the Strober flow")
    print("=" * 60)
    # Figure 4: one source, a FAME1 simulator circuit with its scan
    # spec and an untouched tapeout circuit
    compiled = StroberCompiler(
        lambda: elaborate(DotProductAccelerator(), name="dotp")).compile()

    # performance side: FAME1-simulate and sample snapshots
    fame = Fame1Simulator(compiled.simulator_circuit,
                          [StreamDriver(seed=7)], sample_size=15,
                          replay_length=48, backend="python", seed=2)
    fame.run(max_cycles=6000)
    snaps = fame.snapshots
    print(f"simulated {fame.stats.target_cycles} cycles, captured "
          f"{len(snaps)} snapshots "
          f"({fame.stats.record_count} recorded)")

    # energy side: synthesize, match, replay with MAC warm-up
    engine = ReplayEngine(compiled.target_circuit)
    stats = engine.flow.netlist.stats()
    print(f"synthesized: {stats['gates']} gates, {stats['dffs']} DFFs")
    retimed = engine.flow.name_map.retimed
    print(f"retimed blocks: {[(b.prefix, b.latency) for b in retimed]}")

    replays = engine.replay_all(snaps)
    mismatches = sum(r.mismatches for r in replays)
    print(f"replayed {len(replays)} snapshots, {mismatches} mismatches")

    energy = estimate_energy(replays,
                             total_cycles=fame.stats.target_cycles,
                             replay_length=48,
                             workload="vector stream",
                             design="dot-product accelerator")
    print()
    print(f"average power: {energy.power} mW")
    for group, est in sorted(energy.breakdown.items(),
                             key=lambda kv: -kv[1].mean):
        print(f"  {group:<20s} {est.mean:8.3f} mW ± {est.half_width:.3f}")


if __name__ == "__main__":
    main()
