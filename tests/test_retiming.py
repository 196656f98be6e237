"""End-to-end tests for the retimed-datapath replay mechanism (IV-C3).

A designer-annotated retimed module's gate-level registers cannot be
name-matched, so replays must recover its internal state by forcing the
block's inputs for `latency` cycles (using the input-history shift
registers elaboration adds) before loading the rest of the snapshot.
"""

import random

import pytest

from repro.core.replay import ReplayEngine
from repro.hdl import Module, elaborate
from repro.scan import ReplayableSnapshot, TraceLayout
from repro.sim import RTLSimulator
from repro.gatelevel import (
    synthesize, GateLevelSimulator, match_netlist, verify_equivalence,
)


class PipelinedMac(Module):
    """3-stage multiply-accumulate pipeline, annotated as retimed."""

    def __init__(self, width=8, name=None):
        self.width = width
        super().__init__(name)

    def build(self):
        self.mark_retimed(3)
        a = self.input("a", self.width)
        b = self.input("b", self.width)
        s1 = self.reg("s1", 2 * self.width)
        s1 <<= a * b
        s2 = self.reg("s2", 2 * self.width)
        s2 <<= s1
        s3 = self.reg("s3", 2 * self.width)
        s3 <<= s2
        self.output("p", 2 * self.width, s3)


class MacSystem(Module):
    """A core-like wrapper: accumulates the retimed pipeline's output."""

    def build(self):
        x = self.input("x", 8)
        y = self.input("y", 8)
        mac = self.instance(PipelinedMac(), "fpu")
        mac["a"] <<= x
        mac["b"] <<= y
        acc = self.reg("acc", 24)
        acc <<= (acc + mac["p"]).trunc(24)
        self.output("acc", 24, acc)
        self.output("p", 16, mac["p"])


@pytest.fixture(scope="module")
def system():
    circuit = elaborate(MacSystem())
    netlist, hints = synthesize(circuit)
    return circuit, netlist, hints


class TestRetimedElaboration:
    def test_history_registers_added(self, system):
        circuit, _, _ = system
        paths = {reg.path for reg in circuit.regs}
        for port in ("a", "b"):
            for k in (1, 2, 3):
                assert f"fpu.__rt_hist_{port}_{k}" in paths

    def test_block_recorded(self, system):
        circuit, _, _ = system
        assert len(circuit.retimed_blocks) == 1
        block = circuit.retimed_blocks[0]
        assert block.prefix == "fpu."
        assert block.latency == 3
        assert {rin.name for rin in block.inputs} == {"a", "b"}

    def test_history_regs_track_inputs(self, system):
        circuit, _, _ = system
        sim = RTLSimulator(circuit)
        values = [(3, 4), (5, 6), (7, 8), (9, 10)]
        for x, y in values:
            sim.poke("x", x)
            sim.poke("y", y)
            sim.step()
        # h_k = input at t-k
        assert sim.peek_reg("fpu.__rt_hist_a_1") == 9
        assert sim.peek_reg("fpu.__rt_hist_a_2") == 7
        assert sim.peek_reg("fpu.__rt_hist_a_3") == 5
        assert sim.peek_reg("fpu.__rt_hist_b_1") == 10

    def test_bad_latency_rejected(self):
        class Bad(Module):
            def build(self):
                self.mark_retimed(0)

        with pytest.raises(ValueError):
            elaborate(Bad())


class TestRetimedSynthesis:
    def test_netlist_still_equivalent(self, system):
        circuit, netlist, _ = system
        result = verify_equivalence(circuit, netlist, n_cycles=60, seed=2)
        assert result.equivalent, result.counterexample

    def test_block_registers_unmatchable(self, system):
        circuit, netlist, hints = system
        name_map = match_netlist(circuit, netlist, hints)
        retimed_paths = {p.reg_path for p in name_map.retimed_points()}
        assert any(path.startswith("fpu.s") for path in retimed_paths)
        assert "acc" not in retimed_paths
        # history registers live inside the block -> also unmatchable
        assert any("__rt_hist" in path for path in retimed_paths)

    def test_block_inputs_preserved(self, system):
        _, netlist, hints = system
        assert "fpu.a" in netlist.preserved_nets
        assert "fpu.b" in netlist.preserved_nets
        assert len(netlist.preserved_nets["fpu.a"]) == 8


class TestRetimedReplay:
    def _snapshot_after(self, circuit, n_cycles, seed):
        rtl = RTLSimulator(circuit)
        rng = random.Random(seed)
        trace = []
        for _ in range(n_cycles):
            x, y = rng.getrandbits(8), rng.getrandbits(8)
            rtl.poke("x", x)
            rtl.poke("y", y)
            rtl.step()
            trace.append((x, y))
        future = [(rng.getrandbits(8), rng.getrandbits(8))
                  for _ in range(10)]
        expected = []
        for x, y in future:
            rtl.poke("x", x)
            rtl.poke("y", y)
            rtl.eval()
            rtl.step()
            expected.append(rtl.peek_all())
        return rtl, trace, future, expected

    def test_replay_with_warmup_matches(self, system):
        circuit, netlist, hints = system
        name_map = match_netlist(circuit, netlist, hints)
        rtl = RTLSimulator(circuit)
        rng = random.Random(11)
        for _ in range(25):
            rtl.poke("x", rng.getrandbits(8))
            rtl.poke("y", rng.getrandbits(8))
            rtl.step()
        snap = rtl.snapshot()

        gl = GateLevelSimulator(netlist)
        # Warm-up: force block inputs from the history registers,
        # oldest first (Section IV-C3).
        block = name_map.retimed[0]
        for k in range(block.latency, 0, -1):
            for port_name, _w, label, hist_paths in block.inputs:
                gl.force_label(label, snap.reg(hist_paths[k - 1]))
            gl.step()
        gl.release_all()
        # Now load the matchable state and replay.
        gl.load_dffs(name_map.load_commands(snap))
        for mem_path, contents in snap.mems.items():
            gl.load_sram(mem_path, contents)

        for _ in range(12):
            x, y = rng.getrandbits(8), rng.getrandbits(8)
            for sim in (rtl, gl):
                sim.poke("x", x)
                sim.poke("y", y)
            rtl.eval()
            gl.eval()
            assert rtl.peek_all() == gl.peek_all()
            rtl.step()
            gl.step()

    def test_replay_without_warmup_diverges(self, system):
        """Sanity: skipping the warm-up leaves the pipeline state wrong,
        which is exactly why the paper needs the mechanism."""
        circuit, netlist, hints = system
        name_map = match_netlist(circuit, netlist, hints)
        rtl = RTLSimulator(circuit)
        rng = random.Random(13)
        for _ in range(25):
            rtl.poke("x", rng.getrandbits(8))
            rtl.poke("y", rng.getrandbits(8))
            rtl.step()
        snap = rtl.snapshot()

        gl = GateLevelSimulator(netlist)
        gl.load_dffs(name_map.load_commands(snap))
        mismatched = False
        for _ in range(4):
            x, y = rng.getrandbits(8), rng.getrandbits(8)
            for sim in (rtl, gl):
                sim.poke("x", x)
                sim.poke("y", y)
            rtl.eval()
            gl.eval()
            if rtl.peek_all() != gl.peek_all():
                mismatched = True
                break
            rtl.step()
            gl.step()
        assert mismatched


def _captured_snapshots(circuit, n, length=12, seed=21):
    """``n`` snapshots of one RTL run, each captured mid-stream with
    its next ``length`` cycles of I/O recorded (as the FAME loop
    records them)."""
    layout = TraceLayout(
        [(node.name, node.width) for node in circuit.inputs],
        [(name, driver.width) for name, driver in circuit.outputs])
    rtl = RTLSimulator(circuit)
    rng = random.Random(seed)
    snaps = []
    for _ in range(n):
        for _ in range(rng.randrange(5, 15)):
            rtl.poke("x", rng.getrandbits(8))
            rtl.poke("y", rng.getrandbits(8))
            rtl.step()
        snap = ReplayableSnapshot(rtl.cycle, rtl.snapshot(), length,
                                  layout)
        for _ in range(length):
            rtl.poke("x", rng.getrandbits(8))
            rtl.poke("y", rng.getrandbits(8))
            rtl.step()
            snap.record_cycle(list(rtl.input_values()),
                              list(rtl.output_values()))
        snap.seal()
        snaps.append(snap)
    return snaps


class TestEngineWarmup:
    """The replay engine's warm-up: one force segment per warm-up cycle
    for every lane of a batch, on each backend (the C kernel where a
    compiler exists), must rebuild the retimed pipeline's state."""

    @pytest.mark.parametrize("backend", ["interp", "auto"])
    def test_batched_replay_matches_rtl(self, backend):
        circuit = elaborate(MacSystem())
        engine = ReplayEngine(circuit, gl_backend=backend)
        assert engine.flow.name_map.retimed
        snaps = _captured_snapshots(circuit, 3)
        # strict: a lane whose pipeline state is wrong raises
        results = engine.replay_batch(snaps, strict=True)
        assert [r.mismatches for r in results] == [0, 0, 0]
        one_lane = [engine.replay(snap) for snap in snaps]
        assert [r.power.total_w for r in results] == \
            [r.power.total_w for r in one_lane]
