"""Tests for the CAD substrate: synthesis, gate sim, formal, power."""

import random

import pytest

from repro.hdl import Module, elaborate, mux
from repro.hdl.ir import Node
from repro.sim import RTLSimulator
from repro.gatelevel import (
    synthesize, GateLevelSimulator, match_netlist, verify_equivalence,
    analyze_power, place, mangle, MatchError,
)


class AluDesign(Module):
    """Wide op coverage for synthesis equivalence checks."""

    def build(self):
        a = self.input("a", 12)
        b = self.input("b", 12)
        sh = self.input("sh", 4)
        op = self.input("op", 3)
        add = (a + b).trunc(12)
        sub = (a - b).trunc(12)
        logic = mux(op[0], a & b, a | b)
        shifted = mux(op[1], (a << sh).trunc(12), a >> sh)
        srl = a.sra(sh)
        cmp = mux(a.slt(b), 1, 0).pad(12)
        out = mux(op.eq(0), add,
                  mux(op.eq(1), sub,
                      mux(op.eq(2), logic,
                          mux(op.eq(3), shifted,
                              mux(op.eq(4), srl, cmp)))))
        self.output("out", 12, out)
        self.output("prod", 24, a * b)
        self.output("quot", 12, Node("divu", 12, (a, b)))
        self.output("rem", 12, Node("modu", 12, (a, b)))
        self.output("eq", 1, a.eq(b))
        self.output("ltu", 1, a.ult(b))
        self.output("parity", 1, a.xorr())
        self.output("all1", 1, a.andr())


class SeqDesign(Module):
    """Registers (incl. constant + duplicate) and a memory."""

    def build(self):
        d = self.input("d", 8)
        we = self.input("we", 1)
        frozen = self.reg("frozen", 8, init=0x5A)   # never assigned
        dup_a = self.reg("dup_a", 8)
        dup_b = self.reg("dup_b", 8)                # same D as dup_a
        dup_a <<= d
        dup_b <<= d
        acc = self.reg("acc", 12)
        acc <<= (acc + d).trunc(12)
        scratch = self.mem("scratch", 16, 8)
        ptr = self.reg("ptr", 4)
        with self.when(we):
            self.mem_write(scratch, ptr, d)
            ptr <<= ptr + 1
        self.output("acc", 12, acc)
        self.output("frozen", 8, frozen)
        self.output("peek", 8, scratch.read(ptr))
        self.output("dup", 8, dup_a ^ dup_b)


@pytest.fixture(scope="module")
def alu_pair():
    circuit = elaborate(AluDesign())
    netlist, hints = synthesize(circuit)
    return circuit, netlist, hints


@pytest.fixture(scope="module")
def seq_pair():
    circuit = elaborate(SeqDesign())
    netlist, hints = synthesize(circuit)
    return circuit, netlist, hints


class TestSynthesis:
    def test_produces_gates(self, alu_pair):
        _, netlist, _ = alu_pair
        stats = netlist.stats()
        assert stats["gates"] > 100
        assert stats["dffs"] == 0

    def test_equivalence_combinational(self, alu_pair):
        circuit, netlist, _ = alu_pair
        result = verify_equivalence(circuit, netlist, n_cycles=150, seed=4)
        assert result.equivalent, result.counterexample

    def test_equivalence_sequential(self, seq_pair):
        circuit, netlist, _ = seq_pair
        result = verify_equivalence(circuit, netlist, n_cycles=100, seed=5)
        assert result.equivalent, result.counterexample

    def test_constant_register_removed(self, seq_pair):
        _, netlist, hints = seq_pair
        assert hints.removed_const_dffs >= 8  # all bits of `frozen`
        kinds = {hints.dff_map[("frozen", b)].kind for b in range(8)}
        assert kinds == {"const"}

    def test_duplicate_registers_merged(self, seq_pair):
        _, netlist, hints = seq_pair
        merged = [hints.dff_map[("dup_b", b)].kind for b in range(8)]
        direct = [hints.dff_map[("dup_a", b)].kind for b in range(8)]
        assert set(merged) == {"merged"}
        assert set(direct) == {"dff"}

    def test_names_are_mangled(self, seq_pair):
        _, netlist, _ = seq_pair
        names = {dff.name for dff in netlist.dffs}
        assert mangle("acc", 0) in names
        assert all("_reg_" in name for name in names)

    def test_memory_becomes_macro(self, seq_pair):
        _, netlist, _ = seq_pair
        assert len(netlist.srams) == 1
        macro = netlist.srams[0]
        assert macro.depth == 16 and macro.width == 8
        assert len(macro.read_ports) == 1
        assert len(macro.write_ports) == 1


class TestGateLevelSimulator:
    def test_sram_write_read(self, seq_pair):
        _, netlist, _ = seq_pair
        gl = GateLevelSimulator(netlist)
        gl.poke("d", 0xAB)
        gl.poke("we", 1)
        gl.step()
        assert gl.read_sram("scratch", 0) == 0xAB

    def test_toggle_counts_accumulate(self, seq_pair):
        _, netlist, _ = seq_pair
        gl = GateLevelSimulator(netlist)
        gl.poke("we", 0)
        rng = random.Random(0)
        for _ in range(20):
            gl.poke("d", rng.getrandbits(8))
            gl.step()
        activity = gl.activity()
        assert activity["cycles"] == 20
        assert activity["toggles"].sum() > 0

    def test_clear_activity(self, seq_pair):
        _, netlist, _ = seq_pair
        gl = GateLevelSimulator(netlist)
        gl.poke("d", 0xFF)
        gl.poke("we", 0)
        gl.step(5)
        gl.clear_activity()
        assert gl.activity()["cycles"] == 0
        assert gl.activity()["toggles"].sum() == 0

    def test_dff_load_by_name(self, seq_pair):
        _, netlist, _ = seq_pair
        gl = GateLevelSimulator(netlist)
        gl.load_dff(mangle("acc", 3), 1)
        gl.eval()
        assert gl.peek("acc") & (1 << 3)


class TestNameMapAndStateLoad:
    def test_snapshot_loads_onto_gate_level(self, seq_pair):
        circuit, netlist, hints = seq_pair
        name_map = match_netlist(circuit, netlist, hints)
        rtl = RTLSimulator(circuit)
        rng = random.Random(7)
        for _ in range(23):
            rtl.poke("d", rng.getrandbits(8))
            rtl.poke("we", rng.getrandbits(1))
            rtl.step()
        snap = rtl.snapshot()

        gl = GateLevelSimulator(netlist)
        commands = name_map.load_commands(snap)
        gl.load_dffs(commands)
        for mem_path, contents in snap.mems.items():
            gl.load_sram(mem_path, contents)

        # From the loaded state, both simulators must agree cycle by cycle.
        for _ in range(20):
            d, we = rng.getrandbits(8), rng.getrandbits(1)
            rtl.poke("d", d)
            rtl.poke("we", we)
            gl.poke("d", d)
            gl.poke("we", we)
            rtl.eval()
            gl.eval()
            assert rtl.peek_all() == gl.peek_all()
            rtl.step()
            gl.step()

    def test_const_mismatch_detected(self, seq_pair):
        circuit, netlist, hints = seq_pair
        name_map = match_netlist(circuit, netlist, hints)
        rtl = RTLSimulator(circuit)
        snap = rtl.snapshot()
        frozen = snap.reg_paths.index("frozen")
        snap.reg_values[frozen] = 0x00  # inconsistent with tied constant
        with pytest.raises(MatchError):
            name_map.load_commands(snap)

    def test_all_registers_have_match_points(self, seq_pair):
        circuit, netlist, hints = seq_pair
        name_map = match_netlist(circuit, netlist, hints)
        covered = {(p.reg_path, p.bit) for p in name_map.points}
        expected = {(reg.path, bit)
                    for reg in circuit.regs for bit in range(reg.width)}
        assert covered == expected


class TestPlacementAndPower:
    def test_placement_produces_caps(self, seq_pair):
        _, netlist, _ = seq_pair
        placement = place(netlist)
        assert placement.total_area_um2 > 0
        assert placement.net_wire_cap_ff is not None
        assert (placement.net_wire_cap_ff >= 0).all()
        assert "die" in placement.floorplan_text()

    def test_power_report(self, seq_pair):
        _, netlist, _ = seq_pair
        gl = GateLevelSimulator(netlist)
        rng = random.Random(1)
        for _ in range(50):
            gl.poke("d", rng.getrandbits(8))
            gl.poke("we", rng.getrandbits(1))
            gl.step()
        placement = place(netlist)
        report = analyze_power(netlist, gl.activity(), placement)
        assert report.total_w > 0
        assert report.leakage_w > 0
        assert report.clock_w > 0
        assert report.total_w == pytest.approx(
            report.switching_w + report.clock_w + report.sram_dynamic_w
            + report.leakage_w)
        assert sum(report.by_group.values()) == pytest.approx(
            report.total_w, rel=1e-6)

    def test_idle_design_burns_less_power(self, seq_pair):
        _, netlist, _ = seq_pair
        placement = place(netlist)

        def run(pattern):
            gl = GateLevelSimulator(netlist)
            for value in pattern:
                gl.poke("d", value)
                gl.poke("we", 0)
                gl.step()
            return analyze_power(netlist, gl.activity(), placement)

        busy = run([0x00, 0xFF] * 25)
        idle = run([0x00] * 50)
        assert busy.total_w > idle.total_w
