"""Tests for the Verilog backend, attribution, and placement extras."""

import re

import pytest

from repro.hdl import Module, elaborate, mux
from repro.hdl.verilog import emit_verilog
from repro.gatelevel import synthesize, place
from repro.core import refine_attribution, soc_grouping, get_circuits


class SmallSoCish(Module):
    def build(self):
        d = self.input("d", 8)
        en = self.input("en", 1)
        acc = self.reg("acc", 16, init=3)
        with self.when(en):
            acc <<= (acc + d).trunc(16)
        buf = self.mem("buf", 8, 16)
        ptr = self.reg("ptr", 3)
        ptr <<= ptr + 1
        self.mem_write(buf, ptr, acc, en)
        self.output("acc", 16, acc)
        self.output("peek", 16, buf.read(ptr))
        self.output("flag", 1, mux(acc.ugt(100), 1, 0))


class TestVerilogBackend:
    def test_emits_module(self):
        text = emit_verilog(elaborate(SmallSoCish(), name="small"))
        assert text.startswith("module small(")
        assert text.rstrip().endswith("endmodule")
        assert "input clock," in text
        assert "always @(posedge clock)" in text

    def test_declares_all_state(self):
        text = emit_verilog(elaborate(SmallSoCish()))
        assert re.search(r"reg \[15:0\] acc;", text)
        assert re.search(r"reg \[15:0\] buf \[0:7\];", text)

    def test_reset_values(self):
        text = emit_verilog(elaborate(SmallSoCish()))
        assert "acc <= 16'h3;" in text

    def test_ports_match_circuit(self):
        circuit = elaborate(SmallSoCish())
        text = emit_verilog(circuit)
        for node in circuit.inputs:
            assert f"{node.name}" in text
        for name, _ in circuit.outputs:
            assert f"assign {name} = " in text

    def test_full_soc_emits(self):
        """The whole Rocket SoC must render without errors."""
        target = get_circuits("rocket_mini").target_circuit
        text = emit_verilog(target, module_name="rocket_soc")
        assert text.count("endmodule") == 1
        assert len(text.splitlines()) > 500


class TestAttribution:
    def test_refinement_pushes_origins_to_comb_logic(self):
        circuit = elaborate(SmallSoCish())
        netlist, _ = synthesize(circuit)
        refine_attribution(netlist)
        origins = {g.origin for g in netlist.gates}
        # comb gates feeding `acc` must now carry the register's path
        assert any(o == "acc" for o in origins)

    def test_soc_netlist_attribution_covers_units(self):
        from repro.core import get_replay_engine
        engine = get_replay_engine("rocket_mini")
        groups = {soc_grouping(g.origin)
                  for g in engine.flow.netlist.gates}
        assert {"Integer Unit", "Fetch Unit",
                "L1 I-cache"}.issubset(groups)


class TestPlacementFloorplan:
    def test_functional_floorplan(self):
        """Figure-6 flavour: the placed SoC has unit-level clusters."""
        from repro.core import get_replay_engine
        engine = get_replay_engine("rocket_mini")
        names = {box.name for box in engine.flow.placement.clusters}
        assert any("Integer Unit" in n for n in names)
        assert any("sram" in n for n in names)
        text = engine.flow.placement.floorplan_text()
        assert "die" in text
        assert engine.flow.placement.total_area_um2 > 1000


class TestScanHardwareOption:
    def test_compiler_with_hardware_chains(self):
        from repro.core import StroberCompiler

        def build():
            return elaborate(SmallSoCish())

        output = StroberCompiler(build, scan_width=8,
                                 hardware_scan_chains=True).compile()
        out_names = {name for name, _ in
                     output.simulator_circuit.outputs}
        assert "scan_out" in out_names
        assert any(name.startswith("scan_ram_") for name in out_names)
