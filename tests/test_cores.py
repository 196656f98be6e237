"""Co-simulation tests: every benchmark on every core vs the golden model.

The strongest correctness statement in the repo: three different
microarchitectures must produce architecturally identical results to
the ISA-level golden model on every workload.
"""

import pytest

from repro.isa import assemble, GoldenModel
from repro.isa.programs import ALL_PROGRAMS
from repro.core import get_circuits
from repro.targets.soc import run_workload

CORES = ["rocket_mini", "boom-1w_mini", "boom-2w_mini"]
PROGRAMS = sorted(ALL_PROGRAMS)


@pytest.fixture(scope="module", params=CORES)
def design(request):
    return request.param


class TestCoSimulation:
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_program_matches_golden(self, design, program):
        source = ALL_PROGRAMS[program]()
        golden = GoldenModel(assemble(source))
        golden.run()
        sim_circuit = get_circuits(design).simulator_circuit
        result = run_workload(sim_circuit, source, max_cycles=1_000_000,
                              mem_latency=20, backend="auto")
        assert result.exit_code == (golden.exit_code >> 1), program
        # instret matches up to the final halt-loop skew
        assert abs(result.instret - golden.instret) <= 4


class TestMicroarchitecture:
    def test_cpi_ordering_matches_paper(self):
        """Figure 9b shape: BOOM-2w < BOOM-1w < Rocket CPI on CoreMark."""
        cpis = {}
        source = ALL_PROGRAMS["coremark_lite"]()
        for design in CORES:
            circuit = get_circuits(design).simulator_circuit
            result = run_workload(circuit, source, max_cycles=1_000_000,
                                  mem_latency=20, backend="auto")
            assert result.passed
            cpis[design] = result.cpi
        assert cpis["boom-2w_mini"] < cpis["boom-1w_mini"]
        assert cpis["boom-1w_mini"] < cpis["rocket_mini"]

    def test_boom2_reaches_superscalar_ipc(self):
        """A 2-wide OoO core must exceed IPC 1 on ALU-dense code."""
        circuit = get_circuits("boom-2w_mini").simulator_circuit
        result = run_workload(circuit, ALL_PROGRAMS["dgemm"](),
                              max_cycles=1_000_000, mem_latency=20,
                              backend="auto")
        assert result.passed
        assert result.cpi < 1.0

    def test_dram_latency_changes_runtime(self):
        """The DRAM timing model must be visible in performance (Fig 7)."""
        source = ALL_PROGRAMS["pointer_chase"](array_bytes=16 * 1024,
                                               loads=64)
        circuit = get_circuits("rocket_mini").simulator_circuit
        cycles = {}
        for latency in (10, 80):
            result = run_workload(circuit, source, max_cycles=1_000_000,
                                  mem_latency=latency, backend="auto")
            assert result.passed
            cycles[latency] = result.cycles
        assert cycles[80] > cycles[10] * 1.5

    def test_mul_div_against_golden(self):
        """Directed M-extension corner cases through the real pipelines."""
        source = """
        li t0, 0x80000000
        li t1, -1
        div a1, t0, t1
        rem a2, t0, t1
        li t2, 57
        li t3, 0
        divu a3, t2, t3
        remu a4, t2, t3
        li t4, 0xFFFF
        mulhu a5, t4, t4
        li a0, 0
        add a0, a0, a1      # 0x80000000
        add a0, a0, a2      # +0
        add a0, a0, a3      # +0xFFFFFFFF
        add a0, a0, a4      # +57
        add a0, a0, a5      # +0 (0xFFFE0001 >> 32 == 0)
        li t5, 0x40000000
        slli a0, a0, 1
        ori a0, a0, 1
        sw a0, 0(t5)
        h: j h
        """
        golden = GoldenModel(assemble(source))
        golden.run()
        for design in CORES:
            circuit = get_circuits(design).simulator_circuit
            result = run_workload(circuit, source, max_cycles=20000,
                                  mem_latency=20, backend="auto")
            assert result.exit_code == (golden.exit_code >> 1), design

    def test_perf_counters_sample_cpi(self):
        """gcc_phases must report distinct per-phase CPI (Fig 10 input)."""
        circuit = get_circuits("rocket_mini").simulator_circuit
        result = run_workload(circuit,
                              ALL_PROGRAMS["gcc_phases"](rounds=1),
                              max_cycles=1_000_000, mem_latency=20,
                              backend="auto")
        assert result.passed
        samples = result.htif.perf_log
        assert len(samples) == 4
        # CPI*16 samples: the ALU phase is the fastest; a memory-bound
        # phase (streaming or pointer-chase) is the slowest
        assert samples[0] == min(samples)
        assert max(samples) in (samples[1], samples[2])
        assert max(samples) > samples[0] * 1.3  # visible phase structure
