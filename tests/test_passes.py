"""Tests for repro.passes: verifier, manager, ported transform passes.

Covers the PR 3 acceptance criteria: the structural verifier catches
seeded IR-bug classes (width mismatch, dangling wire, combinational
loop) with actionable messages, the PassManager schedules/skips/reports
correctly with a deterministic fingerprint, every ported pass preserves
RTL-simulation semantics on a small design and a target core, the
compiler rejects aliased build functions, instrumentation parameters
separate artifact-cache keys, and end-to-end energy numbers are
bit-identical to the pre-refactor flow.
"""

import copy

import pytest

from repro.hdl import Module, elaborate
from repro.hdl.ir import Node, circuit_fingerprint
from repro.sim import RTLSimulator
from repro.fame import fame1_transform, is_fame1, HOST_ENABLE
from repro.fame.transform import Fame1TransformPass
from repro.scan.chains import ScanChainSpecPass, InsertScanChainsPass
from repro.passes import (
    Pass, PassResult, PassManager, PassScheduleError, VerifyPass,
    compose_cache_key, verify_circuit, assert_well_formed,
    VerificationError,
)
from repro.passes.lint import lint_circuit
from repro.core import (
    StroberCompiler, StroberCompileError, get_config, run_strober,
    clear_caches, asic_pipeline,
)


class PipelinedAccumulator(Module):
    """Small sequential design with a memory, shared across these tests."""

    def build(self):
        d = self.input("d", 8)
        stage1 = self.reg("stage1", 8)
        stage1 <<= d
        acc = self.reg("acc", 16)
        acc <<= (acc + stage1).trunc(16)
        log = self.mem("log", 16, 16)
        wptr = self.reg("wptr", 4)
        wptr <<= wptr + 1
        self.mem_write(log, wptr, acc)
        self.output("acc", 16, acc)


def _issues_of_kind(issues, kind):
    return [i for i in issues if i.kind == kind]


class TestVerifier:
    def test_clean_circuit_has_no_issues(self):
        circuit = elaborate(PipelinedAccumulator())
        assert verify_circuit(circuit) == []
        assert assert_well_formed(circuit)

    def test_transformed_circuits_stay_clean(self):
        circuit = elaborate(PipelinedAccumulator())
        fame1_transform(circuit)
        assert verify_circuit(circuit) == []

    def test_seeded_width_mismatch_is_caught(self):
        circuit = elaborate(PipelinedAccumulator())
        # Seed bug class 1: a mux whose select is wider than 1 bit.
        acc = circuit.reg_by_path("acc")
        wide_sel = circuit.reg_by_path("stage1")       # 8-bit select
        bad = Node("mux", 16, (wide_sel, circuit.reg_next[acc], acc))
        circuit.reg_next[acc] = bad
        circuit.retopo()
        issues = _issues_of_kind(lint_circuit(circuit), "width")
        assert issues, "verifier missed the wide mux select"
        assert any("mux select is 8 bits" in i.message for i in issues)
        # The message tells the user how to fix it, not just that it broke.
        assert any("1 bit" in i.message for i in issues)

    def test_seeded_register_driver_width_mismatch(self):
        circuit = elaborate(PipelinedAccumulator())
        acc = circuit.reg_by_path("acc")
        stage1 = circuit.reg_by_path("stage1")
        circuit.reg_next[acc] = stage1                 # 8 bits into 16
        circuit.retopo()
        issues = _issues_of_kind(verify_circuit(circuit), "width")
        assert any("16 bits" in i.message and "8" in i.message
                   for i in issues)
        assert any("resize the driver" in i.message for i in issues)

    def test_seeded_dangling_register_is_caught(self):
        circuit = elaborate(PipelinedAccumulator())
        # Seed bug class 2: drop a register the graph still references.
        stage1 = circuit.reg_by_path("stage1")
        circuit.regs.remove(stage1)
        del circuit.reg_next[stage1]
        issues = _issues_of_kind(lint_circuit(circuit), "dangling")
        assert issues, "verifier missed the dangling register"
        assert any("not in circuit.regs" in i.message for i in issues)
        assert any("never update" in i.message for i in issues)

    def test_missing_reg_next_reported_not_crashed(self):
        circuit = elaborate(PipelinedAccumulator())
        wptr = circuit.reg_by_path("wptr")
        del circuit.reg_next[wptr]
        issues = _issues_of_kind(verify_circuit(circuit), "dangling")
        assert any("no next-state driver" in i.message for i in issues)

    def test_seeded_comb_loop_is_caught(self):
        circuit = elaborate(PipelinedAccumulator())
        # Seed bug class 3: a combinational node that feeds itself.
        acc = circuit.reg_by_path("acc")
        loop = Node("and", 16, (acc, acc))
        loop.args = (loop, acc)                        # self-reference
        circuit.outputs.append(("bad", loop))
        issues = _issues_of_kind(lint_circuit(circuit), "comb-loop")
        assert issues, "verifier missed the combinational loop"
        assert any("break it with a register" in i.message for i in issues)

    def test_verification_error_lists_issues(self):
        circuit = elaborate(PipelinedAccumulator())
        acc = circuit.reg_by_path("acc")
        circuit.reg_next[acc] = circuit.reg_by_path("stage1")
        circuit.retopo()
        with pytest.raises(VerificationError) as excinfo:
            assert_well_formed(circuit)
        assert "issue(s)" in str(excinfo.value)
        assert excinfo.value.issues


class _Produce(Pass):
    """Test pass that establishes a property without touching the IR."""

    def __init__(self, prop, **params):
        super().__init__(**params)
        self.name = f"produce-{prop}"
        self.produces = (prop,)

    def run(self, circuit, ctx):
        return PassResult(stats={"ran": 1})


class _Need(Pass):
    def __init__(self, prop):
        super().__init__()
        self.name = f"need-{prop}"
        self.requires = ("elaborated", prop)

    def run(self, circuit, ctx):
        return PassResult()


class _AlwaysSatisfied(Pass):
    name = "noop"
    produces = ("noop-done",)

    def is_satisfied(self, circuit):
        return True

    def run(self, circuit, ctx):           # pragma: no cover
        raise AssertionError("satisfied pass must not run")


class _CorruptMux(Pass):
    """Deliberately emits a malformed graph (wide mux select)."""

    name = "corrupt"

    def run(self, circuit, ctx):
        reg = circuit.regs[0]
        wide = Node("input", 4, name="wide_sel")
        circuit.inputs.append(wide)
        circuit.reg_next[reg] = Node(
            "mux", reg.width, (wide, circuit.reg_next[reg], reg))
        circuit.retopo()
        return PassResult()


class TestPassManager:
    def test_missing_requirement_raises_schedule_error(self):
        circuit = elaborate(PipelinedAccumulator())
        manager = PassManager([_Need("netlist")], name="misordered")
        with pytest.raises(PassScheduleError) as excinfo:
            manager.run(circuit)
        msg = str(excinfo.value)
        assert "netlist" in msg and "misordered" in msg
        assert "reorder" in msg

    def test_producer_unblocks_consumer(self):
        circuit = elaborate(PipelinedAccumulator())
        manager = PassManager([_Produce("netlist"), _Need("netlist")])
        ctx = manager.run(circuit)
        assert [r.skipped for r in ctx.report.records] == [False, False]

    def test_satisfied_pass_is_skipped_but_counts_as_producer(self):
        circuit = elaborate(PipelinedAccumulator())
        manager = PassManager([_AlwaysSatisfied(), _Need("noop-done")])
        ctx = manager.run(circuit)
        assert ctx.report.records[0].skipped

    def test_fame1_rerun_skips_instead_of_failing(self):
        circuit = elaborate(PipelinedAccumulator())
        PassManager([Fame1TransformPass()]).run(circuit)
        assert is_fame1(circuit)
        ctx = PassManager([Fame1TransformPass()]).run(circuit)
        assert ctx.report.records[0].skipped

    def test_report_records_timing_and_ir_delta(self):
        circuit = elaborate(PipelinedAccumulator())
        ctx = PassManager([Fame1TransformPass()],
                          name="timed").run(circuit)
        report = ctx.report
        assert report.pipeline == "timed"
        (rec,) = report.records
        assert rec.name == "fame1"
        assert rec.seconds >= 0
        assert rec.ir_delta["inputs"] == 1          # host_en added
        assert report.per_pass_seconds() == {"fame1": rec.seconds}
        as_dict = report.as_dict()
        assert as_dict["passes"][0]["name"] == "fame1"
        assert report.fingerprint

    def test_fingerprint_deterministic_and_param_sensitive(self):
        def pipe(width):
            return PassManager([Fame1TransformPass(),
                                ScanChainSpecPass(scan_width=width)])
        assert pipe(32).fingerprint() == pipe(32).fingerprint()
        assert pipe(32).fingerprint() != pipe(16).fingerprint()
        # Pass identity matters too, not just parameters.
        hw = PassManager([Fame1TransformPass(),
                          InsertScanChainsPass(scan_width=32)])
        assert hw.fingerprint() != pipe(32).fingerprint()

    def test_debug_mode_blames_the_corrupting_pass(self):
        circuit = elaborate(PipelinedAccumulator())
        manager = PassManager([Fame1TransformPass(), _CorruptMux()])
        with pytest.raises(VerificationError) as excinfo:
            manager.run(circuit, debug=True)
        assert "after pass 'corrupt'" in str(excinfo.value)

    def test_explicit_verify_pass_runs_in_release_mode(self):
        circuit = elaborate(PipelinedAccumulator())
        acc = circuit.reg_by_path("acc")
        circuit.reg_next[acc] = circuit.reg_by_path("stage1")
        circuit.retopo()
        with pytest.raises(VerificationError):
            PassManager([VerifyPass()]).run(circuit)


def _lockstep_compare(plain, transformed, cycles=32, extra_pokes=()):
    """Drive both circuits with identical inputs; outputs must match."""
    s_plain = RTLSimulator(plain)
    s_xform = RTLSimulator(transformed)
    for name, value in extra_pokes:
        s_xform.poke(name, value)
    state = 0xACE1
    for cycle in range(cycles):
        for node in plain.inputs:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            value = state & ((1 << node.width) - 1)
            s_plain.poke(node.name, value)
            s_xform.poke(node.name, value)
        s_plain.step()
        s_xform.step()
        for out_name, _ in plain.outputs:
            assert s_plain.peek(out_name) == s_xform.peek(out_name), \
                f"output {out_name!r} diverged at cycle {cycle}"


class TestSemanticsPreservation:
    def test_fame1_pass_preserves_small_design(self):
        plain = elaborate(PipelinedAccumulator())
        famed = elaborate(PipelinedAccumulator())
        PassManager([Fame1TransformPass()]).run(famed, debug=True)
        _lockstep_compare(plain, famed,
                          extra_pokes=[(HOST_ENABLE, 1)])

    def test_scan_insert_pass_preserves_small_design(self):
        plain = elaborate(PipelinedAccumulator())
        scanned = elaborate(PipelinedAccumulator())
        ctx = PassManager([InsertScanChainsPass(scan_width=8)]).run(
            scanned, debug=True)
        assert ctx["scan_spec"].reg_chain
        # Scan hardware idle: chain control inputs default to 0.
        _lockstep_compare(plain, scanned)

    def test_full_instrumentation_preserves_target_core(self):
        config = get_config("rocket_mini")
        plain = config.build_circuit()
        instrumented = config.build_circuit()
        PassManager([Fame1TransformPass(),
                     InsertScanChainsPass(scan_width=32)]).run(
            instrumented, debug=True)
        _lockstep_compare(plain, instrumented, cycles=24,
                          extra_pokes=[(HOST_ENABLE, 1)])


class TestCompilerAliasing:
    def test_same_object_twice_raises_typed_error(self):
        circuit = elaborate(PipelinedAccumulator())
        compiler = StroberCompiler(lambda: circuit)
        with pytest.raises(StroberCompileError) as excinfo:
            compiler.compile()
        msg = str(excinfo.value)
        assert "same circuit object twice" in msg
        assert "fresh Module" in msg                  # fix hint

    def test_shared_nodes_raise_typed_error(self):
        circuit = elaborate(PipelinedAccumulator())
        twins = [circuit, copy.copy(circuit)]
        compiler = StroberCompiler(lambda: twins.pop())
        with pytest.raises(StroberCompileError) as excinfo:
            compiler.compile()
        assert "sharing" in str(excinfo.value)

    def test_compile_error_is_a_type_error(self):
        # Callers catching TypeError for the old behaviour keep working.
        assert issubclass(StroberCompileError, TypeError)

    def test_fresh_builds_compile(self):
        compiler = StroberCompiler(
            lambda: elaborate(PipelinedAccumulator()), debug=True)
        out = compiler.compile()
        assert is_fame1(out.simulator_circuit)
        assert not is_fame1(out.target_circuit)
        assert out.report.records[0].name == "fame1"
        assert out.fingerprint == compiler.pipeline_fingerprint()


class TestCacheKeys:
    def test_scan_width_separates_artifact_keys(self):
        build = lambda: elaborate(PipelinedAccumulator())
        fp = circuit_fingerprint(elaborate(PipelinedAccumulator()))
        key32 = StroberCompiler(build, scan_width=32).artifact_cache_key(fp)
        key16 = StroberCompiler(build, scan_width=16).artifact_cache_key(fp)
        assert key32 != key16
        again = StroberCompiler(build, scan_width=32).artifact_cache_key(fp)
        assert key32 == again

    def test_hardware_scan_chains_separates_keys(self):
        build = lambda: elaborate(PipelinedAccumulator())
        fp = circuit_fingerprint(elaborate(PipelinedAccumulator()))
        soft = StroberCompiler(build).artifact_cache_key(fp)
        hard = StroberCompiler(
            build, hardware_scan_chains=True).artifact_cache_key(fp)
        assert soft != hard

    def test_compose_cache_key_covers_every_part(self):
        base = compose_cache_key("circ", "pipe")
        assert compose_cache_key("circ", "pipe") == base
        assert compose_cache_key("circ2", "pipe") != base
        assert compose_cache_key("circ", "pipe2") != base
        assert compose_cache_key("circ", "pipe", scan_width=8) != base

    def test_asic_pipeline_fingerprint_stable(self):
        assert asic_pipeline().fingerprint() == \
            asic_pipeline().fingerprint()
        assert asic_pipeline(cluster_depth=3).fingerprint() != \
            asic_pipeline().fingerprint()


class TestEnergyBitIdentical:
    """Golden values captured from the pre-refactor flow (seed commit).

    The pass-pipeline refactor must not change a single bit of the
    energy math; repr() equality on the floats is the strictest check
    Python offers.
    """

    def test_rocket_mini_towers_golden(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        run = run_strober("rocket_mini", "towers", sample_size=4,
                          replay_length=48, seed=3, backend="auto",
                          debug=True)
        assert repr(run.energy.power.mean) == "13.157135653299193"
        assert repr(run.energy.power.half_width) == "1.666286039535615"
        assert repr(run.energy.dram_power_mw) == "29.03766578249337"
        assert repr(run.energy.epi_nj) == "0.07106067708299718"
        assert run.cycles == 2639
        # The per-pass timing breakdown landed in the run timings.
        assert "strober-compile/fame1" in run.timings["passes"]
        assert "asicflow-soc/synthesis" in run.timings["passes"]

    def test_boom_mini_qsort_golden(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        run = run_strober("boom-1w_mini", "qsort",
                          workload_kwargs={"n": 12}, sample_size=4,
                          replay_length=48, seed=3, backend="auto",
                          debug=True)
        assert repr(run.energy.power.mean) == "28.041874847280155"
        assert repr(run.energy.power.half_width) == "9.152891455099578"
        assert repr(run.energy.dram_power_mw) == "44.202076124567476"
        assert repr(run.energy.epi_nj) == "0.16260515444598106"
        assert run.cycles == 1445
