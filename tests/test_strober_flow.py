"""Integration tests for the full Strober methodology (Figures 2, 4, 5)."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    run_strober, get_circuits, get_replay_engine, StroberCompiler,
    clear_caches, Design, ReplayEngine, estimate_energy,
    strober_time, uarch_sim_time, gate_sim_time, PAPER_PARAMS,
    soc_grouping,
)
from repro.core.configs import get_config
from repro.fame import Endpoint, Fame1Simulator
from repro.hdl import Module, elaborate
from repro.isa.programs import ALL_PROGRAMS
from repro.targets.soc import run_workload
from repro.sampling import estimate_mean


@pytest.fixture(scope="module")
def towers_run():
    return run_strober("rocket_mini", "towers", sample_size=8,
                       replay_length=64, backend="auto", seed=1)


class TestEndToEnd:
    def test_replays_verify_exactly(self, towers_run):
        """The paper's correctness check: every replayed output token
        matches the trace recorded on the fast simulator."""
        assert towers_run.replays
        assert all(r.mismatches == 0 for r in towers_run.replays)

    def test_energy_estimate_structure(self, towers_run):
        energy = towers_run.energy
        assert energy.power.mean > 0
        assert energy.power.half_width >= 0
        assert energy.dram_power_mw > 0
        assert energy.cpi > 1.0
        assert energy.epi_nj > 0
        assert "Integer Unit" in energy.breakdown
        assert "L1 I-cache" in energy.breakdown
        total_groups = sum(est.mean for est in energy.breakdown.values())
        assert total_groups == pytest.approx(energy.power.mean, rel=1e-6)

    def test_snapshot_coverage_is_small(self, towers_run):
        """Table IV property: replayed cycles are a small fraction."""
        replayed = sum(r.cycles for r in towers_run.replays)
        assert replayed < towers_run.cycles
        assert towers_run.energy.sample_size == len(towers_run.replays)

    def test_replay_cycles_match_window(self, towers_run):
        assert all(r.cycles == 64 for r in towers_run.replays)

    def test_failing_workload_raises(self):
        bad = """
        li a0, 1
        li t0, 0x40000000
        slli a0, a0, 1
        ori a0, a0, 1
        sw a0, 0(t0)
        h: j h
        """
        with pytest.raises(RuntimeError):
            run_strober("rocket_mini", bad, sample_size=4,
                        replay_length=32, backend="auto")


class TestSampledPowerAccuracy:
    def test_estimate_within_bound_of_true_power(self):
        """Figure 8 in miniature: the sampled estimate's 99% bound must
        cover the true (full gate-level) average power."""
        run = run_strober("rocket_mini", "qsort",
                          workload_kwargs={"n": 16},
                          sample_size=10, replay_length=64,
                          backend="auto", seed=7, record_full_io=True)
        engine = run.engine
        truth, mismatches = engine.replay_full_trace(
            run.result.fame.full_io_trace)
        assert mismatches == 0
        estimate = run.energy.power
        actual_error = abs(estimate.mean - truth.total_mw) / truth.total_mw
        # the bound itself is statistical; require the actual error to be
        # small and comparable to the computed bound
        assert actual_error < max(3 * estimate.relative_error_bound, 0.15)


class TestFullIoTrace:
    def test_recording_does_not_perturb_the_run(self):
        kwargs = dict(sample_size=8, replay_length=32, seed=3)
        plain = run_strober("rocket_mini", "towers", **kwargs)
        traced = run_strober("rocket_mini", "towers",
                             record_full_io=True, **kwargs)

        def stats(run):
            return {k: v for k, v in run.result.stats.as_dict().items()
                    if "wall" not in k}

        assert stats(traced) == stats(plain)
        assert [(s.cycle, s.checksum) for s in traced.snapshots] == \
            [(s.cycle, s.checksum) for s in plain.snapshots]
        assert traced.energy == plain.energy
        layout, inputs, outputs = plain.result.fame.full_io_trace
        assert len(inputs) == len(outputs) == 0

        layout, inputs, outputs = traced.result.fame.full_io_trace
        assert inputs.shape == (traced.cycles, len(layout.inputs))
        assert outputs.shape == (traced.cycles, len(layout.outputs))
        assert inputs.dtype == layout.input_dtype
        assert outputs.dtype == layout.output_dtype
        # each snapshot's window is a slice of the whole-run trace
        for snapshot in traced.snapshots:
            assert snapshot.input_order == layout.inputs.fingerprint
            assert snapshot.output_order == layout.outputs.fingerprint
            window = slice(snapshot.cycle,
                           snapshot.cycle + snapshot.replay_length)
            assert np.array_equal(snapshot.inputs, inputs[window])
            assert np.array_equal(snapshot.outputs, outputs[window])


class TestStroberCompiler:
    def test_compile_produces_both_circuits(self):
        config = get_config("rocket_mini")
        compiler = StroberCompiler(config.build_circuit)
        output = compiler.compile()
        from repro.fame import is_fame1
        assert is_fame1(output.simulator_circuit)
        assert not is_fame1(output.target_circuit)
        assert output.scan_spec.reg_bits > 0
        assert output.channels["inputs"]

    def test_scan_cost_model_positive(self):
        config = get_config("rocket_mini")
        output = StroberCompiler(config.build_circuit).compile()
        assert output.scan_spec.readout_cycles() > \
            output.scan_spec.readout_cycles(include_rams=False)

    def test_get_circuits_is_the_compile(self):
        output = get_circuits("rocket_mini")
        assert output is get_circuits("rocket_mini")
        assert output.simulator_circuit.scan_spec is output.scan_spec
        assert output.fingerprint == StroberCompiler(
            get_config("rocket_mini").build_circuit).pipeline_fingerprint()

    def test_every_call_reports_the_compile(self):
        """The compile ran once, and every run reports it: the FAME1
        transform and the scan spec both ran, neither was skipped."""
        for _ in range(2):
            run = run_strober("rocket_mini", "towers", sample_size=2,
                              replay_length=32, seed=1)
            report = run.timings["sim_pipeline"]
            assert report["pipeline"] == "strober-compile"
            assert [(p["name"], p["skipped"]) for p in report["passes"]] \
                == [("fame1", False), ("scan-spec", False)]
            assert {"strober-compile/fame1", "strober-compile/scan-spec"} \
                <= set(run.timings["passes"])

    def test_run_workload_rejects_a_plain_circuit(self):
        from repro.targets import soc
        plain = get_config("rocket_mini").build_circuit()
        with pytest.raises(ValueError, match="StroberCompiler"):
            run_workload(plain, "ecall", backend="python")
        assert all(key[0] != id(plain) for key in soc._SIM_CACHE)

    def test_clear_caches_releases_compiled_simulators(self):
        """Rounds of compile -> run -> clear_caches leave no simulator
        (nor the circuit it holds) alive."""
        import gc
        import weakref
        from repro.targets import soc
        clear_caches()
        alive = []
        for _ in range(3):
            circuit = get_circuits("rocket_mini").simulator_circuit
            alive.append(weakref.ref(circuit))
            result = run_workload(circuit, ALL_PROGRAMS["towers"](),
                                  max_cycles=500)
            assert result.cycles == 500
            del circuit, result
            clear_caches()
            gc.collect()
            assert not soc._SIM_CACHE
            assert [ref() for ref in alive] == [None] * len(alive)


class _Accumulator(Module):
    def build(self):
        valid = self.input("valid", 1)
        a = self.input("a", 8)
        b = self.input("b", 8)
        acc = self.reg("acc", 16)
        with self.when(valid):
            acc <<= (acc + (a ^ b).pad(16)).trunc(16)
        self.output("acc", 16, acc)


class _Stream(Endpoint):
    def __init__(self, seed):
        self.seed = seed
        self.reset()

    def reset(self):
        self._rng = random.Random(self.seed)

    def tick(self, outputs):
        rng = self._rng
        return {"valid": int(rng.random() < 0.7),
                "a": rng.getrandbits(8), "b": rng.getrandbits(8)}


def _accumulator():
    return Design("accumulator",
                  lambda: elaborate(_Accumulator(), name="acc"),
                  {"stream": lambda seed=7: [_Stream(seed)]})


_KNOBS = dict(sample_size=24, replay_length=16, max_cycles=1200, seed=2)


class TestCustomDesign:
    """A design that is not a SoC runs through the one run_strober
    entry, with everything that entry adds."""

    def test_matches_the_hand_wired_flow(self):
        design = _accumulator()
        run = run_strober(design, "stream", **_KNOBS)
        compiled = StroberCompiler(design.build_circuit).compile()
        fame = Fame1Simulator(compiled.simulator_circuit, [_Stream(7)],
                              sample_size=24, replay_length=16, seed=2)
        fame.run(max_cycles=1200)
        replays = ReplayEngine(compiled.target_circuit).replay_all(
            fame.snapshots)
        energy = estimate_energy(replays,
                                 total_cycles=fame.stats.target_cycles,
                                 replay_length=16, workload="stream",
                                 design="accumulator")
        assert run.energy == energy
        assert list(run.energy.breakdown) == list(energy.breakdown)
        assert run.design == run.energy.design == "accumulator"
        assert run.energy.cpi == run.energy.epi_nj == float("inf")
        assert all(r.mismatches == 0 for r in run.replays)

    def test_journal_resumes_with_the_same_estimate(self, tmp_path):
        from repro.robust.journal import TYPE_SIM, read_journal
        design = _accumulator()
        path = str(tmp_path / "run.journal")
        fresh = run_strober(design, "stream", journal=path, **_KNOBS)
        assert not fresh.timings["resumed_sim"]
        sims = [obj for rtype, obj in read_journal(path)
                if rtype == TYPE_SIM]
        assert sims == [{"cycles": 1200, "instret": 0, "exit_code": 0,
                         "dram_counters": None,
                         "n_snapshots": len(fresh.snapshots)}]
        resumed = run_strober(design, "stream", journal=path, **_KNOBS)
        assert resumed.timings["resumed_sim"]
        assert resumed.energy == fresh.energy

    def test_target_rel_error_stops_early(self):
        run = run_strober(_accumulator(), "stream", target_rel_error=0.5,
                          **_KNOBS)
        assert run.sampling["early_stop"], run.sampling
        assert len(run.replays) < len(run.snapshots)

    def test_two_workers_match_one(self):
        design = _accumulator()
        one = run_strober(design, "stream", batch_lanes=8, **_KNOBS)
        two = run_strober(design, "stream", batch_lanes=8, workers=2,
                          **_KNOBS)
        assert two.health.workers == 2
        assert two.health.completed_parallel == len(two.snapshots)
        assert two.energy == one.energy

    def test_unknown_workload_lists_the_known_names(self):
        with pytest.raises(ValueError, match=r"known: \['stream'\]"):
            run_strober(_accumulator(), "towers")

    def test_clear_caches_releases_the_compiled_design(self):
        import gc
        import weakref
        clear_caches()
        design = _accumulator()
        run = run_strober(design, "stream", sample_size=4,
                          replay_length=16, max_cycles=200)
        alive = [weakref.ref(design), weakref.ref(get_circuits(design)),
                 weakref.ref(run.engine)]
        del design, run
        clear_caches()
        gc.collect()
        assert [ref() for ref in alive] == [None] * len(alive)


class TestPerfModel:
    def test_paper_worked_example(self):
        """Section IV-E: 100B cycles, n=100, L=1000 -> ~9.4 hours.

        The paper's arithmetic sums Trun + Tsample + Treplay = 33703 s
        (it drops Tload and TFPGAsyn from its own formula); we match
        that quantity within 2%.
        """
        model = strober_time(100e9, 100, 1000, PAPER_PARAMS)
        assert model.t_run_s == pytest.approx(27778, rel=1e-3)
        assert model.t_sample_s == pytest.approx(3592, rel=1e-2)
        assert model.t_replay_s == pytest.approx(2333, rel=2e-2)
        paper_sum = model.t_run_s + model.t_sample_s + model.t_replay_s
        assert paper_sum / 3600 == pytest.approx(9.4, abs=0.2)

    def test_paper_baselines(self):
        """3.86 days of software simulation; 264 years of gate-level."""
        assert uarch_sim_time(100e9) / 86400 == pytest.approx(3.86,
                                                              abs=0.05)
        assert gate_sim_time(100e9) / (86400 * 365) == pytest.approx(
            264, rel=0.01)

    def test_speedup_orders_of_magnitude(self):
        from repro.core import speedup_over_uarch, speedup_over_gate_sim
        assert speedup_over_uarch(100e9, 100, 1000) > 8
        assert speedup_over_gate_sim(100e9, 100, 1000) > 1e5


class TestGrouping:
    def test_soc_grouping_categories(self):
        assert soc_grouping("icache.tags") == "L1 I-cache"
        assert soc_grouping("dcache.data") == "D-cache meta+data"
        assert soc_grouping("dcache.state") == "D-cache control"
        assert soc_grouping("core.iw3_v") == "Issue Logic"
        assert soc_grouping("core.rob_v_7") == "ROB"
        assert soc_grouping("core.fpu_mul.p1") == "FPU"
        assert soc_grouping("core.map_11") == "Rename + Decode"
        assert soc_grouping("core.lsq2_sa") == "LSU"
        assert soc_grouping("core.regfile") == "Register File"
        assert soc_grouping("") == "Uncore"


class TestEnergyEstimate:
    def test_breakdown_order_independent_of_hash_seed(self):
        # the breakdown lists groups in first-seen order over the
        # replays, never in an order that follows string hashing
        code = (
            "from types import SimpleNamespace as NS\n"
            "from repro.core.energy import estimate_energy\n"
            "names = ['ROB', 'FPU', 'LSU', 'Uncore', 'L1 I-cache',\n"
            "         'Issue Logic', 'Register File', 'Clock']\n"
            "replays = [NS(power=NS(total_mw=1.0 + i, by_group={\n"
            "    g: 1e-3 * (i + j) for j, g in enumerate(names[i:])}))\n"
            "    for i in range(4)]\n"
            "print(list(estimate_energy(replays, 1024, 128).breakdown))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        orders = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
                env.get("PYTHONPATH", "")
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True,
                                 check=True)
            orders.append(out.stdout.strip())
        assert orders[0] == orders[1] == str(
            ["ROB", "FPU", "LSU", "Uncore", "L1 I-cache", "Issue Logic",
             "Register File", "Clock"])
