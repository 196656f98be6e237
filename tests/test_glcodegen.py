"""The native batched gate-level replay backend: golden equivalence of
the netlist-agnostic C kernel with the interpreted evaluator, its one
host-wide artifact-cache entry (kind glso), the c -> interp fallback
ladder, and backend selection plumbing (repro.gatelevel.glcodegen,
run_strober(gl_backend=...))."""

import os
import random
import tempfile

import numpy as np
import pytest

from repro.core import run_strober
from repro.core.flow import clear_caches, get_replay_engine
from repro.gatelevel import (
    BatchedGateLevelSimulator, GateLevelSimulator, GateSimError, MAX_LANES,
    PackedStimulus, StimulusMismatch, build_kernel, build_schedule,
    kernel_cache_key, lane_ops, pack_lane_words, resolve_backend,
    synthesize, GLCodegenError,
)
from repro import native
from repro.gatelevel import glcodegen
from repro.hdl import Module, elaborate
from repro.obs import get_registry
from repro.parallel import cache_stats, reset_cache_stats
from repro.parallel.cache import get_cache
from repro.robust import RunJournal, read_journal, TYPE_META
from repro.sim.cbackend import compile_circuit_c

# honors $REPRO_CC, so a job pointing it at a nonexistent compiler
# exercises the fallback tests and skips the C-kernel ones
try:
    native.find_compiler()
    HAVE_CC = True
except native.ToolchainUnavailable:
    HAVE_CC = False
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")

BACKENDS = ["interp"] + (["c"] if HAVE_CC else [])

# rocket_mini/towers ground-truth power by group (W), sorted by group
FULL_TRACE_BY_GROUP = (
    "[('(io)', 0.00044436904774975913), "
    "('D-cache control', 0.00036012116798648185), "
    "('D-cache meta+data', 0.00018553666664539485), "
    "('FPU', 0.002417724373983866), "
    "('Fetch Unit', 0.000946716447978154), "
    "('Integer Unit', 0.004771349236256135), "
    "('L1 I-cache', 0.0009955542485688368), "
    "('Misc', 0.0014277278990522972), "
    "('Register File', 9.87705661156866e-05), "
    "('Uncore', 0.00010461824808371124)]")


@pytest.fixture(scope="module")
def towers_run():
    return run_strober("rocket_mini", "towers", sample_size=8,
                       replay_length=32, backend="auto", seed=3)


def _power_key(result):
    return (result.snapshot_cycle, result.cycles, result.mismatches,
            result.load_commands, result.power.total_w,
            result.power.switching_w, result.power.clock_w,
            result.power.sram_dynamic_w, result.power.leakage_w,
            tuple(sorted(result.power.by_group.items())))


class _KernelDesign(Module):
    """Registers, feedback, and a memory — per-lane divergence fodder."""

    def build(self):
        d = self.input("d", 8)
        we = self.input("we", 1)
        acc = self.reg("acc", 12)
        acc <<= (acc + d).trunc(12)
        scratch = self.mem("scratch", 16, 8)
        ptr = self.reg("ptr", 4)
        with self.when(we):
            self.mem_write(scratch, ptr, d)
            ptr <<= ptr + 1
        self.output("acc", 12, acc)
        self.output("peek", 8, scratch.read(ptr))


class _CounterDesign(Module):
    """A second, memory-free netlist."""

    def build(self):
        d = self.input("d", 4)
        count = self.reg("count", 6)
        count <<= (count + d).trunc(6)
        self.output("count", 6, count)


def _small_netlist(design=_KernelDesign):
    circuit = elaborate(design())
    netlist, _hints = synthesize(circuit)
    return netlist


def _drive(sims, cycles=24, seed=11):
    rng = random.Random(seed)
    lanes = sims[0].lanes
    for _cycle in range(cycles):
        d = [rng.randrange(256) for _ in range(lanes)]
        we = [rng.randrange(2) for _ in range(lanes)]
        for sim in sims:
            sim.poke_lanes("d", d)
            sim.poke_lanes("we", we)
            sim.step()


def _assert_identical(ref, sim, backend):
    assert np.array_equal(ref._values, sim._values), backend
    assert np.array_equal(ref.sram_reads, sim.sram_reads), backend
    assert np.array_equal(ref.sram_writes, sim.sram_writes), backend
    assert ref._plane_count == sim._plane_count, backend
    assert np.array_equal(ref._toggle_arena[:ref._plane_count],
                          sim._toggle_arena[:sim._plane_count]), backend


class TestResolveBackend:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_GL_BACKEND", "c")
        assert resolve_backend("interp") == "interp"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_GL_BACKEND", "c")
        assert resolve_backend(None) == "c"
        monkeypatch.delenv("REPRO_GL_BACKEND")
        assert resolve_backend(None) == "auto"

    def test_unknown_rejected(self):
        assert glcodegen.BACKENDS == ("interp", "c", "auto")
        for name in ("verilator", "compiled"):
            with pytest.raises(GLCodegenError):
                resolve_backend(name)


class TestSmallDesignEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("lanes", [5, MAX_LANES])
    def test_bit_identical_with_interp(self, backend, lanes):
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        ref = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                        schedule=schedule)
        sim = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                        schedule=schedule,
                                        backend=backend)
        assert sim.backend == backend
        _drive([ref, sim])
        _assert_identical(ref, sim, backend)
        for lane in range(lanes):
            got, want = sim.activity(lane), ref.activity(lane)
            assert got["cycles"] == want["cycles"]
            assert np.array_equal(got["toggles"], want["toggles"])
            assert got["sram_reads"] == want["sram_reads"]
            assert got["sram_writes"] == want["sram_writes"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_scalar_reference(self, backend):
        netlist = _small_netlist()
        rng = random.Random(5)
        sim = BatchedGateLevelSimulator(netlist, lanes=8,
                                        backend=backend)
        scalars = [GateLevelSimulator(netlist) for _ in range(8)]
        for _cycle in range(16):
            d = [rng.randrange(256) for _ in range(8)]
            we = [rng.randrange(2) for _ in range(8)]
            sim.poke_lanes("d", d)
            sim.poke_lanes("we", we)
            for lane, scalar in enumerate(scalars):
                scalar.poke("d", d[lane])
                scalar.poke("we", we[lane])
            sim.step()
            for scalar in scalars:
                scalar.step()
            for lane, scalar in enumerate(scalars):
                assert sim.peek("acc", lane=lane) == scalar.peek("acc")
                assert sim.peek("peek", lane=lane) == \
                    scalar.peek("peek")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_lane_view_matches_interp(self, backend):
        netlist = _small_netlist()
        ref = GateLevelSimulator(netlist)
        sim = GateLevelSimulator(netlist, backend=backend)
        assert sim.lanes == 1 and sim.backend == backend
        rng = random.Random(3)
        for _cycle in range(20):
            d, we = rng.randrange(256), rng.randrange(2)
            for s in (ref, sim):
                s.poke("d", d)
                s.poke("we", we)
                s.eval()
            assert sim.peek_all() == ref.peek_all()
            for s in (ref, sim):
                s.step()
        _assert_identical(ref, sim, backend)
        got, want = sim.activity(), ref.activity()
        assert np.array_equal(got["toggles"], want["toggles"])
        assert got["sram_reads"] == want["sram_reads"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forces_fall_back_bit_identically(self, backend):
        # forces re-assert after every level; state and activity must
        # stay identical before, during, and after a forced window
        netlist = _small_netlist()
        netlist.preserved_nets["probe"] = list(netlist.outputs["acc"])
        ref = BatchedGateLevelSimulator(netlist, lanes=4)
        sim = BatchedGateLevelSimulator(netlist, lanes=4,
                                        backend=backend)
        _drive([ref, sim], cycles=6, seed=2)
        for s in (ref, sim):
            s.force_label("probe", 0x5A)
        _drive([ref, sim], cycles=6, seed=3)
        for s in (ref, sim):
            s.release_all()
        _drive([ref, sim], cycles=6, seed=4)
        _assert_identical(ref, sim, backend)


class TestReplayEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rocket_towers_power_identical(self, towers_run, backend):
        engine = get_replay_engine("rocket_mini", gl_backend=backend)
        assert engine.gl_backend == backend
        want = [_power_key(r) for r in towers_run.replays]
        # full batches and a ragged 5-lane tail exercise both shapes
        for lanes in (len(towers_run.snapshots), 5):
            results = engine.replay_all(towers_run.snapshots,
                                        workers=1, batch_lanes=lanes)
            assert [_power_key(r) for r in results] == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_strober_energy_identical(self, towers_run, backend):
        run = run_strober("rocket_mini", "towers", sample_size=8,
                          replay_length=32, backend="auto", seed=3,
                          batch_lanes=8, gl_backend=backend)
        assert run.timings["gl_backend"] == backend
        assert run.energy.epi_nj == towers_run.energy.epi_nj
        assert [_power_key(r) for r in run.replays] == \
            [_power_key(r) for r in towers_run.replays]

    def test_boom_qsort_c_identical(self):
        runs = [run_strober("boom-1w_mini", "qsort", sample_size=4,
                            replay_length=32, seed=5, batch_lanes=4,
                            gl_backend=be)
                for be in ("interp", "c")]
        assert runs[0].energy.epi_nj == runs[1].energy.epi_nj
        assert [_power_key(r) for r in runs[0].replays] == \
            [_power_key(r) for r in runs[1].replays]

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_GL_BACKEND", "c")
        clear_caches()
        try:
            engine = get_replay_engine("rocket_mini")
            assert engine.gl_backend == "c"
        finally:
            clear_caches()

    def test_journal_resumes_across_backends(self, towers_run,
                                             tmp_path):
        journal = str(tmp_path / "run.journal")
        first = run_strober("rocket_mini", "towers", sample_size=8,
                            replay_length=32, backend="auto", seed=3,
                            batch_lanes=8, journal=journal,
                            gl_backend="interp")
        resumed = run_strober("rocket_mini", "towers", sample_size=8,
                              replay_length=32, backend="auto", seed=3,
                              batch_lanes=8, journal=journal,
                              gl_backend="c")
        assert resumed.result.resumed
        assert resumed.energy.epi_nj == first.energy.epi_nj

    def test_compiled_backend_journal_resumes_under_c(self, towers_run,
                                                      tmp_path):
        # gl_backend is an advisory journal key, so a journal written
        # under the since-removed "compiled" backend still resumes
        journal = str(tmp_path / "run.journal")
        first = run_strober("rocket_mini", "towers", sample_size=8,
                            replay_length=32, backend="auto", seed=3,
                            batch_lanes=8, journal=journal,
                            gl_backend="interp")
        legacy = str(tmp_path / "legacy.journal")
        with RunJournal(legacy) as out:
            for rtype, obj in read_journal(journal):
                if rtype == TYPE_META:
                    obj = {**obj, "gl_backend": "compiled"}
                out.append(rtype, obj)
        resumed = run_strober("rocket_mini", "towers", sample_size=8,
                              replay_length=32, backend="auto", seed=3,
                              batch_lanes=8, journal=legacy,
                              gl_backend="c")
        assert resumed.result.resumed
        assert resumed.timings["resumed_replays"] == len(first.snapshots)
        assert resumed.energy.epi_nj == first.energy.epi_nj


class TestArtifactCache:
    @needs_cc
    def test_c_kernel_cache_hit_skips_compile(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        cold = build_kernel("c")
        assert cold.backend == "c" and not cold.from_cache
        reset_cache_stats()
        warm = build_kernel("c")
        assert warm.backend == "c" and warm.from_cache
        assert warm.compile_seconds < cold.compile_seconds
        assert get_registry().value("cache.glso.hits") >= 1
        # the reloaded kernel must actually evaluate
        ref = BatchedGateLevelSimulator(netlist, lanes=6,
                                        schedule=schedule)
        sim = BatchedGateLevelSimulator(netlist, lanes=6,
                                        schedule=schedule, kernel=warm)
        _drive([ref, sim], cycles=8)
        _assert_identical(ref, sim, "c-from-cache")

    @needs_cc
    def test_netlists_share_one_glso_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        small, counter = _small_netlist(), _small_netlist(_CounterDesign)
        first = build_kernel("c")
        second = build_kernel("c")
        assert not first.from_cache and second.from_cache
        entries = [name for root, _dirs, files in os.walk(tmp_path)
                   if "glso" in root.split(os.sep) for name in files]
        assert len(entries) == 1
        # one loaded kernel serves both netlists side by side
        for netlist in (small, counter):
            schedule = build_schedule(netlist)
            ref = BatchedGateLevelSimulator(netlist, lanes=3,
                                            schedule=schedule)
            sim = BatchedGateLevelSimulator(netlist, lanes=3,
                                            schedule=schedule,
                                            kernel=second)
            for s in (ref, sim):
                s.poke_lanes("d", [1, 2, 3])
                s.step(5)
            _assert_identical(ref, sim, "shared")

    @needs_cc
    def test_kernel_source_change_changes_key(self, tmp_path,
                                              monkeypatch):
        # editing gl_kernel.c must land in a different cache slot — a
        # rebuild, never a stale .so load of the old source
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        netlist = _small_netlist()
        build_kernel("c")
        key = kernel_cache_key()
        edited = glcodegen.kernel_source() + "\n/* edited */\n"
        monkeypatch.setattr(glcodegen, "kernel_source", lambda: edited)
        assert kernel_cache_key() != key
        rebuilt = build_kernel("c")
        assert rebuilt.backend == "c" and not rebuilt.from_cache
        assert build_kernel("c").from_cache

    @needs_cc
    def test_stale_so_regenerates_with_counter(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        build_kernel("c")
        key = kernel_cache_key()
        get_cache().put("glso", key,
                        {"so": b"\x7fELF not actually a shared object"})
        native.reset_warnings()
        before = get_registry().value("cache.glso.stale") or 0
        with pytest.warns(RuntimeWarning, match="failed to load"):
            kernel = build_kernel("c")
        assert kernel.backend == "c" and not kernel.from_cache
        assert get_registry().value("cache.glso.stale") == before + 1
        assert cache_stats()["glso.stale"] >= 1
        sim = BatchedGateLevelSimulator(netlist, lanes=4,
                                        schedule=schedule,
                                        kernel=kernel)
        sim.step(3)     # rebuilt kernel evaluates fine

    @needs_cc
    def test_native_loads_leave_no_temp_dirs(self, tmp_path,
                                             monkeypatch):
        # both the GL kernel and the RTL C simulator delete their
        # scratch directory once the shared object is loaded, on the
        # compile path and on the cache-load path alike
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        netlist = _small_netlist()
        circuit = elaborate(_KernelDesign())
        for _attempt in ("cold", "warm"):
            build_kernel("c")
            try:
                compile_circuit_c(circuit)
            except native.ToolchainUnavailable:
                pass
        assert list(scratch.iterdir()) == []


class TestFallbackLadder:
    def test_no_cc_falls_back_to_interp(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        native.reset_warnings()
        before = get_registry().value("glcodegen.c_fallbacks") or 0
        with pytest.warns(RuntimeWarning, match="unavailable"):
            kernel = build_kernel("c", use_cache=False)
        assert kernel is None
        assert get_registry().value("glcodegen.c_fallbacks") == \
            before + 1
        sim = BatchedGateLevelSimulator(netlist, lanes=2,
                                        schedule=schedule, backend="c")
        assert sim.backend == "interp"

    def test_auto_degrades_silently(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        netlist = _small_netlist()
        native.reset_warnings()
        kernel = build_kernel("auto", use_cache=False)
        assert kernel is None
        assert not [w for w in recwarn
                    if "unavailable" in str(w.message)]

    def test_interp_requests_no_kernel(self):
        netlist = _small_netlist()
        assert build_kernel("interp") is None

    def test_wide_sram_rejected_by_schedule(self):
        # the HDL caps words at 64 bits, so widen the synthesized macro
        # by hand: no backend holds such words, and the schedule must
        # refuse the netlist rather than truncate them
        netlist = _small_netlist()
        netlist.srams[0].width = 72
        with pytest.raises(GateSimError, match="72 bits wide"):
            build_schedule(netlist)
        for backend in BACKENDS:
            with pytest.raises(GateSimError, match="72 bits wide"):
                BatchedGateLevelSimulator(netlist, lanes=3,
                                          backend=backend)


def _random_inputs(lanes, cycles=24, seed=11):
    """Per-cycle ``(d, we)`` lists of per-lane input values."""
    rng = random.Random(seed)
    return [([rng.randrange(256) for _ in range(lanes)],
             [rng.randrange(2) for _ in range(lanes)])
            for _ in range(cycles)]


def _whole_trace_stim(netlist, per_cycle, expected, force_window=None):
    """``per_cycle`` inputs and ``expected`` per-lane ``acc`` outputs
    as one PackedStimulus, built the way replay builds it: pokes and
    checks by :func:`lane_ops`, flat force segments for
    ``force_window`` = (lo, hi, value) on cycles [lo, hi)."""
    cycles, lanes = len(per_cycle), len(per_cycle[0][0])
    inputs = np.array(per_cycle, dtype=np.uint64).transpose(2, 0, 1)
    pokes, _, _ = lane_ops(inputs, [netlist.inputs["d"], netlist.inputs["we"]])
    outputs = np.array(expected, dtype=np.uint64).T[:, :, None]
    checks, check_cycle, _ = lane_ops(outputs, [netlist.outputs["acc"]])
    flat = {f"poke_{k}": v for k, v in pokes.items()}
    flat.update({f"check_{k}": v for k, v in checks.items()})
    if force_window is not None:
        lo, hi, value = force_window
        nets = np.array(netlist.preserved_nets["probe"], dtype=np.int64)
        mask = np.uint64((1 << lanes) - 1)
        vals = pack_lane_words([value] * lanes, len(nets)) & mask
        counts = np.array([len(nets) if lo <= t < hi else 0
                           for t in range(cycles)], dtype=np.int64)
        flat.update(
            force_counts=counts, force_off=np.cumsum(counts) - counts,
            force_nets=np.tile(nets, hi - lo),
            force_masks=np.full(len(nets) * (hi - lo), mask,
                                dtype=np.uint64),
            force_vals=np.tile(vals, hi - lo))
    return PackedStimulus.from_flat(
        cycles, flat, [(int(t), "acc") for t in check_cycle])


def _reference_run(netlist, schedule, lanes, per_cycle,
                   force_window=None):
    """The historical poke/eval/peek/step loop on the interpreter;
    returns the settled simulator and the per-cycle ``acc`` outputs."""
    sim = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                    schedule=schedule)
    expected = []
    for t, (d, we) in enumerate(per_cycle):
        if force_window is not None:
            lo, hi, value = force_window
            if t == lo:
                sim.force_label("probe", value)
            if t == hi:
                sim.release_all()
        sim.poke_lanes("d", d)
        sim.poke_lanes("we", we)
        sim.eval()
        expected.append([sim.peek("acc", lane=lane)
                         for lane in range(lanes)])
        sim.step()
    return sim, expected


class TestRunCycles:
    """Whole-trace ``run_cycles`` semantics: one call per batch must be
    bit-identical to the historical per-cycle loop on every backend —
    pokes, checks, mid-trace force segments, SRAM write-then-read in
    the same cycle (the design reads ``scratch`` at the write pointer),
    toggle planes, and the strict-mode stop point."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("lanes", [1, 5, MAX_LANES])
    def test_bit_identical_with_stepped_reference(self, backend, lanes):
        netlist = _small_netlist()
        netlist.preserved_nets["probe"] = list(netlist.outputs["acc"])
        schedule = build_schedule(netlist)
        window = (8, 16, 0x3C)
        per_cycle = _random_inputs(lanes)
        ref, expected = _reference_run(netlist, schedule, lanes,
                                       per_cycle, force_window=window)
        stim = _whole_trace_stim(netlist, per_cycle, expected,
                                 force_window=window)
        interp = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                           schedule=schedule)
        sim = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                        schedule=schedule,
                                        backend=backend)
        for s in (interp, sim):
            mismatches = s.run_cycles(stim=stim)
            assert not mismatches.any()
            assert s.cycles == len(per_cycle)
            _assert_identical(ref, s, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mismatch_counts_identical(self, backend):
        lanes = 5
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        per_cycle = _random_inputs(lanes, seed=7)
        _ref, expected = _reference_run(netlist, schedule, lanes,
                                        per_cycle)
        corrupt = {(5, 2), (12, 0), (12, 2), (20, 4)}
        expected = [[v ^ 1 if (t, lane) in corrupt else v
                     for lane, v in enumerate(vals)]
                    for t, vals in enumerate(expected)]
        stim = _whole_trace_stim(netlist, per_cycle, expected)
        want = [sum(1 for t, lane in corrupt if lane == i)
                for i in range(lanes)]
        interp = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                           schedule=schedule)
        sim = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                        schedule=schedule,
                                        backend=backend)
        assert interp.run_cycles(stim=stim).tolist() == want
        assert sim.run_cycles(stim=stim).tolist() == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_stop_identical(self, backend):
        # strict mode must stop at the same (cycle, op, lane) on every
        # backend, leaving the failing cycle settled but uncommitted
        lanes = 4
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        per_cycle = _random_inputs(lanes, seed=9)
        _ref, expected = _reference_run(netlist, schedule, lanes,
                                        per_cycle)
        expected[10] = [v ^ 1 if lane in (1, 3) else v
                        for lane, v in enumerate(expected[10])]
        stim = _whole_trace_stim(netlist, per_cycle, expected)
        stops = []
        for make_backend in ("interp", backend):
            sim = BatchedGateLevelSimulator(
                netlist, lanes=lanes, schedule=schedule,
                backend=make_backend)
            with pytest.raises(StimulusMismatch) as excinfo:
                sim.run_cycles(stim=stim, strict=True)
            exc = excinfo.value
            stops.append((exc.cycle, exc.name, exc.lane, sim.cycles))
        assert stops[0] == stops[1] == (10, "acc", 1, 10)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_step_phase_counters_accumulate(self, backend):
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        registry = get_registry()
        before_cycles = registry.value("glstep.cycles") or 0
        before_calls = registry.value("glstep.calls") or 0
        sim = BatchedGateLevelSimulator(netlist, lanes=8,
                                        schedule=schedule,
                                        backend=backend)
        sim.step(17)
        assert registry.value("glstep.cycles") == before_cycles + 17
        assert registry.value("glstep.calls") == before_calls + 1
        assert (registry.value("glstep.eval_seconds") or 0) > 0


def _poke_stim(netlist, per_cycle):
    """``per_cycle`` ``(d, we)`` inputs as a PackedStimulus of pokes."""
    inputs = np.array(per_cycle, dtype=np.uint64).transpose(2, 0, 1)
    pokes, _, _ = lane_ops(inputs,
                           [netlist.inputs["d"], netlist.inputs["we"]])
    return PackedStimulus.from_flat(
        len(per_cycle), {f"poke_{k}": v for k, v in pokes.items()})


def _assert_same_toggles(ref, sim):
    """:func:`_assert_identical` plus equal per-lane toggle counts."""
    _assert_identical(ref, sim, sim.backend)
    for lane in range(ref.lanes):
        assert np.array_equal(sim.lane_toggles(lane),
                              ref.lane_toggles(lane))


#: Cycles between two folds of the kernel's low counter planes.
FOLD_EVERY = (1 << glcodegen._LOW_PLANES) - 1


@needs_cc
class TestToggleCounterBoundaries:
    """The C kernel counts toggles in low planes that it folds into the
    wide planes every ``FOLD_EVERY`` cycles and before it returns; the
    interpreter ripple-adds every cycle.  Call lengths, splits, strict
    stops, partial lane masks, netlist tails, arena growth and quiet
    runs around those folds must leave identical counts."""

    def _pair(self, netlist, lanes):
        schedule = build_schedule(netlist)
        return [BatchedGateLevelSimulator(netlist, lanes=lanes,
                                          schedule=schedule,
                                          backend=backend)
                for backend in ("interp", "c")]

    @pytest.mark.parametrize("lanes", [5, MAX_LANES])
    @pytest.mark.parametrize("n_cycles", [1, 6, 7, 8, 15, 16, 131])
    def test_call_lengths(self, n_cycles, lanes):
        netlist = _small_netlist()
        stim = _poke_stim(netlist, _random_inputs(lanes, n_cycles, seed=1))
        interp, sim = self._pair(netlist, lanes)
        for s in (interp, sim):
            s.run_cycles(stim=stim)
        _assert_same_toggles(interp, sim)

    @pytest.mark.parametrize("split", [(1, 1), (7, 9), (20, 17), (15, 15)])
    def test_split_calls_equal_one_call(self, split):
        a, b = split
        netlist = _small_netlist()
        per_cycle = _random_inputs(MAX_LANES, a + b, seed=2)
        interp, whole = self._pair(netlist, MAX_LANES)
        _, parts = self._pair(netlist, MAX_LANES)
        for s in (interp, whole):
            s.run_cycles(stim=_poke_stim(netlist, per_cycle))
        parts.run_cycles(stim=_poke_stim(netlist, per_cycle[:a]))
        parts.run_cycles(stim=_poke_stim(netlist, per_cycle[a:]))
        _assert_same_toggles(interp, whole)
        _assert_same_toggles(whole, parts)

    def test_strict_stop_after_a_fold(self):
        lanes = 5
        stop = FOLD_EVERY + 3
        netlist = _small_netlist()
        schedule = build_schedule(netlist)
        per_cycle = _random_inputs(lanes, stop + 10, seed=4)
        _ref, expected = _reference_run(netlist, schedule, lanes,
                                        per_cycle)
        expected[stop] = [v ^ 1 if lane == 2 else v
                          for lane, v in enumerate(expected[stop])]
        stim = _whole_trace_stim(netlist, per_cycle, expected)
        interp, sim = self._pair(netlist, lanes)
        for s in (interp, sim):
            with pytest.raises(StimulusMismatch) as excinfo:
                s.run_cycles(stim=stim, strict=True)
            assert (excinfo.value.cycle, s.cycles) == (stop, stop)
        _assert_same_toggles(interp, sim)
        # the stop leaves the low planes folded and zeroed
        assert not sim._gl_low.any() and not sim._gl_dirty.any()

    @pytest.mark.parametrize("extra_nets", [0, 5])
    def test_netlist_tail(self, extra_nets):
        # 91 nets leave a 3-net tail block; 96 leave none
        netlist = _small_netlist()
        netlist.new_nets(extra_nets)
        assert (netlist.n_nets % 8 == 0) == (extra_nets == 5)
        stim = _poke_stim(netlist, _random_inputs(MAX_LANES, 40, seed=5))
        interp, sim = self._pair(netlist, MAX_LANES)
        for s in (interp, sim):
            s.run_cycles(stim=stim)
        _assert_same_toggles(interp, sim)
        # nets 88..90 (the tail block of 91 nets) do toggle
        assert interp._toggle_arena[:interp._plane_count, 88:91].any()

    def test_every_cycle_toggler_grows_the_arena(self):
        # acc += 1 flips acc's low bit every cycle: 40 toggles need six
        # planes, past the arena's initial four
        netlist = _small_netlist()
        stim = _poke_stim(netlist, [([1] * MAX_LANES, [0] * MAX_LANES)]
                          * 40)
        interp, sim = self._pair(netlist, MAX_LANES)
        assert sim._toggle_arena.shape[0] == 4
        for s in (interp, sim):
            s.run_cycles(stim=stim)
        _assert_same_toggles(interp, sim)
        # the first commit shows in the second cycle's diff: 39 toggles
        low_bit = netlist.outputs["acc"][0]
        assert sim.lane_toggles(0)[low_bit] == 39
        assert sim._plane_count == (39).bit_length() == 6
        assert sim._toggle_arena.shape[0] >= 6

    def test_quiet_run_adds_nothing(self):
        netlist = _small_netlist()
        interp, sim = self._pair(netlist, MAX_LANES)
        busy = _poke_stim(netlist, _random_inputs(MAX_LANES, 9, seed=6))
        quiet = _poke_stim(netlist, [([0] * MAX_LANES, [0] * MAX_LANES)]
                           * 4)
        for s in (interp, sim):
            s.run_cycles(stim=busy)
            s.run_cycles(stim=quiet)          # settle
        count = sim._plane_count
        settled = sim._toggle_arena[:count].copy()
        for s in (interp, sim):
            s.run_cycles(40)
        _assert_same_toggles(interp, sim)
        assert sim._plane_count == count
        assert np.array_equal(sim._toggle_arena[:count], settled)


class TestOneReplayPath:
    """Every replay goes through ``replay_batch``: the lane count and
    the backend change the speed, never a bit of the result."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("lanes", [1, 7, None])
    def test_power_identical_for_any_lanes(self, towers_run, backend,
                                           lanes):
        engine = get_replay_engine("rocket_mini", gl_backend=backend)
        results = engine.replay_all(towers_run.snapshots,
                                    batch_lanes=lanes)
        assert [_power_key(r) for r in results] == \
            [_power_key(r) for r in towers_run.replays]
        assert _power_key(engine.replay(towers_run.snapshots[2])) == \
            _power_key(towers_run.replays[2])

    def test_no_knob_run_takes_the_fast_path(self, towers_run):
        assert towers_run.timings["batch_lanes"] == MAX_LANES
        # auto resolves to the C kernel where a compiler exists
        want = "c" if HAVE_CC else "interp"
        if os.environ.get("REPRO_GL_BACKEND") == "interp":
            want = "interp"
        assert towers_run.timings["gl_backend"] == want
        # so does the RTL simulator's, to the Python evaluator
        assert towers_run.timings["rtl_backend"] == \
            ("c" if HAVE_CC else "python")

    def test_full_trace_identical_across_backends(self):
        """Every backend gives the pinned ground truth, so a shift that
        moves all of them alike still fails."""
        run = run_strober("rocket_mini", "towers", sample_size=8,
                          replay_length=32, seed=3, record_full_io=True)
        trace = run.result.fame.full_io_trace
        for backend in BACKENDS:
            engine = get_replay_engine("rocket_mini", gl_backend=backend)
            power, mismatches = engine.replay_full_trace(trace)
            assert mismatches == 0
            assert power.total_w == 0.01175248790241936
            assert power.switching_w == 0.008359069083417948
            assert repr(sorted(power.by_group.items())) == \
                FULL_TRACE_BY_GROUP


class TestKernelVersionResume:
    def test_journal_resumes_across_kernel_version(self, towers_run,
                                                   tmp_path,
                                                   monkeypatch):
        # a journal written under the old kernel source must resume
        # bit-identically under an edited one: the source keys the
        # artifact cache (forcing a rebuild), never the run key
        journal = str(tmp_path / "run.journal")
        partial = run_strober("rocket_mini", "towers", sample_size=8,
                              replay_length=32, backend="auto", seed=3,
                              batch_lanes=4, journal=journal,
                              gl_backend="c",
                              target_rel_error=1.0, min_sample=2,
                              max_sample=3)
        assert partial.sampling["replayed"] < 8
        edited = glcodegen.kernel_source() + "\n/* next version */\n"
        monkeypatch.setattr(glcodegen, "kernel_source", lambda: edited)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_caches()
        try:
            resumed = run_strober("rocket_mini", "towers",
                                  sample_size=8, replay_length=32,
                                  backend="auto", seed=3,
                                  batch_lanes=4, journal=journal,
                                  gl_backend="c")
        finally:
            clear_caches()
        assert resumed.result.resumed
        assert resumed.energy.epi_nj == towers_run.energy.epi_nj
        assert [_power_key(r) for r in resumed.replays] == \
            [_power_key(r) for r in towers_run.replays]
