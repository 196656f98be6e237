"""Tests for the repro.parallel layer: worker-pool replay, the
content-addressed artifact cache, circuit fingerprints, and the pickle
round-trips that make both possible."""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    run_strober, get_circuits, get_replay_engine, clear_caches,
)
from repro.core.replay import ReplayEngine, ReplayError
from repro.hdl import Module, elaborate, circuit_fingerprint
from repro.gatelevel import GateLevelSimulator
from repro.parallel import ArtifactCache, CancelToken
from repro.sim import RTLSimulator


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


class TestParallelReplay:
    def test_parallel_matches_serial_bit_identically(self, towers_run):
        engine = towers_run.engine
        snaps = list(towers_run.snapshots)
        assert len(snaps) == 8
        serial = engine.replay_all(snaps, workers=1)
        parallel = engine.replay_all(snaps, workers=4)
        assert [_power_key(r) for r in serial] == \
            [_power_key(r) for r in parallel]

    def test_workers_none_uses_cpu_count(self, towers_run):
        engine = towers_run.engine
        one = engine.replay_all(towers_run.snapshots[:2], workers=None)
        assert len(one) == 2

    def test_strict_mismatch_propagates_from_workers(self, towers_run):
        engine = towers_run.engine
        snaps = list(towers_run.snapshots)
        bad = copy.deepcopy(snaps[1])
        bad.output_trace[0] ^= 1      # bit 0 of every output, cycle 0
        # unseal so the corruption reaches the strict replay comparison
        # (a sealed snapshot is rejected earlier by its checksum —
        # covered in tests/test_robust_faultinject.py)
        bad.checksum = None
        with pytest.raises(ReplayError):
            engine.replay_all([snaps[0], bad, snaps[2]], workers=2)

    @staticmethod
    def _unpicklable(engine):
        return ReplayEngine.from_flow(
            engine.flow, port_names=engine._port_names,
            grouping=lambda origin: "all", freq_hz=engine.freq_hz)

    def test_unpicklable_grouping_falls_back_to_serial(self, towers_run):
        fancy = self._unpicklable(towers_run.engine)
        snaps = list(towers_run.snapshots)[:2]
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = fancy.replay_all(snaps, workers=2)
        assert len(results) == 2
        assert fancy.last_health is None
        # "(io)" is the driverless-net bucket power analysis adds itself
        assert set(results[0].power.by_group) <= {"all", "(io)"}

    def test_unpicklable_fallback_keeps_the_ramped_plan(self, towers_run,
                                                        monkeypatch):
        """The in-process fallback replays the batches the stream
        planned, ramp included, not a re-planned full-width set."""
        fancy = self._unpicklable(towers_run.engine)
        snaps = list(towers_run.snapshots)
        sizes = []
        replay_batch = ReplayEngine.replay_batch

        def recording(self, snapshots, strict=True):
            sizes.append(len(snapshots))
            return replay_batch(self, snapshots, strict=strict)

        monkeypatch.setattr(ReplayEngine, "replay_batch", recording)
        serial = list(fancy.replay_stream(snaps, workers=1,
                                          cancel=CancelToken(), ramp=1))
        serial_sizes, sizes[:] = list(sizes), []
        with pytest.warns(RuntimeWarning, match="not picklable"):
            pooled = list(fancy.replay_stream(snaps, workers=2,
                                              cancel=CancelToken(), ramp=1))
        assert serial_sizes == [1, 2, 4, 1]
        assert sizes == serial_sizes
        assert [i for i, _ in pooled] == [i for i, _ in serial]
        assert [_power_key(r) for _, r in pooled] == \
            [_power_key(r) for _, r in serial]

    def test_empty_snapshot_list(self, towers_run):
        assert towers_run.engine.replay_all([], workers=4) == []

    def test_engine_from_flow_replays_without_circuit(self, towers_run):
        engine = towers_run.engine
        rebuilt = ReplayEngine.from_flow(
            pickle.loads(pickle.dumps(engine.flow)),
            grouping=engine.grouping, freq_hz=engine.freq_hz)
        snap = towers_run.snapshots[0]
        assert _power_key(rebuilt.replay(snap)) == \
            _power_key(engine.replay(snap))


class TestPickleRoundTrips:
    def test_netlist_round_trip(self, towers_run):
        netlist = towers_run.engine.flow.netlist
        clone = pickle.loads(pickle.dumps(netlist))
        assert clone.stats() == netlist.stats()
        assert clone.inputs == netlist.inputs
        assert clone.outputs == netlist.outputs
        assert clone.preserved_nets == netlist.preserved_nets
        # behavioral equivalence: both simulate identically from reset
        a, b = GateLevelSimulator(netlist), GateLevelSimulator(clone)
        for step in range(4):
            for name, nets in netlist.inputs.items():
                a.poke(name, step + 1)
                b.poke(name, step + 1)
            a.step()
            b.step()
        assert a.peek_all() == b.peek_all()

    def test_name_map_round_trip(self, towers_run):
        name_map = towers_run.engine.flow.name_map
        clone = pickle.loads(pickle.dumps(name_map))
        state = towers_run.snapshots[0].state
        assert clone.load_commands(state) == name_map.load_commands(state)
        assert len(clone.points) == len(name_map.points)
        assert clone.retimed == name_map.retimed

    def test_placement_round_trip(self, towers_run):
        import numpy as np
        placement = towers_run.engine.flow.placement
        clone = pickle.loads(pickle.dumps(placement))
        assert clone.floorplan_text() == placement.floorplan_text()
        assert np.array_equal(clone.net_wire_cap_ff,
                              placement.net_wire_cap_ff)
        assert clone.total_area_um2 == placement.total_area_um2

    def test_snapshot_round_trip(self, towers_run):
        snap = towers_run.snapshots[0]
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.cycle == snap.cycle
        assert clone.state.reg_order == snap.state.reg_order
        assert clone.state.reg_dict() == snap.state.reg_dict()
        assert list(clone.state.mems) == list(snap.state.mems)
        for path, words in snap.state.mems.items():
            assert clone.state.mems[path].dtype == words.dtype
            assert np.array_equal(clone.state.mems[path], words)
        assert (clone.input_order, clone.output_order) == \
            (snap.input_order, snap.output_order)
        assert np.array_equal(clone.input_trace, snap.input_trace)
        assert np.array_equal(clone.output_trace, snap.output_trace)
        assert clone.__getstate__()[-1] is None
        clone.validate()


class TestEngineCache:
    def test_engine_cache_keyed_by_frequency(self):
        """Regression: a second call with a different freq_hz used to
        return the first engine with the stale frequency."""
        slow = get_replay_engine("rocket_mini", freq_hz=1e9)
        fast = get_replay_engine("rocket_mini", freq_hz=2e9)
        assert slow is not fast
        assert slow.freq_hz == 1e9
        assert fast.freq_hz == 2e9
        assert get_replay_engine("rocket_mini", freq_hz=1e9) is slow

    def test_clear_caches_empties_memory_caches(self):
        get_replay_engine("rocket_mini")
        from repro.core import flow as flow_mod
        assert flow_mod._ENGINE_CACHE and flow_mod._CIRCUIT_CACHE
        clear_caches()
        assert not flow_mod._ENGINE_CACHE
        assert not flow_mod._CIRCUIT_CACHE


class _Pipeline(Module):
    def build(self):
        a = self.input("a", 8)
        b = self.input("b", 8)
        s1 = self.reg("s1", 9)
        s1 <<= a + b
        self.output("out", 9, s1)


class TestFingerprint:
    def test_same_design_same_fingerprint(self):
        assert circuit_fingerprint(elaborate(_Pipeline())) == \
            circuit_fingerprint(elaborate(_Pipeline()))

    def test_config_circuits_fingerprint_stable(self):
        target = get_circuits("rocket_mini").target_circuit
        from repro.core.configs import get_config
        rebuilt = get_config("rocket_mini").build_circuit()
        assert circuit_fingerprint(target) == circuit_fingerprint(rebuilt)

    def test_fingerprint_stable_across_processes(self):
        target = get_circuits("rocket_mini").target_circuit
        code = (
            "from repro.core.configs import get_config\n"
            "from repro.hdl import circuit_fingerprint\n"
            "c = get_config('rocket_mini').build_circuit()\n"
            "print(circuit_fingerprint(c))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == circuit_fingerprint(target)

    def test_different_designs_differ(self):
        class Other(Module):
            def build(self):
                a = self.input("a", 8)
                b = self.input("b", 8)
                s1 = self.reg("s1", 9)
                s1 <<= (a - b).resize(9)
                self.output("out", 9, s1)

        assert circuit_fingerprint(elaborate(_Pipeline())) != \
            circuit_fingerprint(elaborate(Other(name="_Pipeline")))


class TestArtifactCache:
    def test_put_get_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.get("kind", "ab" * 20) is None
        cache.put("kind", "ab" * 20, {"x": 1})
        assert cache.get("kind", "ab" * 20) == {"x": 1}
        assert cache.has("kind", "ab" * 20)
        (count, size), = cache.stats().values()
        assert count == 1 and size > 0
        assert cache.clear() == 1
        assert cache.get("kind", "ab" * 20) is None

    def test_corrupt_entry_dropped(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        path = cache.put("kind", "cd" * 20, [1, 2, 3])
        with open(path, "wb") as f:
            f.write(b"not a pickle")
        assert cache.get("kind", "cd" * 20) is None
        assert not os.path.exists(path)

    def test_disable_env(self, tmp_path, monkeypatch):
        from repro.parallel import cache_enabled
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert not cache_enabled()
        monkeypatch.delenv("REPRO_CACHE_DISABLE")
        assert cache_enabled()

    def test_compile_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        circuit = elaborate(_Pipeline())
        cold = RTLSimulator(circuit, backend="python")
        warm = RTLSimulator(elaborate(_Pipeline()), backend="python")
        for sim in (cold, warm):
            sim.poke("a", 11)
            sim.poke("b", 22)
            sim.step()
            sim.eval()
        assert cold.peek("out") == warm.peek("out") == 33
        cache = ArtifactCache(str(tmp_path))
        assert cache.has("pysim", circuit_fingerprint(circuit))


class TestStartMethodSelection:
    def test_env_override_is_honored(self, monkeypatch):
        from repro.parallel.pool import _pick_context
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert _pick_context().get_start_method() == "spawn"

    def test_bogus_env_value_is_a_clear_error(self, monkeypatch):
        from repro.parallel.pool import _pick_context
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        with pytest.raises(ValueError, match="teleport"):
            _pick_context()

    def test_threaded_parent_avoids_fork(self, monkeypatch):
        """fork in a threaded parent can deadlock the child; the
        default must only pick fork while single-threaded."""
        from repro.parallel import pool as pool_mod
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        monkeypatch.setattr(pool_mod.threading, "active_count", lambda: 3)
        assert pool_mod._pick_context().get_start_method() != "fork"


class TestCacheCorruptionFlow:
    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_flow_entry_rebuilds_and_records_drop(
            self, tmp_path, monkeypatch, mode):
        """A damaged asicflow cache entry must be detected (CRC frame),
        dropped, counted, and transparently rebuilt by the flow."""
        from repro.core.replay import build_asic_flow, asic_pipeline
        from repro.parallel import cache_stats, reset_cache_stats
        from repro.passes import compose_cache_key
        from repro.robust import corrupt_cache_entry
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        circuit = elaborate(_Pipeline())
        cold = build_asic_flow(circuit, use_cache=True)
        assert not cold.cache_hit
        fingerprint = compose_cache_key(circuit_fingerprint(circuit),
                                        asic_pipeline().fingerprint())
        cache = ArtifactCache(str(tmp_path))
        assert cache.has("asicflow", fingerprint)

        corrupt_cache_entry(cache, "asicflow", fingerprint, mode=mode)
        reset_cache_stats()
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            rebuilt = build_asic_flow(circuit, use_cache=True)
        assert not rebuilt.cache_hit
        assert cache_stats()["corrupt_dropped"] == 1
        assert rebuilt.netlist.stats() == cold.netlist.stats()

        # the rebuild wrote a fresh, valid entry
        warm = build_asic_flow(circuit, use_cache=True)
        assert warm.cache_hit


class TestWarmFlowCache:
    def test_second_process_skips_asic_flow(self, tmp_path, monkeypatch):
        """Acceptance: with a warm artifact cache, a fresh invocation
        must not run synthesis/placement/matching at all and must report
        a near-zero flow time."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        cold = run_strober("rocket_mini", "vvadd",
                           workload_kwargs={"n": 16},
                           sample_size=4, replay_length=32,
                           backend="auto", seed=9)
        assert not cold.timings["flow_cache_hit"]

        # simulate a fresh process: drop every in-memory cache, then
        # prove the flow tools are never invoked on the warm path
        clear_caches()

        def boom(*args, **kwargs):
            raise AssertionError("synthesis ran despite a warm cache")

        monkeypatch.setattr("repro.gatelevel.synthesis.synthesize", boom)
        monkeypatch.setattr("repro.gatelevel.placement.place", boom)
        monkeypatch.setattr("repro.gatelevel.formal.match_netlist", boom)
        warm = run_strober("rocket_mini", "vvadd",
                           workload_kwargs={"n": 16},
                           sample_size=4, replay_length=32,
                           backend="auto", seed=9)
        assert warm.timings["flow_cache_hit"]
        assert warm.timings["flow_seconds"] < 2.0
        assert warm.energy.power.mean == cold.energy.power.mean
        clear_caches()
