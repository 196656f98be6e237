"""Bit-parallel batched snapshot replay: lane-for-lane golden
equivalence with the one-lane serial path, mismatch blame, worker-pool
composition, and the persisted levelized schedule
(repro.core.replay.replay_batch / replay_all(batch_lanes=...),
repro.gatelevel.BatchedGateLevelSimulator)."""

import copy
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import run_strober
from repro.core.replay import (
    ReplayEngine, ReplayError, build_asic_flow, plan_replay_batches,
)
from repro.gatelevel import (
    BatchedGateLevelSimulator, GateLevelSimulator, MAX_LANES,
    pack_lane_words, synthesize,
)
from repro.hdl import Module, elaborate
from repro.parallel import cache_stats, reset_cache_stats


@pytest.fixture(scope="module")
def towers_run():
    return run_strober("rocket_mini", "towers", sample_size=8,
                       replay_length=32, backend="auto", seed=3)


@pytest.fixture(scope="module")
def serial_keys(towers_run):
    return [_power_key(r)
            for r in towers_run.engine.replay_all(towers_run.snapshots,
                                                  workers=1, batch_lanes=1)]


def _power_key(result):
    return (result.snapshot_cycle, result.cycles, result.mismatches,
            result.load_commands, result.power.total_w,
            result.power.switching_w, result.power.clock_w,
            result.power.sram_dynamic_w, result.power.leakage_w,
            tuple(sorted(result.power.by_group.items())))


def _fake_snaps(trace_lengths):
    return [SimpleNamespace(input_trace=[{}] * n) for n in trace_lengths]


class TestMakeBatches:
    def test_consecutive_with_ragged_tail(self):
        batches = plan_replay_batches(_fake_snaps([32] * 10), 4)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_split_on_trace_length_change(self):
        batches = plan_replay_batches(_fake_snaps([32, 32, 16, 16, 32]), 8)
        assert batches == [[0, 1], [2, 3], [4]]

    def test_lane_bounds(self):
        with pytest.raises(ValueError):
            plan_replay_batches(_fake_snaps([32]), 0)
        with pytest.raises(ValueError):
            plan_replay_batches(_fake_snaps([32]), MAX_LANES + 1)

    def test_ramp_doubles_up_to_the_lane_limit(self):
        batches = plan_replay_batches(_fake_snaps([32] * 20), 8, ramp=2)
        assert [len(b) for b in batches] == [2, 4, 8, 6]
        assert [i for b in batches for i in b] == list(range(20))

    def test_pack_lane_words_round_trip(self):
        values = [5, 0, 7, 2, 63]
        words = pack_lane_words(values, 6)
        assert words.dtype == np.uint64
        for lane, value in enumerate(values):
            rebuilt = sum(((int(w) >> lane) & 1) << bit
                          for bit, w in enumerate(words))
            assert rebuilt == value


class TestGoldenEquivalence:
    """Batched replay must be bit-identical to the scalar path: same
    toggles, same SRAM counts, same power to the last float."""

    @pytest.mark.parametrize("lanes", [7, MAX_LANES])
    def test_replay_all_matches_serial(self, towers_run, serial_keys,
                                       lanes):
        # 8 snapshots under a 7-lane limit = one full + one ragged
        # batch; under 64 lanes = one ragged batch using 8 of 64 lanes.
        results = towers_run.engine.replay_all(
            towers_run.snapshots, workers=1, batch_lanes=lanes)
        assert [_power_key(r) for r in results] == serial_keys

    def test_replay_batch_direct(self, towers_run, serial_keys):
        results = towers_run.engine.replay_batch(
            list(towers_run.snapshots)[:5])
        assert [_power_key(r) for r in results] == serial_keys[:5]

    def test_retimed_warmup_is_exercised(self, towers_run):
        # rocket_mini carries a retimed multiplier pipeline, so the
        # equivalence above covers the per-lane history warm-up path.
        assert towers_run.engine.flow.name_map.retimed

    def test_boom_equivalence(self):
        run = run_strober("boom-1w_mini", "towers", sample_size=4,
                          replay_length=32, backend="auto", seed=3)
        serial = [_power_key(r)
                  for r in run.engine.replay_all(run.snapshots, workers=1)]
        batched = run.engine.replay_all(run.snapshots, workers=1,
                                        batch_lanes=4)
        assert [_power_key(r) for r in batched] == serial


class TestMismatchBlame:
    def _poisoned(self, towers_run, lane):
        snaps = list(towers_run.snapshots)[:6]
        bad = copy.deepcopy(snaps[lane])
        bad.output_trace[5] ^= 1     # bit 0 of every output, cycle 5
        # unseal so the corruption reaches the replay comparison itself
        bad.checksum = None
        snaps[lane] = bad
        return snaps

    def test_strict_blames_the_guilty_lane(self, towers_run):
        snaps = self._poisoned(towers_run, 3)
        with pytest.raises(ReplayError, match=r"batch lane 3"):
            towers_run.engine.replay_batch(snaps, strict=True)
        with pytest.raises(
                ReplayError,
                match=f"snapshot cycle {snaps[3].cycle}"):
            towers_run.engine.replay_batch(snaps, strict=True)

    def test_non_strict_counts_only_that_lane(self, towers_run,
                                              serial_keys):
        snaps = self._poisoned(towers_run, 3)
        results = towers_run.engine.replay_batch(snaps, strict=False)
        assert results[3].mismatches >= 1
        for lane in (0, 1, 2, 4, 5):
            assert results[lane].mismatches == 0
            assert _power_key(results[lane]) == serial_keys[lane]


class TestWorkerComposition:
    def test_batched_pool_is_bit_identical(self, towers_run, serial_keys):
        engine = towers_run.engine
        results = engine.replay_all(towers_run.snapshots, workers=2,
                                    batch_lanes=4)
        assert [_power_key(r) for r in results] == serial_keys
        assert engine.last_health is not None
        assert engine.last_health.healthy
        assert engine.last_health.batch_lanes == 4

    def test_bad_lane_count_rejected(self, towers_run):
        with pytest.raises(ValueError):
            towers_run.engine.replay_all(towers_run.snapshots,
                                         batch_lanes=MAX_LANES + 1)


class TestRunStroberIntegration:
    def test_batch_lanes_preserves_energy(self):
        scalar = run_strober("rocket_mini", "towers", sample_size=4,
                             replay_length=32, backend="auto", seed=3,
                             batch_lanes=1)
        batched = run_strober("rocket_mini", "towers", sample_size=4,
                              replay_length=32, backend="auto", seed=3)
        assert batched.timings["batch_lanes"] == MAX_LANES
        assert scalar.timings["batch_lanes"] == 1
        assert batched.energy.power.mean == scalar.energy.power.mean
        assert batched.energy.epi_nj == scalar.energy.epi_nj
        assert batched.energy.breakdown == scalar.energy.breakdown

    def test_batch_lanes_journal_resume(self, tmp_path):
        journal = str(tmp_path / "run.journal")
        first = run_strober("rocket_mini", "towers", sample_size=4,
                            replay_length=32, backend="auto", seed=3,
                            batch_lanes=4, journal=journal)
        again = run_strober("rocket_mini", "towers", sample_size=4,
                            replay_length=32, backend="auto", seed=3,
                            batch_lanes=4, journal=journal)
        assert again.timings["resumed_sim"]
        assert again.timings["resumed_replays"] == len(first.snapshots)
        assert again.energy.power.mean == first.energy.power.mean


class _SchedDesign(Module):
    def build(self):
        a = self.input("a", 8)
        b = self.input("b", 8)
        s1 = self.reg("s1", 9)
        s1 <<= a + b
        self.output("out", 9, s1)


class TestScheduleCache:
    def test_second_engine_reuses_levelization(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        flow = build_asic_flow(elaborate(_SchedDesign()), use_cache=True)
        assert flow.fingerprint
        ReplayEngine.from_flow(flow)          # builds + stores schedule
        reset_cache_stats()
        ReplayEngine.from_flow(flow)          # must hit the disk cache
        stats = cache_stats()
        assert stats["hits"] >= 1
        assert stats["sched_seconds_saved"] > 0.0


class _LaneDesign(Module):
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


class TestBatchedSimulatorFullWidth:
    def test_64_lanes_match_64_scalar_sims(self):
        circuit = elaborate(_LaneDesign())
        netlist, _hints = synthesize(circuit)
        rng = random.Random(11)
        batched = BatchedGateLevelSimulator(netlist, lanes=MAX_LANES)
        scalars = [GateLevelSimulator(netlist) for _ in range(MAX_LANES)]
        for _cycle in range(24):
            d = [rng.randrange(256) for _ in range(MAX_LANES)]
            we = [rng.randrange(2) for _ in range(MAX_LANES)]
            batched.poke_lanes("d", d)
            batched.poke_lanes("we", we)
            for lane, sim in enumerate(scalars):
                sim.poke("d", d[lane])
                sim.poke("we", we[lane])
            batched.step()
            for sim in scalars:
                sim.step()
            for lane, sim in enumerate(scalars):
                assert batched.peek("acc", lane=lane) == sim.peek("acc")
                assert batched.peek("peek", lane=lane) == sim.peek("peek")
        for lane, sim in enumerate(scalars):
            ref = sim.activity()
            got = batched.activity(lane)
            assert got["cycles"] == ref["cycles"]
            assert np.array_equal(got["toggles"], ref["toggles"])
            assert got["sram_reads"] == ref["sram_reads"]
            assert got["sram_writes"] == ref["sram_writes"]
