"""Fault-injection harness: every deliberate fault must be *detected*
(checksum rejection, strict mismatch) or *recovered* (retry, rebuild,
truncate-and-warn) — never silently absorbed
(repro.robust.faultinject)."""

import copy
import os
import pickle

import pytest

from repro.core import run_strober
from repro.core.replay import ReplayError
from repro.parallel import ArtifactCache, cache_stats, reset_cache_stats
from repro.robust import (
    FaultPlan, FaultSpec, corrupt_cache_entry, corrupt_file,
    flip_snapshot_bit, run_campaign,
)
from repro.scan.snapshot import ReplayableSnapshot, SnapshotError


@pytest.fixture(scope="module")
def towers_run():
    return run_strober("rocket_mini", "towers", sample_size=6,
                       replay_length=32, backend="auto", seed=3)


class TestSnapshotBitFlips:
    def test_sealed_state_flip_fails_validation(self, towers_run):
        bad = copy.deepcopy(towers_run.snapshots[0])
        assert bad.checksum is not None
        detail = flip_snapshot_bit(bad, where="state")
        assert "register" in detail
        with pytest.raises(SnapshotError, match="integrity"):
            bad.validate()
        with pytest.raises(SnapshotError):
            towers_run.engine.replay(bad)

    def test_sealed_trace_flip_fails_validation(self, towers_run):
        bad = copy.deepcopy(towers_run.snapshots[0])
        flip_snapshot_bit(bad, where="trace")
        with pytest.raises(SnapshotError, match="integrity"):
            bad.validate()

    def test_unsealed_trace_flip_fails_strict_replay(self, towers_run):
        bad = copy.deepcopy(towers_run.snapshots[0])
        bad.checksum = None
        flip_snapshot_bit(bad, where="trace")
        bad.validate()       # no checksum: validation cannot see it...
        with pytest.raises(ReplayError, match="mismatch"):
            towers_run.engine.replay(bad, strict=True)

    def test_unsealed_trace_flip_counts_mismatches_lenient(self,
                                                           towers_run):
        bad = copy.deepcopy(towers_run.snapshots[0])
        bad.checksum = None
        flip_snapshot_bit(bad, where="trace")
        result = towers_run.engine.replay(bad, strict=False)
        assert result.mismatches >= 1

    def test_clean_snapshot_still_validates(self, towers_run):
        snapshot = towers_run.snapshots[0]
        assert snapshot.validate()


class TestSnapshotWireFormat:
    def test_pickle_preserves_checksum(self, towers_run):
        snapshot = towers_run.snapshots[0]
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.checksum == snapshot.checksum
        clone.validate()

    def test_v1_pickles_are_rejected(self, towers_run):
        snapshot = towers_run.snapshots[0]
        inputs, outputs = zip(*(snapshot.cycle_io(t)
                                for t in range(snapshot.recorded)))
        v1_state = ("v1", snapshot.cycle, snapshot.state,
                    snapshot.replay_length, list(inputs), list(outputs),
                    snapshot.perf_counters)
        clone = ReplayableSnapshot.__new__(ReplayableSnapshot)
        with pytest.raises(SnapshotError, match="'v1'"):
            clone.__setstate__(v1_state)

    def test_unknown_version_rejected_with_clear_error(self):
        clone = ReplayableSnapshot.__new__(ReplayableSnapshot)
        with pytest.raises(SnapshotError, match="unknown snapshot "
                                                "pickle version"):
            clone.__setstate__(("v99", 1, 2, 3, 4, 5, 6, 7))

    def test_garbage_state_rejected(self):
        clone = ReplayableSnapshot.__new__(ReplayableSnapshot)
        with pytest.raises(SnapshotError):
            clone.__setstate__((1, 2, 3))
        with pytest.raises(SnapshotError):
            clone.__setstate__("nonsense")


class TestCacheCorruption:
    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_entry_detected_dropped_rebuilt(self, tmp_path, mode):
        cache = ArtifactCache(str(tmp_path))
        key = "ab" * 20
        cache.put("kind", key, {"payload": list(range(64))})
        corrupt_cache_entry(cache, "kind", key, mode=mode)
        reset_cache_stats()
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get("kind", key) is None
        assert cache_stats()["corrupt_dropped"] == 1
        assert not cache.has("kind", key)
        # rebuild lands cleanly
        cache.put("kind", key, {"payload": list(range(64))})
        assert cache.get("kind", key) == {"payload": list(range(64))}

    def test_warning_fires_once_then_counts_silently(self, tmp_path):
        import warnings as warnings_mod
        cache = ArtifactCache(str(tmp_path))
        reset_cache_stats()
        for key in ("aa" * 20, "bb" * 20):
            cache.put("kind", key, [1])
            corrupt_file(cache._path("kind", key), mode="truncate")
        with pytest.warns(RuntimeWarning):
            cache.get("kind", "aa" * 20)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            cache.get("kind", "bb" * 20)    # counted, not re-warned
        assert cache_stats()["corrupt_dropped"] == 2

    def test_unwritable_root_counts_put_skips(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        cache = ArtifactCache(str(blocker / "sub"))
        reset_cache_stats()
        with pytest.warns(RuntimeWarning, match="skipped"):
            assert cache.put("kind", "cd" * 20, [1]) is None
        assert cache_stats()["put_skipped"] == 1


class TestWorkerFaultPlan:
    def test_plan_consumes_spec_budget(self, towers_run):
        plan = FaultPlan([FaultSpec("error", index=1, times=2)])
        snapshot = towers_run.snapshots[1]
        assert plan.pick(1, snapshot) is not None
        assert plan.pick(1, snapshot) is not None
        assert plan.pick(1, snapshot) is None       # budget exhausted
        assert plan.pick(0, snapshot) is None       # wrong index

    def test_wildcard_spec_matches_any_index(self, towers_run):
        plan = FaultPlan([FaultSpec("error", index=None, times=1)])
        assert plan.pick(4, towers_run.snapshots[0]) is not None
        assert plan.pick(4, towers_run.snapshots[0]) is None


class TestCampaign:
    def test_standard_campaign_all_detected_or_recovered(self,
                                                         towers_run,
                                                         monkeypatch):
        """Acceptance: the full battery — worker kill, worker stall,
        transient error, worker death in bootstrap, snapshot/trace
        bit-flips, cache corruption, journal corruption — every fault
        detected or recovered."""
        from repro.robust import supervisor
        monkeypatch.setattr(supervisor, "_BACKOFF_BASE_S", 0.05)
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        verdicts = run_campaign(towers_run.engine,
                                towers_run.snapshots,
                                workers=2, timeout=4.0)
        assert set(verdicts) == {
            "worker-kill", "worker-stall", "worker-error",
            "bootstrap-death", "snapshot-bitflip", "trace-bitflip",
            "cache-corruption", "journal-corruption",
        }
        missed = {k: v for k, v in verdicts.items()
                  if v not in ("recovered", "detected")}
        assert not missed, f"faults went unnoticed: {missed}"
        assert verdicts["worker-kill"] == "recovered"
        assert verdicts["worker-stall"] == "recovered"
        assert verdicts["bootstrap-death"] == "recovered"
        assert verdicts["snapshot-bitflip"] == "detected"
        assert verdicts["trace-bitflip"] == "detected"
        # the bootstrap-death leg's spawn override is that leg's only
        assert "REPRO_START_METHOD" not in os.environ
