"""Supervised replay pool: per-snapshot timeouts, crash detection and
respawn, retry with backoff, graceful serial fallback, and the
structured health report (repro.robust.supervisor), driven through
its one entry point, ``ReplayEngine.replay_all(..., workers=N)``."""

import copy
import time

import numpy as np
import pytest

from repro.core import run_strober
from repro.core.replay import ReplayEngine, ReplayError
from repro.robust import (
    FaultPlan, FaultSpec, ReplayHealthReport, default_init_grace,
    default_replay_timeout,
)
from repro.robust import supervisor as supervisor_mod
from repro.scan.snapshot import SnapshotError


@pytest.fixture(scope="module")
def towers_run():
    return run_strober("rocket_mini", "towers", sample_size=6,
                       replay_length=32, backend="auto", seed=3)


def _keys(results):
    return [(r.snapshot_cycle, r.cycles, r.mismatches, r.power.total_w,
             tuple(sorted(r.power.by_group.items()))) for r in results]


@pytest.fixture(scope="module")
def serial_baseline(towers_run):
    return _keys(towers_run.engine.replay_all(towers_run.snapshots,
                                              workers=1))


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "_BACKOFF_BASE_S", 0.05)


def _supervised(engine, snaps, **kwargs):
    """One snapshot per batch, so a fault index is its own dispatch."""
    kwargs.setdefault("timeout", 60.0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("batch_lanes", 1)
    results = engine.replay_all(snaps, **kwargs)
    return results, engine.last_health


class TestHappyPath:
    def test_identical_to_serial_with_healthy_report(self, towers_run,
                                                     serial_baseline):
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots))
        assert _keys(results) == serial_baseline
        assert health.healthy
        assert health.completed_parallel == len(serial_baseline)
        assert health.completed_serial == 0
        assert "healthy" in health.summary()

    def test_empty_snapshot_list(self, towers_run):
        results, health = _supervised(towers_run.engine, [])
        assert results == []
        assert health.healthy

    def test_on_result_fires_with_positions(self, towers_run,
                                            serial_baseline):
        seen = {}
        results, _health = _supervised(
            towers_run.engine, list(towers_run.snapshots),
            on_result=lambda i, r: seen.__setitem__(i, r))
        assert sorted(seen) == list(range(len(results)))
        assert all(seen[i] is results[i] for i in seen)


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_snapshot_retried(
            self, towers_run, serial_baseline):
        plan = FaultPlan([FaultSpec("kill", index=1)])
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots),
                                      fault_plan=plan)
        assert _keys(results) == serial_baseline
        assert not health.healthy
        assert health.crashes >= 1
        assert health.respawns >= 1
        assert health.retries >= 1
        kinds = {i.kind for i in health.incidents}
        assert "worker-crash" in kinds
        incident = next(i for i in health.incidents
                        if i.kind == "worker-crash")
        assert incident.snapshot_index == 1
        assert "exitcode" in incident.detail

    def test_two_killed_workers(self, towers_run, serial_baseline):
        plan = FaultPlan([FaultSpec("kill", index=0),
                          FaultSpec("kill", index=3)])
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots),
                                      fault_plan=plan)
        assert _keys(results) == serial_baseline
        assert health.crashes >= 2


class TestStallRecovery:
    def test_stalled_worker_hits_timeout_and_recovers(self, towers_run,
                                                      serial_baseline):
        plan = FaultPlan([FaultSpec("stall", index=0, seconds=300.0)])
        t0 = time.monotonic()
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots),
                                      fault_plan=plan, timeout=3.0)
        assert time.monotonic() - t0 < 60.0
        assert _keys(results) == serial_baseline
        assert health.timeouts >= 1
        assert health.respawns >= 1
        assert any(i.kind == "timeout" for i in health.incidents)


class TestRetriesAndFallback:
    def test_transient_error_is_retried(self, towers_run,
                                        serial_baseline):
        plan = FaultPlan([FaultSpec("error", index=2, times=1)])
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots),
                                      fault_plan=plan)
        assert _keys(results) == serial_baseline
        assert health.worker_errors >= 1
        assert health.retries >= 1
        assert health.serial_fallbacks == 0

    def test_exhausted_retries_degrade_to_serial(self, towers_run,
                                                 serial_baseline):
        # sabotage every dispatch of snapshot 0: the pool can never
        # replay it, so the supervisor must do it in-process
        plan = FaultPlan([FaultSpec("error", index=0, times=99)])
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots),
                                      fault_plan=plan, max_retries=1)
        assert _keys(results) == serial_baseline
        assert health.serial_fallbacks == 1
        assert health.completed_serial == 1
        assert health.completed_parallel == len(serial_baseline) - 1
        assert any(i.kind == "serial-fallback" for i in health.incidents)
        assert "recovered" in health.summary()

    def test_exhausted_retries_replay_on_interp(self, towers_run,
                                                serial_baseline,
                                                monkeypatch):
        """A C engine's batch whose workers all failed replays on the
        interpreter, not on the parent's own (suspect) kernel."""
        engine = towers_run.engine
        if engine.backend_used != "c":
            pytest.skip("needs the C kernel (no C compiler found)")
        # only this process's replays land here: forked workers append
        # to their own copies of the list
        in_process = []
        replay_batch = ReplayEngine.replay_batch

        def recording(self, snapshots, strict=True):
            in_process.append((self.backend_used, len(snapshots)))
            return replay_batch(self, snapshots, strict=strict)

        monkeypatch.setattr(ReplayEngine, "replay_batch", recording)
        plan = FaultPlan([FaultSpec("kill", index=0, times=99)])
        results, health = _supervised(engine, list(towers_run.snapshots),
                                      fault_plan=plan, max_retries=0)
        assert _keys(results) == serial_baseline
        assert in_process == [("interp", 1)]
        fallback = [i for i in health.incidents
                    if i.kind == "serial-fallback"]
        assert len(fallback) == 1
        assert fallback[0].snapshot_index == 0
        assert "interp" in fallback[0].detail


class TestFatalErrors:
    def test_strict_mismatch_is_not_retried(self, towers_run):
        snaps = list(towers_run.snapshots)
        bad = copy.deepcopy(snaps[1])
        bad.output_trace[0] ^= 1     # bit 0 of every output, cycle 0
        bad.checksum = None      # reach the replay comparison itself
        with pytest.raises(ReplayError):
            _supervised(towers_run.engine, [snaps[0], bad, snaps[2]])

    def test_corrupted_sealed_snapshot_is_rejected(self, towers_run):
        snaps = list(towers_run.snapshots)
        bad = copy.deepcopy(snaps[0])
        paths = bad.state.reg_paths
        bad.state.reg_values[paths.index(min(paths))] ^= np.uint64(1)
        with pytest.raises(SnapshotError):
            _supervised(towers_run.engine, [bad] + snaps[1:3])


class TestStartMethods:
    def test_spawn_workers_end_to_end(self, towers_run, serial_baseline,
                                      monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots)[:2])
        assert _keys(results) == serial_baseline[:2]
        assert health.healthy

    def test_spawn_worker_dying_in_bootstrap_is_recovered(
            self, towers_run, serial_baseline, monkeypatch):
        """A spawned worker that dies before reading its engine payload
        is a crash incident: respawned, its batch retried, no hang.
        The payload is a framed message on the task pipe, so
        ``Process.start()`` has nothing large to block on."""
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        plan = FaultPlan([FaultSpec("bootstrap-death")])
        t0 = time.monotonic()
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots),
                                      fault_plan=plan)
        assert time.monotonic() - t0 < 120.0
        assert _keys(results) == serial_baseline
        assert not health.healthy
        assert health.crashes == 1
        assert health.respawns >= 1
        incident = next(i for i in health.incidents
                        if i.kind == "worker-crash")
        assert "before ready" in incident.detail
        assert "exitcode 43" in incident.detail

    def test_bootstrap_faults_are_not_task_faults(self):
        plan = FaultPlan([FaultSpec("bootstrap-death", times=1),
                          FaultSpec("error", index=0)])
        assert plan.pick(0, None).kind == "error"
        assert plan.pick_bootstrap().kind == "bootstrap-death"
        assert plan.pick_bootstrap() is None


class TestTimeoutDerivation:
    def test_floor_and_scaling(self):
        assert default_replay_timeout(32) == pytest.approx(30.0)
        assert default_replay_timeout(10_000) == pytest.approx(2500.0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_TIMEOUT", "7.5")
        assert default_replay_timeout(10_000) == pytest.approx(7.5)


class TestRetryJitter:
    def test_backoff_delays_are_full_jitter(self, towers_run,
                                            serial_baseline, monkeypatch):
        """Retry spacing is drawn uniformly from [0, base * 2**k]: the
        recording RNG must see a zero lower bound and doubling caps —
        fixed delays would respawn killed workers in lockstep."""
        draws = []

        class _Recorder:
            def uniform(self, lo, hi):
                draws.append((lo, hi))
                return 0.0     # retry immediately; the cap is the claim

        monkeypatch.setattr(supervisor_mod, "_BACKOFF_RNG", _Recorder())
        plan = FaultPlan([FaultSpec("error", index=2, times=2)])
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots),
                                      fault_plan=plan, max_retries=3)
        assert _keys(results) == serial_baseline
        assert health.retries == 2
        assert draws == [(0.0, pytest.approx(0.05)),
                         (0.0, pytest.approx(0.10))]


class TestInitGrace:
    def test_default_init_grace_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_INIT_GRACE", raising=False)
        assert default_init_grace() == pytest.approx(300.0)
        monkeypatch.setenv("REPRO_REPLAY_INIT_GRACE", "12.5")
        assert default_init_grace() == pytest.approx(12.5)

    def test_tight_deadline_not_charged_for_worker_startup(
            self, towers_run, serial_baseline, monkeypatch):
        """A per-batch timeout far below spawn-and-import cost must not
        fire while workers initialize: the ready handshake re-arms the
        deadline once the one-time engine cost is paid."""
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        monkeypatch.setenv("REPRO_REPLAY_INIT_GRACE", "120")
        results, health = _supervised(towers_run.engine,
                                      list(towers_run.snapshots)[:3],
                                      timeout=2.0)
        assert _keys(results) == serial_baseline[:3]
        assert health.timeouts == 0
        assert health.healthy


class TestRunStroberIntegration:
    def test_health_report_attached_to_run(self):
        run = run_strober("rocket_mini", "towers", sample_size=4,
                          replay_length=32, seed=3, workers=2)
        assert isinstance(run.health, ReplayHealthReport)
        assert run.health.healthy
        assert run.health.completed_parallel == len(run.snapshots)

    def test_serial_run_has_no_health_report(self):
        run = run_strober("rocket_mini", "towers", sample_size=4,
                          replay_length=32, seed=3, workers=1)
        assert run.health is None
