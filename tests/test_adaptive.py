"""Adaptive error-driven sampling: the streaming replay scheduler,
the confidence-driven controller, cooperative cancellation, journal
re-sampling, and the service-layer knobs (ISSUE 8)."""

import pytest

from repro.core import (
    run_strober, clear_caches,
    AdaptiveSamplingController, confidence_order,
    STOP_TARGET_MET, STOP_EXHAUSTED, STOP_MAX_SAMPLE,
)
from repro.core.controller import DEFAULT_MIN_SAMPLE
from repro.core.replay import plan_replay_batches
from repro.obs import Tracer, load_trace
from repro.parallel import CancelToken
from repro.robust import (
    RunJournal, read_journal, TYPE_RESULT, TYPE_CONTROL,
)


# Small enough to be quick, large enough that the target is reachable
# before the candidate set runs out (15 snapshots on towers).
ADAPTIVE_KW = dict(design="rocket_mini", workload="towers",
                   sample_size=16, replay_length=48, backend="auto",
                   seed=3)
TARGET = 0.2


@pytest.fixture(scope="module")
def fixed_run():
    return run_strober(**ADAPTIVE_KW)


@pytest.fixture(scope="module")
def adaptive_traced(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("adaptive") / "trace.json")
    run = run_strober(**ADAPTIVE_KW, target_rel_error=TARGET,
                      trace=path)
    return run, load_trace(path)


def _power_key(result):
    return (result.snapshot_cycle, result.cycles,
            result.power.total_w,
            tuple(sorted(result.power.by_group.items())))


class _Result:
    """Stand-in replay result: just enough for the controller."""

    class _Power:
        def __init__(self, total_mw):
            self.total_mw = total_mw

    def __init__(self, total_mw):
        self.power = self._Power(total_mw)


class TestConfidenceOrder:
    def test_is_a_permutation(self):
        for n in (0, 1, 2, 3, 7, 8, 15, 16, 33):
            order = confidence_order(n)
            assert sorted(order) == list(range(n))

    def test_deterministic(self):
        assert confidence_order(13) == confidence_order(13)

    def test_power_of_two_bit_reversal(self):
        assert confidence_order(8) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_prefixes_spread_over_the_range(self):
        """Every prefix must cover the timeline, not its start: the
        first quarter of the order may not live in any one quarter of
        the index range."""
        n = 64
        order = confidence_order(n)
        prefix = order[:n // 4]
        quarters = {i // (n // 4) for i in prefix}
        assert quarters == {0, 1, 2, 3}


class TestControllerUnit:
    def test_fixed_mode_is_pure_telemetry(self):
        c = AdaptiveSamplingController(100, available=10,
                                       tracer=Tracer())
        assert not c.adaptive
        pending = [3, 1, 4, 1 + 1]
        assert c.plan_order(pending) == pending    # natural order
        for v in (10.0, 11.0, 12.0):
            c.observe(0, _Result(v))
            assert c.should_stop() is None
        summary = c.finish()
        assert summary["mode"] == "fixed"
        assert summary["stop_reason"] is None
        assert summary["early_stop"] is False
        assert summary["min_sample"] is None
        assert summary["max_sample"] is None

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            AdaptiveSamplingController(100, available=10,
                                       target_rel_error=0.0)

    def test_min_sample_floor_is_two(self):
        """n=1 has a zero half-width; a min_sample of 1 would let the
        controller mistake it for convergence."""
        c = AdaptiveSamplingController(100, available=10,
                                       target_rel_error=0.1,
                                       min_sample=1, tracer=Tracer())
        assert c.min_sample == DEFAULT_MIN_SAMPLE
        c.observe(0, _Result(10.0))
        assert c.should_stop() is None     # zero width, but n < 2

    def test_max_sample_capped_at_available(self):
        c = AdaptiveSamplingController(100, available=5,
                                       target_rel_error=0.1,
                                       max_sample=50, tracer=Tracer())
        assert c.max_sample == 5

    def test_stop_on_target_met(self):
        tracer = Tracer()
        c = AdaptiveSamplingController(100, available=10,
                                       target_rel_error=0.5,
                                       tracer=tracer)
        order = c.plan_order(list(range(10)))
        assert sorted(order) == list(range(10))
        c.observe(order[0], _Result(10.0))
        c.observe(order[1], _Result(10.0))   # zero variance: rel = 0
        assert c.should_stop() == STOP_TARGET_MET
        assert c.should_stop() == STOP_TARGET_MET   # latched
        summary = c.finish()
        assert summary["stop_reason"] == STOP_TARGET_MET
        assert summary["early_stop"] is True
        assert summary["sample_size"] == 2
        names = {ev["name"] for ev in tracer.events}
        assert {"controller.dispatch", "controller.progress",
                "controller.stop"} <= names

    def test_stop_on_max_sample(self):
        c = AdaptiveSamplingController(1000, available=10,
                                       target_rel_error=0.001,
                                       max_sample=3, tracer=Tracer())
        plan = c.plan_order(list(range(10)))
        assert len(plan) == 3              # budget-truncated
        for i, v in enumerate((5.0, 50.0, 500.0)):
            c.observe(plan[i], _Result(v))
        assert c.should_stop() == STOP_MAX_SAMPLE
        summary = c.finish()
        assert summary["stop_reason"] == STOP_MAX_SAMPLE
        assert summary["early_stop"] is False

    def test_exhausted_when_candidates_run_out(self):
        c = AdaptiveSamplingController(1000, available=3,
                                       target_rel_error=0.001,
                                       tracer=Tracer())
        for i, v in enumerate((5.0, 50.0, 500.0)):
            c.observe(i, _Result(v))
        summary = c.finish()
        assert summary["stop_reason"] == STOP_EXHAUSTED
        assert summary["fraction_replayed"] == 1.0

    def test_seed_is_silent_but_counts_toward_the_sample(self):
        tracer = Tracer()
        c = AdaptiveSamplingController(100, available=10,
                                       target_rel_error=0.5,
                                       tracer=tracer)
        c.seed([10.0, 10.0])
        assert c.seeded == 2 and c.sample_size == 2
        assert c.replayed == 0
        assert tracer.events == []         # no telemetry replanted
        assert c.should_stop() == STOP_TARGET_MET
        plan = c.plan_order(list(range(2, 10)))
        assert len(plan) <= c.max_sample - 2
        summary = c.finish()
        assert summary["seeded"] == 2 and summary["replayed"] == 0

    def test_request_cancel_sets_the_token(self):
        tracer = Tracer()
        c = AdaptiveSamplingController(100, available=10,
                                       target_rel_error=0.5,
                                       tracer=tracer)
        cancel = CancelToken()
        c.request_cancel(cancel, STOP_TARGET_MET)
        assert cancel.cancelled
        assert cancel.reason == STOP_TARGET_MET
        assert any(ev["name"] == "controller.cancel"
                   for ev in tracer.events)


class TestCancelToken:
    def test_first_reason_wins(self):
        token = CancelToken()
        assert not token.cancelled and not token
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled and token
        assert token.reason == "first"


class TestPlanReplayBatchesWithOrder:
    class _Snap:
        def __init__(self, cycles):
            self.input_trace = [None] * cycles

    def test_order_none_is_natural_batching(self):
        snaps = [self._Snap(4)] * 5
        assert plan_replay_batches(snaps, 2) == [[0, 1], [2, 3], [4]]

    def test_follows_order_and_lane_limit(self):
        snaps = [self._Snap(4)] * 6
        batches = plan_replay_batches(snaps, 2, order=[5, 1, 3, 0])
        assert batches == [[5, 1], [3, 0]]

    def test_trace_length_change_splits_batches(self):
        snaps = [self._Snap(4), self._Snap(4), self._Snap(8)]
        batches = plan_replay_batches(snaps, 4, order=[0, 2, 1])
        assert batches == [[0], [2], [1]]


class TestReplayStream:
    @pytest.fixture(scope="class")
    def run(self):
        return run_strober("rocket_mini", "towers", sample_size=8,
                           replay_length=32, backend="auto", seed=3)

    def test_order_subset_streams_only_that_subset(self, run):
        engine = run.engine
        snaps = list(run.snapshots)
        pairs = list(engine.replay_stream(snaps, order=[5, 1, 3]))
        assert [i for i, _ in pairs] == [5, 1, 3]
        full = engine.replay_all(snaps)
        for i, result in pairs:
            assert _power_key(result) == _power_key(full[i])

    def test_order_validation_is_eager(self, run):
        engine = run.engine
        snaps = list(run.snapshots)
        with pytest.raises(ValueError):
            engine.replay_stream(snaps, order=[0, 0])
        with pytest.raises(ValueError):
            engine.replay_stream(snaps, order=[len(snaps)])

    def test_serial_cancellation_stops_dispatch(self, run):
        engine = run.engine
        snaps = list(run.snapshots)
        cancel = CancelToken()
        seen = []
        for idx, result in engine.replay_stream(snaps, cancel=cancel):
            seen.append(idx)
            cancel.cancel("test")
        assert seen == [0]     # already-dispatched batch still yielded

    def test_supervised_cancellation_keeps_pool_healthy(self, run):
        engine = run.engine
        snaps = list(run.snapshots)
        cancel = CancelToken()
        seen = []
        for idx, result in engine.replay_stream(snaps, workers=2,
                                                cancel=cancel):
            seen.append(idx)
            if len(seen) == 2:
                cancel.cancel("enough")
        assert 2 <= len(seen) < len(snaps)
        health = engine.last_health
        assert health is not None
        assert health.cancelled >= 1
        # cancellation is a decision, not a fault
        assert health.healthy

    def test_supervised_stream_labels_original_indices(self, run):
        engine = run.engine
        snaps = list(run.snapshots)
        serial = engine.replay_all(snaps)
        pairs = list(engine.replay_stream(snaps, workers=2,
                                          order=[6, 2, 4]))
        assert sorted(i for i, _ in pairs) == [2, 4, 6]
        for i, result in pairs:
            assert _power_key(result) == _power_key(serial[i])


class TestAdaptiveEndToEnd:
    def test_fixed_mode_summary(self, fixed_run):
        sampling = fixed_run.sampling
        assert sampling["mode"] == "fixed"
        assert sampling["stop_reason"] is None
        assert sampling["early_stop"] is False
        assert sampling["fraction_replayed"] == 1.0
        assert sampling["replayed"] == len(fixed_run.replays)

    def test_early_stop_meets_the_target(self, adaptive_traced,
                                         fixed_run):
        run, _doc = adaptive_traced
        sampling = run.sampling
        assert sampling["mode"] == "adaptive"
        assert sampling["stop_reason"] == STOP_TARGET_MET
        assert sampling["early_stop"] is True
        assert sampling["rel_error"] <= TARGET
        assert sampling["sample_size"] < len(fixed_run.replays)
        assert len(run.replays) == sampling["sample_size"]
        assert 0.0 < sampling["fraction_replayed"] < 1.0
        # the subset estimate must agree with the full-sample truth
        # within the interval it claims
        full = fixed_run.energy.power.mean
        assert abs(run.energy.power.mean - full) / full <= TARGET

    def test_controller_events_land_in_the_trace(self, adaptive_traced):
        run, doc = adaptive_traced
        from repro.obs.report import controller_events, render_report
        events = controller_events(doc)
        names = [ev["name"] for ev in events]
        assert "controller.dispatch" in names
        assert "controller.stop" in names
        assert names.count("controller.progress") >= 1
        stop = next(ev for ev in events
                    if ev["name"] == "controller.stop")
        assert stop["args"]["reason"] == STOP_TARGET_MET
        assert stop["args"]["early_stop"] is True
        text = render_report(doc)
        assert "-- adaptive sampling controller --" in text
        assert "target-met" in text

    def test_ramped_stream_leaves_at_most_two_simulators(self,
                                                          fixed_run):
        # an adaptive run's batches ramp 1, 2, 4, ... lanes wide
        engine = fixed_run.engine
        snapshots = list(fixed_run.result.snapshots)
        assert len(snapshots) > 8
        done = list(engine.replay_stream(snapshots, cancel=CancelToken(),
                                         ramp=1))
        assert len(done) == len(snapshots)
        assert 1 <= len(engine._sims) <= 2

    def test_fixed_batches_reuse_their_simulators(self, fixed_run):
        engine = fixed_run.engine
        sims = [engine._sim(lanes) for lanes in (64, 64, 64, 63) * 2]
        assert all(sim is sims[0] for sim in sims[:3] + sims[4:7])
        assert sims[3] is sims[7]

    def test_fixed_run_emits_no_controller_events(self, tmp_path):
        from repro.obs.report import controller_events
        path = str(tmp_path / "fixed.trace.json")
        run_strober(design="rocket_mini", workload="towers",
                    sample_size=4, replay_length=32, backend="auto",
                    seed=3, trace=path)
        assert controller_events(load_trace(path)) == []

    def test_adaptive_parallel_cancels_in_flight_batches(self):
        run = run_strober(**ADAPTIVE_KW, target_rel_error=TARGET,
                          workers=2, batch_lanes=2)
        sampling = run.sampling
        assert sampling["stop_reason"] == STOP_TARGET_MET
        assert sampling["rel_error"] <= TARGET
        assert run.health is not None and run.health.healthy
        # the early stop abandoned work the pool never finished
        assert run.health.cancelled >= 1


class TestJournalAdaptive:
    JKW = dict(design="rocket_mini", workload="towers", sample_size=6,
               replay_length=32, backend="auto", seed=3)

    def test_fixed_journal_reopens_under_a_target(self, tmp_path):
        """A pre-adaptive (fixed-n) journal resumes when the caller
        adds ``target_rel_error``: the knobs are advisory, not
        identity."""
        jpath = str(tmp_path / "run.journal")
        first = run_strober(**self.JKW, journal=jpath)
        clear_caches()
        again = run_strober(**self.JKW, journal=jpath,
                            target_rel_error=0.5)
        assert again.timings["resumed_sim"]
        assert again.timings["resumed_replays"] == len(first.replays)
        assert again.sampling["mode"] == "adaptive"
        assert again.sampling["seeded"] == len(first.replays)
        assert again.sampling["replayed"] == 0
        assert again.energy.power.mean == first.energy.power.mean
        # and the adaptive pass journaled its verdict without breaking
        # a later fixed-mode resume
        types = [rtype for rtype, _ in read_journal(jpath)]
        assert TYPE_CONTROL in types
        third = run_strober(**self.JKW, journal=jpath)
        assert third.timings["resumed_sim"]
        assert third.energy.power.mean == first.energy.power.mean

    def test_tighter_target_replays_only_additional_snapshots(
            self, tmp_path):
        jpath = str(tmp_path / "run.journal")
        loose = run_strober(**ADAPTIVE_KW, journal=jpath,
                            target_rel_error=0.5)
        assert loose.sampling["stop_reason"] == STOP_TARGET_MET
        n_loose = loose.sampling["sample_size"]
        clear_caches()
        tight = run_strober(**ADAPTIVE_KW, journal=jpath,
                            target_rel_error=TARGET)
        assert tight.timings["resumed_sim"]
        # only the already-journaled replays were resumed …
        assert tight.timings["resumed_replays"] == n_loose
        assert tight.sampling["seeded"] == n_loose
        # … and the tighter pass added to them rather than restarting
        assert tight.sampling["sample_size"] >= n_loose
        assert tight.sampling["rel_error"] <= TARGET
        assert len(tight.replays) == tight.sampling["sample_size"]
        # journal now holds one result per distinct replay, ever
        records = read_journal(jpath)
        indices = [obj["index"] for rtype, obj in records
                   if rtype == TYPE_RESULT]
        assert len(indices) == len(set(indices))
        assert len(indices) == tight.sampling["sample_size"]

    def test_control_records_accumulate_per_adaptive_pass(
            self, tmp_path):
        jpath = str(tmp_path / "run.journal")
        run_strober(**ADAPTIVE_KW, journal=jpath, target_rel_error=0.5)
        clear_caches()
        run_strober(**ADAPTIVE_KW, journal=jpath,
                    target_rel_error=TARGET)
        controls = [obj["controller"] for rtype, obj
                    in read_journal(jpath) if rtype == TYPE_CONTROL]
        assert len(controls) == 2
        assert all(c["mode"] == "adaptive" for c in controls)
        assert controls[0]["target_rel_error"] == 0.5
        assert controls[1]["target_rel_error"] == TARGET
        assert {c["stop_reason"] for c in controls} <= {
            STOP_TARGET_MET, STOP_EXHAUSTED, STOP_MAX_SAMPLE}

    def test_foreign_and_control_records_skipped_on_fixed_resume(
            self, tmp_path):
        """Forward compatibility: a journal decorated by a newer
        writer (control records, types not invented yet) must still
        resume under a reader that ignores them."""
        jpath = str(tmp_path / "run.journal")
        first = run_strober(**self.JKW, journal=jpath)
        with RunJournal(jpath) as journal:
            journal.append(TYPE_CONTROL,
                           {"controller": {"mode": "adaptive",
                                           "stop_reason": "target-met"}})
            journal.append(99, {"v": 7, "mystery": True})
        clear_caches()
        resumed = run_strober(**self.JKW, journal=jpath)
        assert resumed.timings["resumed_sim"]
        assert resumed.timings["resumed_replays"] == len(first.replays)
        assert resumed.energy.power.mean == first.energy.power.mean


class TestJobSpecV2:
    def _raw(self, **extra):
        spec = {"design": "rocket_mini", "workload": "towers"}
        spec.update(extra)
        return spec

    def test_adaptive_knobs_round_trip(self):
        from repro.service import JobSpec
        spec = JobSpec.from_dict(self._raw(
            target_rel_error=0.1, min_sample=2, max_sample=8))
        assert spec.target_rel_error == 0.1
        assert spec.min_sample == 2 and spec.max_sample == 8
        kwargs = spec.run_kwargs()
        assert kwargs["target_rel_error"] == 0.1
        assert kwargs["min_sample"] == 2
        assert kwargs["max_sample"] == 8
        assert spec.as_dict()["v"] == 2
        # canonical form re-validates (the resume path)
        again = JobSpec.from_dict(spec.as_dict())
        assert again.target_rel_error == 0.1

    def test_v1_spec_is_a_valid_v2_spec(self):
        from repro.service import JobSpec
        spec = JobSpec.from_dict(self._raw(v=1))
        assert spec.target_rel_error is None
        assert spec.min_sample is None and spec.max_sample is None
        assert spec.run_kwargs()["target_rel_error"] is None

    @pytest.mark.parametrize("bad", [
        {"target_rel_error": 0.0},
        {"target_rel_error": 1.5},
        {"target_rel_error": "tight"},
        {"min_sample": 1},
        {"max_sample": 0},
        {"v": 99},
    ])
    def test_invalid_knobs_rejected(self, bad):
        from repro.service import JobSpec, ServiceError
        with pytest.raises(ServiceError) as err:
            JobSpec.from_dict(self._raw(**bad))
        assert err.value.type == "invalid-request"


class TestJobProgressFeed:
    def test_controller_events_surface_in_job_info(self):
        from repro.service import JobSpec
        from repro.service.daemon import Job, StroberService
        job = Job("job-000001", JobSpec(design="rocket_mini",
                                        workload="towers"))
        assert job.info()["progress"] is None
        event = {"name": "controller.progress", "cat": "controller",
                 "args": {"n": 4, "rel_error": 0.3,
                          "target_rel_error": 0.2}}
        StroberService._on_event(None, job, event)
        assert job.info()["progress"] == {
            "event": "progress", "n": 4, "rel_error": 0.3,
            "target_rel_error": 0.2}
        # non-controller instants are not progress
        StroberService._on_event(
            None, job, {"name": "supervisor.incident", "args": {}})
        assert job.info()["progress"]["event"] == "progress"
        stop = {"name": "controller.stop", "cat": "controller",
                "args": {"reason": "target-met", "early_stop": True,
                         "n": 8}}
        StroberService._on_event(None, job, stop)
        assert job.info()["progress"]["event"] == "stop"
        assert job.info()["progress"]["reason"] == "target-met"
