"""Resilient Strober job service: spec validation, typed admission
control, deadlines and retries, backend circuit breakers, crash-safe
queue resume, and the service-level chaos campaign (repro.service)."""

import os
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import run_strober
from repro.core.replay import ReplayError
from repro.robust import run_service_campaign
from repro.service import (
    JobSpec, ServiceError, ServiceHarness, ServiceJournal,
    load_service_state, result_digest, BackendBreaker, LADDER,
    ERR_INVALID_REQUEST, ERR_QUEUE_FULL, ERR_DRAINING, ERR_DEADLINE,
    ERR_REPLAY_MISMATCH, ERR_CANCELLED, ERR_UNKNOWN_JOB,
)
import repro.service.daemon as daemon_mod
from repro.service.protocol import encode_line, decode_line

SPEC = dict(design="rocket_mini", workload="towers", sample_size=3,
            replay_length=32, seed=3)


@pytest.fixture(scope="module")
def clean_digest():
    """Digest of a clean serial in-process run of SPEC."""
    return result_digest(run_strober(workers=1, **SPEC).replays)


def _fake_run():
    """A minimal StroberRun stand-in for daemon-behavior tests that
    must not pay for a real flow."""
    replay = SimpleNamespace(
        snapshot_cycle=7, cycles=32, mismatches=0,
        power=SimpleNamespace(total_w=0.001, by_group={"core": 0.001}))
    return SimpleNamespace(
        result=SimpleNamespace(cycles=100), replays=[replay],
        energy=SimpleNamespace(
            power=SimpleNamespace(mean=1.0, relative_error_bound=0.01),
            total_power_mw=1.5, epi_nj=2.0),
        wall_seconds=0.01, health=None, trace_path=None,
        timings={"gl_backend": "interp", "resumed_sim": False,
                 "resumed_replays": 0})


@pytest.fixture
def stub_runs(monkeypatch):
    """Replace the daemon's run_strober with a controllable stub.

    ``gate`` (initially open) blocks in-flight runs; ``fail`` is a
    FIFO of exceptions to raise; ``health`` a FIFO of health reports
    to attach; ``n`` counts calls.
    """
    calls = {"n": 0, "gate": threading.Event(), "fail": [],
             "health": [], "kwargs": [], "inflight": 0,
             "max_inflight": 0}
    calls["gate"].set()
    guard = threading.Lock()

    def fake(design, workload, **kwargs):
        with guard:
            calls["n"] += 1
            calls["kwargs"].append(kwargs)
            calls["inflight"] += 1
            calls["max_inflight"] = max(calls["max_inflight"],
                                        calls["inflight"])
        try:
            if not calls["gate"].wait(60):
                raise RuntimeError("test gate never opened")
            with guard:
                if calls["fail"]:
                    raise calls["fail"].pop(0)
                run = _fake_run()
                if calls["health"]:
                    run.health = calls["health"].pop(0)
            return run
        finally:
            with guard:
                calls["inflight"] -= 1

    monkeypatch.setattr(daemon_mod, "run_strober", fake)
    return calls


def _harness(tmp_path, **kwargs):
    kwargs.setdefault("retry_backoff_s", 0.01)
    return ServiceHarness(state_dir=str(tmp_path / "state"), **kwargs)


class TestJobSpecValidation:
    def test_minimal_spec_round_trips(self):
        spec = JobSpec.from_dict(dict(SPEC))
        assert spec.design == "rocket_mini"
        assert JobSpec.from_dict(spec.as_dict()).as_dict() == \
            spec.as_dict()

    @pytest.mark.parametrize("bad", [
        None,
        {"workload": "towers"},
        {"design": "rocket_mini"},
        {"design": "no-such-design", "workload": "towers"},
        {"design": "rocket_mini", "workload": "no-such-workload"},
        {**SPEC, "bogus_field": 1},
        {**SPEC, "sample_size": 0},
        {**SPEC, "sample_size": "four"},
        {**SPEC, "workers": 0},
        {**SPEC, "batch_lanes": 65},
        {**SPEC, "confidence": 1.5},
        {**SPEC, "deadline_s": -1},
        {**SPEC, "gl_backend": "fortran"},
        {**SPEC, "faults": [{"kind": "meteor"}]},
        {**SPEC, "faults": [{"kind": "kill", "wat": 1}]},
        {**SPEC, "v": 99},
    ])
    def test_bad_specs_raise_typed_invalid_request(self, bad):
        with pytest.raises(ServiceError) as err:
            JobSpec.from_dict(bad)
        assert err.value.type == ERR_INVALID_REQUEST

    def test_removed_compiled_backend_rejected(self):
        with pytest.raises(ServiceError) as err:
            JobSpec.from_dict({**SPEC, "gl_backend": "compiled"})
        assert err.value.type == ERR_INVALID_REQUEST
        assert "interp, c, auto" in str(err.value)

    def test_faults_compile_to_a_plan(self):
        spec = JobSpec.from_dict(
            {**SPEC, "faults": [{"kind": "kill", "times": 2}]})
        plan = spec.fault_plan()
        assert plan.specs[0].kind == "kill"
        assert plan.specs[0].times == 2

    def test_line_framing_round_trip(self):
        line = encode_line({"cmd": "ping", "x": [1, 2]})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"cmd": "ping", "x": [1, 2]}
        with pytest.raises(ServiceError):
            decode_line(b"not json\n")
        with pytest.raises(ServiceError):
            decode_line(b"[1, 2]\n")


class TestBreakerLadder:
    def test_walks_c_interp_and_stops(self):
        assert LADDER == ("c", "interp")
        breaker = BackendBreaker("d", threshold=2)
        assert breaker.effective("c") == "c"
        assert breaker.record_failure("c") is None          # 1 of 2
        event = breaker.record_failure("c")
        assert event["from"] == "c" and event["to"] == "interp"
        assert breaker.effective("c") == "interp"
        assert breaker.effective("auto") == "interp"
        assert breaker.effective("interp") == "interp"
        # interp is the floor: crashes there never demote further
        assert breaker.record_failure("interp", count=10) is None
        assert breaker.effective("c") == "interp"

    def test_auto_requests_pass_through_until_demoted(self):
        breaker = BackendBreaker("d", threshold=1)
        assert breaker.effective("auto") == "auto"
        assert breaker.effective(None) is None
        breaker.record_failure("auto")
        assert breaker.effective(None) == "interp"

    def test_as_dict_reports_floor_and_history(self):
        breaker = BackendBreaker("d", threshold=1)
        breaker.record_failure("c", reason="storm")
        info = breaker.as_dict()
        assert info["floor"] == "interp"
        assert info["demotions"][0]["reason"] == "storm"


class TestEndToEnd:
    def test_submit_wait_bit_identical_with_live_status(
            self, tmp_path, clean_digest):
        with _harness(tmp_path) as harness:
            with harness.client() as client:
                assert client.ping() == "serving"
                job_id = client.submit(**SPEC)
                job = client.wait(job_id, timeout_s=300)
                status = client.status()
        assert job["state"] == "done"
        assert job["digest"] == clean_digest
        assert job["summary"]["snapshots"] == SPEC["sample_size"]
        assert job["last_phase"] == "phase.energy"   # span-stream fed
        assert job["spans"] > 0
        assert status["jobs"] == {"done": 1}
        assert status["last_span"] is not None
        assert "service.jobs_done" in status["metrics"]

    def test_no_knob_job_runs_the_fast_path(self, tmp_path):
        with _harness(tmp_path) as harness:
            with harness.client() as client:
                job = client.wait(client.submit(**SPEC), timeout_s=300)
        assert job["state"] == "done"
        assert job["spec"]["batch_lanes"] is None
        assert job["summary"]["batch_lanes"] == 64
        assert job["summary"]["gl_backend"] in ("c", "interp")
        assert job["summary"]["rtl_backend"] in ("c", "python")

    def test_malformed_request_line_gets_typed_error(self, tmp_path,
                                                     stub_runs):
        with _harness(tmp_path) as harness:
            address = harness.address
            with socket.create_connection(
                    (address["host"], address["port"]), timeout=30) as s:
                f = s.makefile("rwb")
                f.write(b"this is not json\n")
                f.flush()
                response = decode_line(f.readline())
        assert response["ok"] is False
        assert response["error"]["type"] == ERR_INVALID_REQUEST

    def test_unknown_job_and_unknown_command(self, tmp_path, stub_runs):
        with _harness(tmp_path) as harness:
            with harness.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.wait("job-999999")
                assert err.value.type == ERR_UNKNOWN_JOB
                with pytest.raises(ServiceError) as err:
                    client.request("frobnicate")
                assert err.value.type == ERR_INVALID_REQUEST


class TestAdmissionAndLifecycle:
    def test_queue_full_is_a_typed_rejection(self, tmp_path, stub_runs):
        stub_runs["gate"].clear()
        with _harness(tmp_path, max_queue=1, max_running=1) as harness:
            with harness.client() as client:
                running = client.submit(**SPEC)
                queued = client.submit(**SPEC)
                with pytest.raises(ServiceError) as err:
                    client.submit(**SPEC)
                assert err.value.type == ERR_QUEUE_FULL
                stub_runs["gate"].set()
                assert client.wait(running, timeout_s=60)["state"] == \
                    "done"
                assert client.wait(queued, timeout_s=60)["state"] == \
                    "done"

    def test_drain_finishes_queue_then_rejects(self, tmp_path,
                                               stub_runs):
        stub_runs["gate"].clear()
        with _harness(tmp_path) as harness:
            with harness.client() as client:
                first = client.submit(**SPEC)
                second = client.submit(**SPEC)
                assert client.drain() == "draining"
                with pytest.raises(ServiceError) as err:
                    client.submit(**SPEC)
                assert err.value.type == ERR_DRAINING
                stub_runs["gate"].set()
                assert client.wait(first, timeout_s=60)["state"] == "done"
                assert client.wait(second, timeout_s=60)["state"] == \
                    "done"
                assert client.status()["state"] == "drained"

    def test_deadline_is_terminal_and_does_not_wedge_the_queue(
            self, tmp_path, stub_runs):
        stub_runs["gate"].clear()
        try:
            with _harness(tmp_path) as harness:
                with harness.client() as client:
                    slow = client.submit(deadline_s=0.3, retries=0,
                                         **SPEC)
                    job = client.wait(slow, timeout_s=60)
                    assert job["state"] == "failed"
                    assert job["error"]["type"] == ERR_DEADLINE
                    # the abandoned attempt owns its thread; the queue
                    # must keep moving
                    stub_runs["gate"].set()
                    quick = client.submit(**SPEC)
                    assert client.wait(quick, timeout_s=60)["state"] == \
                        "done"
        finally:
            stub_runs["gate"].set()

    def test_recoverable_faults_retry_with_backoff_then_succeed(
            self, tmp_path, stub_runs):
        stub_runs["fail"] = [OSError("transient 1"), OSError("transient 2")]
        with _harness(tmp_path, job_retries=2,
                      breaker_threshold=10) as harness:
            with harness.client() as client:
                job = client.wait(client.submit(**SPEC), timeout_s=60)
        assert job["state"] == "done"
        assert job["attempts"] == 3

    def test_deterministic_failures_never_retry(self, tmp_path,
                                                stub_runs):
        stub_runs["fail"] = [ReplayError("output mismatch at cycle 3")]
        with _harness(tmp_path, job_retries=5) as harness:
            with harness.client() as client:
                job = client.wait(client.submit(**SPEC), timeout_s=60)
        assert job["state"] == "failed"
        assert job["error"]["type"] == ERR_REPLAY_MISMATCH
        assert job["attempts"] == 1
        assert stub_runs["n"] == 1

    def test_cancel_queued_job(self, tmp_path, stub_runs):
        stub_runs["gate"].clear()
        with _harness(tmp_path) as harness:
            with harness.client() as client:
                running = client.submit(**SPEC)
                queued = client.submit(**SPEC)
                assert client.cancel(queued)["cancelled"] is True
                job = client.job(queued)
                assert job["state"] == "cancelled"
                assert job["error"]["type"] == ERR_CANCELLED
                stub_runs["gate"].set()
                assert client.wait(running, timeout_s=60)["state"] == \
                    "done"
        assert stub_runs["n"] == 1     # the cancelled job never ran

    def test_same_design_jobs_serialize_on_the_design_lock(
            self, tmp_path, stub_runs):
        """Two running slots, one design: the cached circuit pair and
        replay engine are stateful per design, so the attempts must
        never overlap even when the scheduler runs both jobs."""
        stub_runs["gate"].clear()
        with _harness(tmp_path, max_running=2) as harness:
            with harness.client() as client:
                first = client.submit(**SPEC)
                second = client.submit(**SPEC)
                time.sleep(0.3)
                status = client.status()
                assert len(status["running"]) == 2   # both hold a slot
                assert stub_runs["inflight"] == 1    # only one executes
                stub_runs["gate"].set()
                assert client.wait(first, timeout_s=60)["state"] == \
                    "done"
                assert client.wait(second, timeout_s=60)["state"] == \
                    "done"
        assert stub_runs["max_inflight"] == 1

    def test_job_tracer_carries_job_id_correlation(self, tmp_path,
                                                   stub_runs):
        """Every attempt's tracer is born with the job id as its
        correlation dict, so all spans (worker processes included, via
        the supervisor payload) are joinable per job."""
        with _harness(tmp_path) as harness:
            with harness.client() as client:
                job_id = client.submit(**SPEC)
                assert client.wait(job_id,
                                   timeout_s=60)["state"] == "done"
        tracer = stub_runs["kwargs"][0]["tracer"]
        assert tracer.correlation == {"job_id": job_id}

    def test_metrics_command_and_http_scrape(self, tmp_path,
                                             stub_runs):
        import urllib.error
        import urllib.request
        from repro.obs import validate_exposition
        with _harness(tmp_path, metrics_port=0) as harness:
            with harness.client() as client:
                client.wait(client.submit(**SPEC), timeout_s=60)
                response = client.request("metrics")
                assert response["content_type"].startswith("text/plain")
                page = client.metrics()
                assert validate_exposition(page) == []
                assert "repro_service_jobs_done_total" in page
                assert "repro_service_uptime_seconds" in page
                assert "repro_service_queue_depth" in page
                assert "repro_process_rss_bytes" in page
                assert "repro_service_job_seconds_bucket" in page
                count = [line for line in page.splitlines()
                         if line.startswith(
                             "repro_service_job_seconds_count ")]
                assert count and float(count[0].split()[-1]) >= 1
                # The HTTP listener serves the same exposition.
                host, port = harness.service.metrics_address
                url = f"http://{host}:{port}/metrics"
                with urllib.request.urlopen(url, timeout=30) as resp:
                    ctype = resp.headers.get("Content-Type", "")
                    http_page = resp.read().decode()
                assert ctype.startswith("text/plain")
                assert "version=0.0.4" in ctype
                assert validate_exposition(http_page) == []
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://{host}:{port}/else", timeout=30)
                assert err.value.code == 404

    def test_metrics_breaker_floor_labels(self, tmp_path, stub_runs,
                                          monkeypatch):
        monkeypatch.setattr(daemon_mod, "quarantine_compiled_kernel",
                            lambda design: None)
        # Threshold 3: two crashes accumulate as charges without
        # demoting, so both the floor-info and the failure-count
        # families render with their labels.
        stub_runs["health"] = [SimpleNamespace(crashes=2, timeouts=0),
                              SimpleNamespace(crashes=1, timeouts=0)]
        with _harness(tmp_path, breaker_threshold=3) as harness:
            with harness.client() as client:
                job = client.wait(client.submit(gl_backend="c", **SPEC),
                                  timeout_s=60)
                charged = client.metrics()
                job2 = client.wait(client.submit(gl_backend="c",
                                                 **SPEC), timeout_s=60)
                demoted = client.metrics()
        assert job["state"] == job2["state"] == "done"
        assert ('repro_service_breaker_floor_info'
                '{design="rocket_mini",floor="none"} 1') in charged
        assert ('repro_service_breaker_failures'
                '{backend="c",design="rocket_mini"} 2') in charged
        # The third crash tips the threshold: floor moves to interp
        # and the rung's charges reset.
        assert ('repro_service_breaker_floor_info'
                '{design="rocket_mini",floor="interp"} 1') in demoted
        from repro.obs import validate_exposition
        assert validate_exposition(charged) == []
        assert validate_exposition(demoted) == []

    def test_breaker_demotion_reported_in_job_status(
            self, tmp_path, stub_runs, monkeypatch):
        monkeypatch.setattr(daemon_mod, "quarantine_compiled_kernel",
                            lambda design: "/quarantine/glso.pkl")
        # two crashes on the first job trip the threshold
        stub_runs["health"] = [SimpleNamespace(crashes=2, timeouts=0)]
        with _harness(tmp_path, breaker_threshold=2) as harness:
            with harness.client() as client:
                stormy = client.wait(client.submit(gl_backend="c",
                                                   **SPEC),
                                     timeout_s=60)
                calm = client.wait(client.submit(gl_backend="c", **SPEC),
                                   timeout_s=60)
                breakers = client.status()["breakers"]
        assert stormy["state"] == calm["state"] == "done"
        assert stormy["backends"] == ["c"]
        assert stormy["crashes"] == 2
        event = stormy["demotions"][0]
        assert event["from"] == "c" and event["to"] == "interp"
        assert event["quarantined"] == "/quarantine/glso.pkl"
        assert calm["backends"] == ["interp"]      # capped by the floor
        assert breakers["rocket_mini"]["floor"] == "interp"


class TestTeardown:
    def test_open_connection_is_closed_before_the_loop(self, tmp_path,
                                                       stub_runs):
        harness = _harness(tmp_path).start()
        try:
            address = harness.address
            with socket.create_connection(
                    (address["host"], address["port"]), timeout=30) as s:
                f = s.makefile("rwb")
                f.write(encode_line({"cmd": "ping"}))
                f.flush()
                assert decode_line(f.readline())["ok"] is True
                assert len(harness.service._clients) == 1
                harness.stop()
                # the daemon finished the handler, then closed the
                # socket: the client reads end-of-stream
                assert not harness.service._clients
                assert f.readline() == b""
        finally:
            harness.stop()


class TestQueueResume:
    def test_restart_resumes_pending_without_recomputing_finished(
            self, tmp_path, stub_runs):
        state_dir = str(tmp_path / "state")
        os.makedirs(state_dir)
        spec = JobSpec.from_dict(dict(SPEC))
        with ServiceJournal(os.path.join(state_dir,
                                         "jobs.journal")) as journal:
            journal.job_accepted("job-000001", spec.as_dict())
            journal.job_finished("job-000001", "done", digest="d1",
                                 summary={"cycles": 1})
            journal.job_accepted("job-000002", spec.as_dict())
        with ServiceHarness(state_dir=state_dir) as harness:
            with harness.client() as client:
                pending = client.wait("job-000002", timeout_s=60)
                finished = client.job("job-000001")
                fresh = client.submit(**SPEC)   # numbering continues
        assert finished["state"] == "done"
        assert finished["digest"] == "d1"
        assert finished["resumed"] is True
        assert pending["state"] == "done" and pending["resumed"] is True
        assert fresh == "job-000003"    # numbering survives restart
        assert stub_runs["n"] == 2      # job-000002 and job-000003 only
        state = load_service_state(os.path.join(state_dir,
                                                "jobs.journal"))
        assert not state.pending        # drain finished everything
        assert set(state.finished) == {"job-000001", "job-000002",
                                       "job-000003"}


class TestChaosCampaign:
    def test_every_service_fault_recovered(self):
        """Acceptance: under client disconnects, a poisoned C
        kernel, a worker SIGKILL storm (walking the full demotion
        ladder), ENOSPC on the cache, and a daemon SIGKILL+restart,
        every job completes bit-identically to a clean run or fails
        typed — and the campaign itself is bounded (no hangs)."""
        verdicts = run_service_campaign(timeout=300.0)
        assert set(verdicts) == {
            "client-disconnect", "poisoned-glso", "worker-kill-storm",
            "bootstrap-death", "enospc", "daemon-restart"}
        assert all(v == "recovered" for v in verdicts.values()), verdicts
