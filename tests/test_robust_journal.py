"""Crash-safe run journal: framed/checksummed records, torn-tail
repair, and run_strober interrupt-and-resume (repro.robust.journal)."""

import os

import pytest

from repro.core import run_strober, clear_caches
from repro.core.replay import ReplayEngine
from repro.robust import (
    RunJournal, read_journal, corrupt_journal_tail,
    TYPE_META, TYPE_SNAPSHOT, TYPE_SIM, TYPE_RESULT,
)
from repro.robust.journal import TYPE_JOB, TYPE_JOB_UPDATE, load_resume


RUN_KW = dict(design="rocket_mini", workload="towers", sample_size=6,
              replay_length=32, backend="auto", seed=3)


@pytest.fixture(scope="module")
def baseline():
    return run_strober(**RUN_KW)


def _energy_key(energy):
    return (energy.power.mean, energy.power.half_width,
            energy.total_cycles, energy.instructions,
            energy.dram_power_mw,
            tuple(sorted((g, e.mean, e.half_width)
                         for g, e in energy.breakdown.items())))


class TestRecordFraming:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j")
        with RunJournal(path) as journal:
            journal.append(TYPE_META, {"design": "x", "seed": 1})
            journal.append(TYPE_SNAPSHOT, {"index": 0, "snapshot": [1, 2]})
            journal.append(TYPE_RESULT, {"index": 0, "result": "r"})
        records = read_journal(path)
        assert records == [
            (TYPE_META, {"design": "x", "seed": 1}),
            (TYPE_SNAPSHOT, {"index": 0, "snapshot": [1, 2]}),
            (TYPE_RESULT, {"index": 0, "result": "r"}),
        ]

    def test_append_survives_reopen(self, tmp_path):
        path = str(tmp_path / "j")
        with RunJournal(path) as journal:
            journal.append(TYPE_META, {"a": 1})
        with RunJournal(path) as journal:
            journal.append(TYPE_SIM, {"b": 2})
        assert len(read_journal(path)) == 2

    def test_reset_empties_the_file(self, tmp_path):
        path = str(tmp_path / "j")
        with RunJournal(path) as journal:
            journal.append(TYPE_META, {"a": 1})
            journal.reset()
            journal.append(TYPE_META, {"a": 2})
        assert read_journal(path) == [(TYPE_META, {"a": 2})]


class TestTornTailRepair:
    def _journal_with(self, path, n):
        with RunJournal(path) as journal:
            for i in range(n):
                journal.append(TYPE_RESULT, {"index": i, "result": i * 10})

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_tail_dropped_and_truncated(self, tmp_path, mode):
        path = str(tmp_path / "j")
        self._journal_with(path, 3)
        corrupt_journal_tail(path, mode=mode)
        with pytest.warns(RuntimeWarning, match="journal"):
            records = read_journal(path)
        assert records == [(TYPE_RESULT, {"index": 0, "result": 0}),
                           (TYPE_RESULT, {"index": 1, "result": 10})]
        # the damage was physically removed: re-read is clean and the
        # journal is appendable again
        assert read_journal(path) == records
        with RunJournal(path) as journal:
            journal.append(TYPE_RESULT, {"index": 2, "result": 20})
        assert len(read_journal(path)) == 3

    def test_trailing_garbage_dropped(self, tmp_path):
        path = str(tmp_path / "j")
        self._journal_with(path, 2)
        with open(path, "ab") as f:
            f.write(b"XXXXXXXXXXXXXXXXXXXXXXX")
        with pytest.warns(RuntimeWarning, match="magic"):
            assert len(read_journal(path)) == 2

    def test_wholly_corrupt_journal_yields_nothing(self, tmp_path):
        path = str(tmp_path / "j")
        with open(path, "wb") as f:
            f.write(b"not a journal at all")
        with pytest.warns(RuntimeWarning):
            assert read_journal(path) == []


class TestLoadResume:
    def test_missing_or_empty_file(self, tmp_path):
        path = str(tmp_path / "j")
        assert load_resume(path, {"a": 1}) is None
        open(path, "wb").close()
        assert load_resume(path, {"a": 1}) is None

    def test_parameter_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "j")
        with RunJournal(path) as journal:
            journal.append(TYPE_META, {"seed": 1})
        with pytest.warns(RuntimeWarning, match="different run"):
            assert load_resume(path, {"seed": 2}) is None

    def test_interrupted_before_sim_finished(self, tmp_path):
        path = str(tmp_path / "j")
        with RunJournal(path) as journal:
            journal.append(TYPE_META, {"seed": 1})
            journal.append(TYPE_SNAPSHOT, {"index": 0, "snapshot": "s"})
        with pytest.warns(RuntimeWarning, match="before the simulation"):
            assert load_resume(path, {"seed": 1}) is None


class TestRunStroberResume:
    def test_interrupt_and_resume_bit_identical(self, baseline, tmp_path,
                                                monkeypatch):
        """Acceptance: a run interrupted mid-replay resumes from the
        journal — skipping the FAME simulation and the finished
        replays — and produces a bit-identical energy estimate."""
        jpath = str(tmp_path / "run.journal")
        calls = {"n": 0}
        orig = ReplayEngine.replay_batch

        def bomb(self, snapshots, strict=True):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("simulated crash mid-replay")
            return orig(self, snapshots, strict=strict)

        # one snapshot per batch, so the crash lands after 3 replays
        monkeypatch.setattr(ReplayEngine, "replay_batch", bomb)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_strober(**RUN_KW, journal=jpath, batch_lanes=1)
        monkeypatch.setattr(ReplayEngine, "replay_batch", orig)

        # resume must not rerun the FAME simulation
        import repro.core.flow as flow_mod
        clear_caches()

        def no_sim(*args, **kwargs):
            raise AssertionError("run_workload ran despite the journal")

        monkeypatch.setattr(flow_mod, "run_workload", no_sim)
        resumed = run_strober(**RUN_KW, journal=jpath)
        assert resumed.timings["resumed_sim"]
        assert resumed.timings["resumed_replays"] == 3
        assert _energy_key(resumed.energy) == _energy_key(baseline.energy)

    def test_completed_journal_resumes_everything(self, baseline,
                                                  tmp_path):
        jpath = str(tmp_path / "run.journal")
        first = run_strober(**RUN_KW, journal=jpath)
        again = run_strober(**RUN_KW, journal=jpath)
        assert again.timings["resumed_sim"]
        assert again.timings["resumed_replays"] == len(first.snapshots)
        assert _energy_key(again.energy) == _energy_key(baseline.energy)

    def test_one_lane_journal_resumes_under_defaults(self, tmp_path):
        # the lane count is advisory: a journal written with 1-lane
        # batches resumes under the 64-lane default
        jpath = str(tmp_path / "run.journal")
        first = run_strober(**RUN_KW, journal=jpath, batch_lanes=1)
        again = run_strober(**RUN_KW, journal=jpath)
        assert again.timings["batch_lanes"] == 64
        assert again.timings["resumed_replays"] == len(first.snapshots)
        assert _energy_key(again.energy) == _energy_key(first.energy)
        assert [r.power.total_w for r in again.replays] == \
            [r.power.total_w for r in first.replays]

    def test_journal_records_are_complete(self, tmp_path):
        jpath = str(tmp_path / "run.journal")
        run = run_strober(**RUN_KW, journal=jpath)
        records = read_journal(jpath)
        types = [rtype for rtype, _obj in records]
        n = len(run.snapshots)
        assert types[0] == TYPE_META
        assert types.count(TYPE_SNAPSHOT) == n
        assert types.count(TYPE_SIM) == 1
        assert types.count(TYPE_RESULT) == n
        sim = next(obj for rtype, obj in records if rtype == TYPE_SIM)
        assert sim["cycles"] == run.cycles
        assert sim["n_snapshots"] == n

    def test_changed_parameters_invalidate_the_journal(self, tmp_path):
        jpath = str(tmp_path / "run.journal")
        run_strober(**RUN_KW, journal=jpath)
        other_kw = dict(RUN_KW, seed=RUN_KW["seed"] + 1)
        with pytest.warns(RuntimeWarning, match="different run"):
            fresh = run_strober(**other_kw, journal=jpath)
        assert not fresh.timings["resumed_sim"]
        # the journal now belongs to the new run
        resumed = run_strober(**other_kw, journal=jpath)
        assert resumed.timings["resumed_sim"]

    def test_torn_journal_tail_still_resumes(self, baseline, tmp_path):
        jpath = str(tmp_path / "run.journal")
        run_strober(**RUN_KW, journal=jpath)
        corrupt_journal_tail(jpath, mode="truncate")
        with pytest.warns(RuntimeWarning, match="journal"):
            resumed = run_strober(**RUN_KW, journal=jpath)
        # the torn final record cost one replay result, nothing more
        assert resumed.timings["resumed_sim"]
        assert resumed.timings["resumed_replays"] == \
            len(baseline.snapshots) - 1
        assert _energy_key(resumed.energy) == _energy_key(baseline.energy)


class TestPrefixWrite:
    """A fresh run writes META, its snapshots and SIM with one fsync:
    resume trusts none of them until SIM lands, so any damage before
    SIM's end must read as an unfinished run and rerun fresh."""

    def test_one_fsync_for_the_records_before_results(self, tmp_path,
                                                      monkeypatch):
        import sys
        import repro.robust.journal as journal_mod
        real_fsync = os.fsync
        calls = []

        def counting(fd):
            if sys._getframe(1).f_globals["__name__"] == \
                    journal_mod.__name__:
                calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        run = run_strober(**RUN_KW, journal=str(tmp_path / "run.journal"))
        # reset + the META/SNAPSHOT/SIM batch + one per RESULT
        assert len(calls) == 2 + len(run.snapshots)

    def test_damage_before_sim_end_reruns_fresh(self, baseline, tmp_path):
        import random
        import warnings
        from repro.robust.journal import _HEADER
        jpath = str(tmp_path / "run.journal")
        run_strober(**RUN_KW, journal=jpath)
        with open(jpath, "rb") as f:
            data = f.read()
        offset = 0
        for rtype, _obj in read_journal(jpath):
            offset += _HEADER.size + _HEADER.unpack_from(data, offset)[2]
            if rtype == TYPE_SIM:
                break
        sim_end = offset
        cuts = sorted({0, 1, sim_end - 1,
                       *random.Random(7).sample(range(sim_end), 4)})
        for cut in cuts:
            for mode in ("truncate", "garble"):
                if mode == "truncate":
                    damaged = data[:cut]
                else:
                    damaged = bytearray(data)
                    damaged[cut] ^= 0x5A
                with open(jpath, "wb") as f:
                    f.write(damaged)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    again = run_strober(**RUN_KW, journal=jpath)
                assert not again.timings["resumed_sim"], (mode, cut)
                assert _energy_key(again.energy) == \
                    _energy_key(baseline.energy), (mode, cut)


class TestForwardCompatibility:
    """Records from newer layers — the service's job records, or types
    not invented yet — must never break run-journal resume."""

    def test_unknown_record_types_skipped_on_resume(self, baseline,
                                                    tmp_path):
        jpath = str(tmp_path / "run.journal")
        run_strober(**RUN_KW, journal=jpath)
        with RunJournal(jpath) as journal:
            journal.append(TYPE_JOB, {"v": 1, "id": "job-000001",
                                      "spec": {}})
            journal.append(99, {"v": 7, "mystery": True})
        resumed = run_strober(**RUN_KW, journal=jpath)
        assert resumed.timings["resumed_sim"]
        assert resumed.timings["resumed_replays"] == \
            len(baseline.snapshots)
        assert _energy_key(resumed.energy) == _energy_key(baseline.energy)
        # the foreign records passed CRC: they are preserved, not
        # mistaken for damage and truncated away
        types = [rtype for rtype, _obj in read_journal(jpath)]
        assert TYPE_JOB in types and 99 in types


class TestServiceJournal:
    """The job daemon's queue journal (repro.service.state) rides the
    same record framing; resume semantics under damage and version
    drift."""

    def _spec(self, design="rocket_mini"):
        return {"v": 1, "design": design, "workload": "towers"}

    def test_round_trip_preserves_fifo_and_numbering(self, tmp_path):
        from repro.service import ServiceJournal, load_service_state
        path = str(tmp_path / "jobs.journal")
        with ServiceJournal(path) as journal:
            journal.job_accepted("job-000001", self._spec())
            journal.job_accepted("job-000002", self._spec())
            journal.job_finished("job-000001", "done", digest="d1",
                                 summary={"cycles": 1})
        state = load_service_state(path)
        assert [job_id for job_id, _ in state.pending] == ["job-000002"]
        assert state.finished["job-000001"]["digest"] == "d1"
        assert state.accepted["job-000002"]["spec"] == self._spec()
        assert state.next_job_number == 3
        assert state.skipped_records == 0

    def test_torn_tail_mid_job_record_loses_only_unacked_job(
            self, tmp_path):
        from repro.service import ServiceJournal, load_service_state
        path = str(tmp_path / "jobs.journal")
        with ServiceJournal(path) as journal:
            journal.job_accepted("job-000001", self._spec())
            journal.job_finished("job-000001", "done", digest="d1")
            journal.job_accepted("job-000002", self._spec())
        corrupt_journal_tail(path, mode="truncate")
        with pytest.warns(RuntimeWarning, match="journal"):
            state = load_service_state(path)
        # the torn job was journaled *before* the ack, so no client
        # ever saw its id: dropping it is correct, everything earlier
        # must survive intact
        assert not state.pending
        assert set(state.finished) == {"job-000001"}
        assert state.next_job_number == 2

    def test_torn_tail_mid_update_returns_job_to_pending(self, tmp_path):
        from repro.service import ServiceJournal, load_service_state
        path = str(tmp_path / "jobs.journal")
        with ServiceJournal(path) as journal:
            journal.job_accepted("job-000001", self._spec())
            journal.job_finished("job-000001", "done", digest="d1")
        corrupt_journal_tail(path, mode="truncate")
        with pytest.warns(RuntimeWarning, match="journal"):
            state = load_service_state(path)
        # losing the terminal record re-queues the job — safe, because
        # its run journal makes the rerun a pure resume
        assert [job_id for job_id, _ in state.pending] == ["job-000001"]
        assert not state.finished

    def test_newer_versions_and_unknown_types_skipped_and_counted(
            self, tmp_path):
        from repro.service import ServiceJournal, load_service_state
        from repro.service.state import JOB_SCHEMA_VERSION
        path = str(tmp_path / "jobs.journal")
        with ServiceJournal(path) as journal:
            journal.job_accepted("job-000001", self._spec())
        with RunJournal(path) as journal:
            journal.append(TYPE_JOB, {"v": JOB_SCHEMA_VERSION + 1,
                                      "id": "job-000002", "spec": {}})
            journal.append(TYPE_JOB_UPDATE, {"v": 1, "id": "job-000077",
                                             "state": "done"})
            journal.append(99, {"v": 1, "id": "job-000003"})
        state = load_service_state(path)
        assert set(state.accepted) == {"job-000001"}
        assert [job_id for job_id, _ in state.pending] == ["job-000001"]
        # newer-versioned job + orphan update + unknown type
        assert state.skipped_records == 3
        # the versioned-but-unknown job id must not perturb numbering
        assert state.next_job_number == 2
