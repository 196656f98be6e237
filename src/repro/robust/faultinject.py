"""Deliberate fault injection for the replay pipeline.

Correctness machinery that has never been watched firing is a hope, not
a guarantee (the lesson of compiler-test infrastructures that inject
faults to prove the checkers check).  This module sabotages the replay
pipeline on purpose — bit-flips in captured snapshot state, truncated
or corrupted cache entries and journal records, workers killed or
stalled mid-replay — and the accompanying test suite asserts the
robustness layer either *detects* the damage (strict-mode mismatch,
checksum rejection) or *recovers* from it (retry, respawn, serial
fallback, journal tail repair).

Two halves:

* **Worker sabotage** — :class:`FaultSpec` / :class:`FaultPlan` plug
  into the supervised pool through ``ReplayEngine.replay_all(...,
  workers=N, fault_plan=plan)``; the plan is consumed supervisor-side,
  so a snapshot whose dispatch was sabotaged is not re-faulted on
  retry (modelling transient faults).  Workers
  are killed, stalled or made to raise mid-replay, or killed during
  bootstrap before they have read their engine payload.
* **Data corruption** — :func:`flip_snapshot_bit`,
  :func:`corrupt_file`, :func:`corrupt_cache_entry`,
  :func:`corrupt_journal_tail` damage artifacts the way real storage
  and memory do.

:func:`run_campaign` strings the standard battery together and reports
one verdict per fault — the executable form of the acceptance criteria.
"""

from __future__ import annotations

import contextlib
import copy
import errno
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class FaultSpec:
    """One deliberate fault, executed inside a replay worker."""

    kind: str                # "kill" | "stall" | "error" | "bootstrap-death"
    index: int = None        # snapshot position to hit (None = any)
    times: int = 1           # how many dispatch attempts to sabotage
    seconds: float = 3600.0  # stall duration (stall faults)
    exit_code: int = 43      # worker exit status (kill, bootstrap-death)


class FaultPlan:
    """Decides which task dispatches get sabotaged.

    ``pick`` runs in the *supervisor* (parent) process, so consuming a
    spec's ``times`` budget there guarantees the retry of a sabotaged
    snapshot runs clean — the definition of a transient fault.
    ``bootstrap-death`` specs are not task faults: ``pick_bootstrap``
    hands them to newly spawned workers instead, which die before
    reading their engine payload.
    """

    def __init__(self, specs):
        self.specs = list(specs)

    def pick(self, index, snapshot):
        for spec in self.specs:
            if (spec.kind != "bootstrap-death" and spec.times > 0
                    and (spec.index is None or spec.index == index)):
                spec.times -= 1
                return spec
        return None

    def pick_bootstrap(self):
        """The fault for the next spawned worker's bootstrap, or None."""
        for spec in self.specs:
            if spec.kind == "bootstrap-death" and spec.times > 0:
                spec.times -= 1
                return spec
        return None


def apply_worker_fault(spec):
    """Executed inside a worker process just before a replay (or, for
    ``bootstrap-death``, before it reads its engine payload)."""
    if spec.kind in ("kill", "bootstrap-death"):
        os._exit(spec.exit_code)
    elif spec.kind == "stall":
        time.sleep(spec.seconds)
    elif spec.kind == "error":
        raise RuntimeError(
            f"injected transient worker fault (snapshot {spec.index})")
    else:
        raise ValueError(f"unknown fault kind {spec.kind!r}")


# -- data corruption ---------------------------------------------------------


def flip_snapshot_bit(snapshot, where="state", rng=None):
    """Flip one bit of a snapshot in place; returns a description.

    ``where="state"`` hits bit 0 of one slot of the register vector (a
    sealed snapshot must then fail ``validate()``); ``where="trace"``
    hits bit 0 of one recorded output word (an unsealed snapshot must
    then fail strict replay).
    """
    rng = rng or random.Random(0)
    if where == "state":
        regs = snapshot.state.reg_values
        slot = rng.randrange(len(regs))
        regs[slot] ^= np.uint64(1)
        return f"flipped bit 0 of register slot {slot}"
    if where == "trace":
        outputs = snapshot.output_trace
        cyc = rng.randrange(outputs.shape[0])
        col = rng.randrange(outputs.shape[1])
        outputs[cyc, col] ^= 1
        return (f"flipped bit 0 of output column {col} at trace cycle "
                f"{cyc}")
    raise ValueError(f"unknown flip target {where!r}")


def corrupt_file(path, mode="truncate", rng=None):
    """Damage an on-disk artifact the way storage does; returns a
    description.  ``truncate`` halves the file (torn write);
    ``bitflip`` flips one bit mid-file (media error)."""
    size = os.path.getsize(path)
    if mode == "truncate":
        keep = size // 2
        os.truncate(path, keep)
        return f"truncated {path} from {size} to {keep} byte(s)"
    if mode == "bitflip":
        rng = rng or random.Random(0)
        offset = size // 2 if size else 0
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0x40]))
        return f"flipped a bit of byte {offset} in {path}"
    raise ValueError(f"unknown corruption mode {mode!r}")


def corrupt_cache_entry(cache, kind, key, mode="truncate"):
    """Damage one artifact-cache entry on disk."""
    return corrupt_file(cache._path(kind, key), mode=mode)


def poison_cache_entry(cache, kind, key, payload):
    """Replace a cache entry with a *well-framed* wrong artifact.

    Unlike :func:`corrupt_cache_entry` — which damages the frame so the
    CRC check catches it — a poisoned entry passes every integrity
    check and fails only when its consumer tries to use it (a compiled
    kernel whose ``so`` bytes are not a loadable shared object, say).
    This is the fault class the service's backend circuit breaker and
    the replay kernel's load-validation exist for.
    """
    if cache.put(kind, key, payload) is None:
        raise RuntimeError(f"could not poison cache entry {kind}/{key}")
    return f"poisoned cache entry {kind}/{key[:12]}…"


def poisoned_glso_payload():
    """A glso entry that frames correctly but whose shared object
    cannot possibly load."""
    return {"so": b"\x7fELFnot-actually-a-shared-object" * 8}


@contextlib.contextmanager
def enospc_cache_writes():
    """Make every artifact-cache write die with ENOSPC for the
    duration — the filling-disk fault.  Uses the cache's put seam, so
    the fault lands after the entry's bytes are written but before
    they are durable: exactly where a real full disk tears a write."""
    from ..parallel import cache as cache_mod

    def _fault():
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    previous = cache_mod.set_put_fault(_fault)
    try:
        yield
    finally:
        cache_mod.set_put_fault(previous)


def corrupt_journal_tail(path, mode="truncate"):
    """Damage the tail of a run journal (torn final record)."""
    size = os.path.getsize(path)
    if mode == "truncate":
        os.truncate(path, max(0, size - 3))
        return f"tore 3 byte(s) off the tail of {path}"
    if mode == "bitflip":
        offset = max(0, size - 2)
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0x40]))
        return f"flipped a bit of tail byte {offset} in {path}"
    raise ValueError(f"unknown corruption mode {mode!r}")


# -- the standard campaign ---------------------------------------------------


def _result_key(result):
    return (result.snapshot_cycle, result.cycles, result.mismatches,
            result.power.total_w,
            tuple(sorted(result.power.by_group.items())))


@contextlib.contextmanager
def _setenv(name, value):
    """Set one environment variable for the duration, then restore it."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def run_campaign(engine, snapshots, workers=2, timeout=10.0):
    """Run the standard fault battery; returns ``{fault: verdict}``.

    Every verdict must be ``"recovered"`` (the run completed with
    results identical to a clean run and the incident on the health
    report) or ``"detected"`` (the run refused to produce a number).
    Anything else — a silent wrong answer, a hang — shows up as
    ``"missed"`` and is a robustness bug.  Supervised legs replay one
    snapshot per batch, so each fault's index is its own dispatch.
    """
    from .journal import RunJournal, read_journal, TYPE_META
    from ..core.replay import ReplayError
    from ..scan.snapshot import SnapshotError

    snapshots = list(snapshots)
    baseline = [_result_key(r)
                for r in engine.replay_all(snapshots, workers=1)]
    verdicts = {}

    def supervised(snaps, plan=None):
        results = engine.replay_all(snaps, workers=workers, batch_lanes=1,
                                    timeout=timeout, fault_plan=plan)
        return results, engine.last_health

    def expect_recovery(name, plan):
        try:
            results, health = supervised(snapshots, plan)
        except Exception:
            verdicts[name] = "missed"
            return
        ok = ([_result_key(r) for r in results] == baseline
              and not health.healthy)
        verdicts[name] = "recovered" if ok else "missed"

    expect_recovery("worker-kill",
                    FaultPlan([FaultSpec("kill", index=0)]))
    expect_recovery("worker-stall",
                    FaultPlan([FaultSpec("stall", index=1,
                                         seconds=timeout * 10)]))
    expect_recovery("worker-error",
                    FaultPlan([FaultSpec("error", index=0)]))
    # spawned, not forked: a forked child can die before the pool
    # dispatches its first task, which leaves no incident to recover
    with _setenv("REPRO_START_METHOD", "spawn"):
        expect_recovery("bootstrap-death",
                        FaultPlan([FaultSpec("bootstrap-death")]))

    def expect_detection(name, snaps, exc_types):
        try:
            supervised(snaps)
        except exc_types:
            verdicts[name] = "detected"
        except Exception:
            verdicts[name] = "missed"
        else:
            verdicts[name] = "missed"

    flipped = copy.deepcopy(snapshots)
    flip_snapshot_bit(flipped[0], where="state")
    expect_detection("snapshot-bitflip", flipped, SnapshotError)

    unsealed = copy.deepcopy(snapshots)
    unsealed[0].checksum = None
    flip_snapshot_bit(unsealed[0], where="trace")
    expect_detection("trace-bitflip", unsealed, ReplayError)

    # Cache corruption: a damaged entry must be dropped and rebuilt.
    from ..parallel.cache import ArtifactCache
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        key = "ab" * 20
        cache.put("campaign", key, {"x": 1})
        corrupt_cache_entry(cache, "campaign", key, mode="bitflip")
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            dropped = cache.get("campaign", key) is None
        rebuilt = (cache.put("campaign", key, {"x": 1}) is not None
                   and cache.get("campaign", key) == {"x": 1})
        verdicts["cache-corruption"] = (
            "recovered" if dropped and rebuilt else "missed")

        # Journal tail corruption: torn record truncated, not fatal.
        jpath = os.path.join(tmp, "run.journal")
        with RunJournal(jpath) as journal:
            journal.append(TYPE_META, {"campaign": True})
            journal.append(TYPE_META, {"record": 2})
        corrupt_journal_tail(jpath, mode="bitflip")
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            records = read_journal(jpath)
        verdicts["journal-corruption"] = (
            "recovered" if len(records) == 1
            and records[0] == (TYPE_META, {"campaign": True})
            else "missed")

    return verdicts


# -- the service-level campaign ----------------------------------------------


def run_service_campaign(design="rocket_mini", workload="towers", *,
                         sample_size=4, replay_length=32, seed=3,
                         timeout=600.0, include_restart=True,
                         state_root=None):
    """Chaos campaign against the job service; returns ``{fault:
    verdict}``.

    The acceptance bar, executable: under every service-level fault —
    a client that vanishes mid-job, a poisoned compiled kernel, a
    worker SIGKILL storm, a worker that dies before its bootstrap, a
    disk that fills mid-write, a daemon killed
    and restarted mid-queue — every job either completes with results
    **bit-identical** to a clean serial run (digest equality) or fails
    with a typed error.  Never a hang (every wait is bounded), never a
    wedged queue, never a silently wrong number.  The kill-storm leg
    additionally asserts the backend demotion ladder walked all the
    way down (``c -> interp``) and was reported in job
    status.  ``include_restart=False`` skips the subprocess
    daemon-kill leg (for hosts where spawning a second interpreter is
    unwelcome).
    """
    from ..core.flow import run_strober, clear_caches
    from ..parallel.cache import get_cache
    from ..service import (
        ServiceHarness, ServiceClient, compiled_kernel_key,
        result_digest,
    )

    spec = {"design": design, "workload": workload,
            "sample_size": sample_size, "replay_length": replay_length,
            "seed": seed}
    root = state_root or tempfile.mkdtemp(prefix="repro-service-chaos-")
    owns_root = state_root is None
    verdicts = {}

    # The truth every faulted job is measured against: one clean,
    # serial, in-process run of the same spec.
    clean = run_strober(design, workload, sample_size=sample_size,
                        replay_length=replay_length, seed=seed,
                        workers=1)
    clean_digest = result_digest(clean.replays)

    def good(job):
        return job["state"] == "done" and job["digest"] == clean_digest

    def harness(name, **kwargs):
        return ServiceHarness(state_dir=os.path.join(root, name),
                              stop_timeout=timeout, **kwargs)

    def attempt(name, fn):
        try:
            verdicts[name] = fn()
        except Exception:
            verdicts[name] = "missed"

    def client_disconnect():
        # The submitting client drops dead mid-job; the job is the
        # daemon's (journaled before the ack), not the connection's.
        with harness("disconnect") as h:
            client = h.client(timeout=timeout).connect()
            job_id = client.submit(**spec)
            client.disconnect_abruptly()
            with h.client(timeout=timeout + 60) as fresh:
                job = fresh.wait(job_id, timeout_s=timeout)
        return "recovered" if good(job) else "missed"

    def poisoned_glso():
        # A well-framed glso entry whose .so cannot load: the kernel
        # layer must catch the load failure and rebuild, not crash.
        key = compiled_kernel_key(design)
        poison_cache_entry(get_cache(), "glso", key,
                           poisoned_glso_payload())
        with harness("poisoned") as h:
            with h.client(timeout=timeout + 60) as client:
                job_id = client.submit(gl_backend="c", **spec)
                job = client.wait(job_id, timeout_s=timeout)
        return "recovered" if good(job) else "missed"

    def kill_storm():
        # The first crash-storm job walks the breaker down the full
        # ladder, the second crashes on the floor without demoting it
        # further, and the third runs clean there.  All three must still be
        # bit-identical — backends and the serial fallback agree by
        # construction.
        storm = [{"kind": "kill", "times": 5}]
        with harness("storm", breaker_threshold=2) as h:
            with h.client(timeout=timeout + 60) as client:
                jobs = []
                for faults in (storm, storm, None):
                    job_id = client.submit(
                        gl_backend="c", workers=2,
                        faults=copy.deepcopy(faults) or [], **spec)
                    jobs.append(client.wait(job_id, timeout_s=timeout))
                breakers = client.status()["breakers"]
        floor = breakers.get(design, {}).get("floor")
        demoted = [d["to"] for job in jobs for d in job["demotions"]]
        ladder_ok = (floor == "interp" and demoted == ["interp"]
                     and jobs[2]["backends"] == ["interp"]
                     and jobs[0]["crashes"] >= 2)
        return ("recovered" if ladder_ok and all(map(good, jobs))
                else "missed")

    def bootstrap_death():
        # A replay worker dies before reading its engine payload.  The
        # daemon is threaded, so its pools spawn and the death lands as
        # a crash the supervisor absorbs by respawning.
        with harness("bootstrap") as h:
            with h.client(timeout=timeout + 60) as client:
                job_id = client.submit(
                    workers=2, faults=[{"kind": "bootstrap-death"}],
                    **spec)
                job = client.wait(job_id, timeout_s=timeout)
        return ("recovered" if good(job) and job["crashes"] >= 1
                else "missed")

    def enospc():
        # Disk fills mid-write on a stone-cold cache: every artifact
        # write dies, the job completes anyway, and no partial entry
        # is left live.
        fresh_cache = os.path.join(root, "enospc-cache")
        with _setenv("REPRO_CACHE_DIR", fresh_cache):
            clear_caches()
            try:
                with enospc_cache_writes():
                    with harness("enospc") as h:
                        with h.client(timeout=timeout + 60) as client:
                            job_id = client.submit(**spec)
                            job = client.wait(job_id, timeout_s=timeout)
            finally:
                clear_caches()
        leftovers = [name for _, _, files in os.walk(fresh_cache)
                     for name in files if name.endswith(".pkl")]
        return ("recovered" if good(job) and not leftovers
                else "missed")

    def daemon_restart():
        # SIGKILL the daemon mid-queue; a restart on the same state
        # dir must finish the queue without recomputing the job that
        # already finished (its run journal stays byte-for-byte).
        import json
        import subprocess
        import sys

        import repro
        state_dir = os.path.join(root, "restart")
        sock = os.path.join(root, "restart.sock")
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        command = [sys.executable, "-m", "repro.service",
                   "--state-dir", state_dir, "--unix-socket", sock]

        def spawn():
            proc = subprocess.Popen(command, env=env,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL,
                                    text=True)
            if not json.loads(proc.stdout.readline() or "null"):
                raise RuntimeError("daemon failed to start")
            return proc

        proc = spawn()
        jobs = []
        try:
            with ServiceClient(sock, timeout=timeout + 60) as client:
                ids = [client.submit(**spec) for _ in range(3)]
                first = client.wait(ids[0], timeout_s=timeout)
            proc.kill()                      # no drain, no goodbye
            proc.wait(timeout=60)
            first_journal = os.path.join(state_dir, "runs",
                                         f"{ids[0]}.journal")
            size_before = os.path.getsize(first_journal)
            proc = spawn()
            with ServiceClient(sock, timeout=timeout + 60) as client:
                jobs = [client.wait(job_id, timeout_s=timeout)
                        for job_id in ids]
                client.shutdown()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        resumed_ok = (good(first)
                      and os.path.getsize(first_journal) == size_before
                      and all(job["resumed"] for job in jobs))
        return ("recovered" if resumed_ok and all(map(good, jobs))
                else "missed")

    try:
        attempt("client-disconnect", client_disconnect)
        attempt("poisoned-glso", poisoned_glso)
        attempt("worker-kill-storm", kill_storm)
        attempt("bootstrap-death", bootstrap_death)
        attempt("enospc", enospc)
        if include_restart:
            attempt("daemon-restart", daemon_restart)
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    return verdicts
