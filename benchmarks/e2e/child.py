"""One measured benchmark process; run.py starts it, never a user.

Usage: ``python3 child.py SPEC.json``.  The spec names the workload,
seed and what to do after the first call (a warm loop, or the traced
calls and reference checks); the process writes its measurements to
``spec["out"]``.
Its clock starts before the interpreter does: run.py puts its
``time.monotonic()`` at spawn in ``$E2E_SPAWN_T``, so the first-result
time includes interpreter start-up and ``import repro``.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback

from layers import LayerTracer, program_targets
from workloads import FAST, WORKLOADS

# Larger than the window count of any workload: the reservoir keeps
# every window, giving the exact all-windows mean power.
ALL_WINDOWS = 1_000_000


class CheckFailed(Exception):
    pass


def digest(run):
    """What every call of one workload must reproduce bit for bit."""
    return [run.cycles, run.result.instret, len(run.replays),
            repr(run.energy.power.mean), repr(run.energy.epi_nj)]


class Calls:
    """``run_strober`` calls of one workload, each checked on return."""

    def __init__(self, run_strober, workload, seed, scratch):
        self.run_strober = run_strober
        self.workload = workload
        self.seed = seed
        self.kwargs = workload.kwargs(seed)
        self.scratch = scratch
        self.attempted = 0
        self.digests = []
        self.first_done = None     # time.monotonic() at the first result
        self._journals = 0

    def call(self, kwargs):
        self.attempted += 1
        start = time.perf_counter()
        run = self.run_strober(**kwargs)
        wall = time.perf_counter() - start
        bad = sum(1 for r in run.replays if r.mismatches)
        if bad:
            raise CheckFailed(f"{bad} replays reported output mismatches")
        return run, wall

    def main(self, **extra):
        """The workload's call; journaled workloads get a fresh journal."""
        kwargs = dict(self.kwargs, **extra)
        if self.workload.journaled:
            self._journals += 1
            kwargs["journal"] = os.path.join(
                self.scratch, f"journal-{os.getpid()}-{self._journals}.rpj")
        run, wall = self.call(kwargs)
        if self.first_done is None:
            self.first_done = time.monotonic()
        self.digests.append(digest(run))
        return run, wall, kwargs

    def resume(self, run, kwargs):
        """Reopen a journaled call's journal; it must replay nothing."""
        again, _ = self.call(kwargs)
        resumed = again.timings.get("resumed_replays")
        if resumed != len(run.snapshots):
            raise CheckFailed(f"resume replayed {len(run.snapshots) - resumed}"
                              f" of {len(run.snapshots)} snapshots again")
        if digest(again) != digest(run):
            raise CheckFailed(f"resume gave {digest(again)}, "
                              f"its run gave {digest(run)}")

    def op(self):
        """One operation: the call, plus its resume when journaled."""
        run, wall, kwargs = self.main()
        if self.workload.journaled:
            self.resume(run, kwargs)
            os.remove(kwargs["journal"])
        return run, wall

    def reference(self, run):
        """The configuration this workload must equal (see workloads)."""
        kwargs = self.workload.reference_kwargs(self.seed)
        if kwargs is None:
            return
        ref, _ = self.call(kwargs)
        if digest(ref) != digest(run):
            raise CheckFailed(f"{self.workload.same_as} gave {digest(ref)}, "
                              f"{self.workload.name} gave {digest(run)}")

    def energy_error_pct(self, run):
        """|sampled mean - all-windows mean| / all-windows mean, in %."""
        base = self.workload.reference_kwargs(self.seed) or self.kwargs
        kwargs = dict(base, workers=1, sample_size=ALL_WINDOWS, **FAST)
        ref, _ = self.call(kwargs)
        exact = ref.energy.power.mean
        return abs(run.energy.power.mean - exact) / exact * 100.0


def warm_loop(calls, seconds, min_calls, rss_after):
    walls = []
    rss_kib = None
    start = time.monotonic()
    while len(walls) < min_calls or time.monotonic() - start < seconds:
        walls.append(calls.op()[1])
        if len(walls) == rss_after:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"run_s": walls, "peak_rss_mb": rss_kib / 1024.0}


def counter(name):
    from repro.obs import get_registry
    return get_registry().value(name)


def supervisor_layers(trace_path, stream_s, run):
    """Worker init and busy share from the program's own worker spans."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    inits = [e["dur"] / 1e6 for e in events
             if e.get("ph") == "X" and e["name"] == "worker.init"]
    busy = sum(e["dur"] / 1e6 for e in events
               if e.get("ph") == "X" and e["name"] == "worker.task")
    workers = max(len(inits), 1)
    return {
        "supervisor.worker_init_s": statistics.fmean(inits) if inits else 0.0,
        "supervisor.worker_busy_frac": (busy / (workers * stream_s)
                                        if stream_s else 0.0),
        "supervisor.incidents": (len(run.health.incidents)
                                 if run.health is not None else 0),
    }


def traced_call(tracer, targets, calls, events, **extra):
    """One main call with the layer wrappers installed around it only."""
    with tracer.installed(targets):
        with tracer.root("call"):
            run, wall, kwargs = calls.main(**extra)
    events.extend(tracer.chrome_events())
    return run, wall, kwargs


def run_layers(tracer, run, wall, base_wall):
    """Per-layer numbers of one traced warm call."""
    t = tracer
    captures = t.count("scan.capture")
    return {
        "fame.run_s": t.total("fame.run"),
        "fame.loop_self_s": t.self_time("fame.run") + t.self_time("fame.step"),
        "fame.endpoint_s": t.total("fame.endpoint"),
        "fame.cycles": t.count("fame.step"),
        "sim.step_s": t.total("sim.step"),
        "sim.step_calls": t.count("sim.step"),
        "sim.io_s": t.total("sim.io"),
        "scan.capture_s": t.total("scan.capture"),
        "scan.captures": captures,
        "scan.kept_ratio": len(run.snapshots) / captures if captures else 0.0,
        "scan.record_s": t.total("scan.record"),
        "scan.seal_s": t.total("scan.seal"),
        "scan.validate_s": t.total("scan.validate"),
        "scan.snapshot_bytes": statistics.fmean(
            len(pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL))
            for s in run.snapshots),
        "replay.stream_s": t.total("replay.stream"),
        "replay.pack_s": t.self_time("replay.batch")
        + t.self_time("replay.scalar"),
        "replay.state_load_s": t.total("replay.state_load"),
        "gl_sim.kernel_s": t.total("gl_sim.kernel"),
        "gl_sim.interp_eval_s": t.total("gl_sim.interp_eval"),
        "gl_sim.activity_s": t.total("gl_sim.activity"),
        "power.analyze_s": t.total("power.analyze"),
        "energy.estimate_s": t.total("energy.estimate"),
        "controller.observe_s": t.total("controller.observe"),
        "obs.history_append_s": t.total("obs.history_append"),
        "journal.append_s": t.total("journal.append"),
        "journal.appends": t.count("journal.append"),
        "run.unattributed_frac": t.self_time("call") / t.total("call"),
        "trace.overhead_pct": (wall / base_wall - 1.0) * 100.0,
    }


def setup_layers(tracer):
    """Per-layer numbers of one traced cold call."""
    t = tracer
    return {
        "hdl.elaborate_s": t.total("hdl.elaborate"),
        "sim.build_s": t.total("sim.build"),
        "gatelevel.flow_s": t.total("gatelevel.flow"),
        "gatelevel.schedule_s": t.total("gatelevel.schedule"),
        "glcodegen.kernel_build_s": t.total("glcodegen.kernel_build"),
    }


def traced(spec, calls, out):
    """The traced run: per-layer numbers, never end-to-end ones."""
    tracer = LayerTracer()
    tracer.calibrate()
    targets = program_targets()
    events = []
    plan = spec["traced"]
    layers = {}
    hits, misses = counter("cache.hits"), counter("cache.misses")
    first, _, _ = traced_call(tracer, targets, calls, events)
    if plan["warm_calls"] == 0:
        # warm start on a filled cache: what loading the artifacts costs
        hits = counter("cache.hits") - hits
        gets = hits + counter("cache.misses") - misses
        layers["cache.get_s"] = tracer.total("cache.get")
        layers["cache.hit_ratio"] = hits / gets if gets else 0.0
    else:
        layers.update(setup_layers(tracer))
        base = statistics.median(calls.op()[1]
                                 for _ in range(plan["warm_calls"]))
        tracer.reset()
        batches = counter("replay.batches")
        lanes = counter("replay.snapshots")
        lane_cycles = counter("replay.lane_cycles")
        extra = {}
        if calls.workload.journaled:
            extra["trace"] = os.path.join(spec["scratch"], "program-trace.json")
        run, wall, kwargs = traced_call(tracer, targets, calls, events,
                                        **extra)
        layers.update(run_layers(tracer, run, wall, base))
        batches = counter("replay.batches") - batches
        layers["replay.batches"] = batches
        layers["replay.lane_fill"] = ((counter("replay.snapshots") - lanes)
                                      / (batches * 64) if batches else 0.0)
        layers["gl_sim.lane_cycles"] = counter("replay.lane_cycles") \
            - lane_cycles
        # layers only a journaled, supervised workload runs
        layers.update({"journal.bytes": 0, "journal.resume_s": 0.0,
                       "supervisor.worker_init_s": 0.0,
                       "supervisor.worker_busy_frac": 0.0,
                       "supervisor.incidents": 0})
        if calls.workload.journaled:
            layers["journal.bytes"] = os.path.getsize(kwargs["journal"])
            layers.update(supervisor_layers(
                extra["trace"], tracer.total("replay.stream"), run))
            tracer.reset()
            with tracer.installed(targets):
                calls.resume(run, kwargs)
            layers["journal.resume_s"] = tracer.total("journal.resume")
            os.remove(kwargs["journal"])
        # untimed; on this process's own cache, which the cold call filled
        # (only default-config's fast path builds a kernel here)
        calls.reference(first)
        layers["energy.err_pct"] = calls.energy_error_pct(first)
    out["layers"] = layers
    out["events"] = events


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    spawned = float(os.environ["E2E_SPAWN_T"])
    out = {"attempted": 0, "failed": 0}
    calls = None
    try:
        from repro.core import run_strober
        calls = Calls(run_strober, WORKLOADS[spec["workload"]],
                      spec["seed"], spec["scratch"])
        if spec.get("traced"):
            traced(spec, calls, out)
        else:
            calls.op()
            out["first_s"] = calls.first_done - spawned
            if spec.get("wait_go"):
                print("ready", flush=True)
                sys.stdin.readline()
            if spec.get("warm"):
                out.update(warm_loop(calls, **spec["warm"]))
    except Exception:
        traceback.print_exc()
        out["failed"] = 1
        out["error"] = traceback.format_exc(limit=3)
    if calls is not None:
        out["attempted"] = max(calls.attempted, 1)
        out["digests"] = calls.digests
    with open(spec["out"], "w") as f:
        json.dump(out, f)
    return 1 if out["failed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
