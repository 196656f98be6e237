"""Per-layer timing installed from outside the program, for one call.

The traced benchmark process wraps the program's layer boundaries (module
functions where their caller looks them up, methods on their classes),
runs one call, and removes the wrappers again, so untimed and timed calls
never pay for a timer.

Every wrapped call is a *frame*: its duration is added to the layer's
total, and to its parent frame's child time.  A layer's self time is its
duration minus the time its wrapped children took, minus a calibrated
per-call cost for each child (the wrapper's own work lands in the
parent's interval, not the child's).  Per-cycle boundaries only keep
count/total/self accumulators; coarser boundaries also record a span
(name, start, end, parent), kept in memory and written out as Chrome
trace-event JSON when the traced run ends.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

ACC = "acc"      # per-cycle or per-item boundary: accumulators only
SPAN = "span"    # coarse boundary: accumulators plus a span record
GEN = "gen"      # function returning a generator: time its consumption


class LayerTracer:
    """Frames, per-layer accumulators and spans of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.cost = 0.0          # calibrated wrapper seconds per call
        self.stats = {}          # layer -> [count, total, self]
        self.spans = []          # (name, start, end, parent name)
        self._stack = []         # open frames: [child_time, calls, start]
        self._span_names = []
        self._fork_hooked = False

    # -- frames ------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _enter(self, name, span):
        if span:
            self._span_names.append(name)
        frame = [0.0, 0, self.clock()]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, span):
        end = self.clock()
        self._stack.pop()
        dur = end - frame[2]
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[0] - frame[1] * self.cost
        if self._stack:
            parent = self._stack[-1]
            parent[0] += dur
            parent[1] += 1
        if span:
            self._span_names.pop()
            parent_name = self._span_names[-1] if self._span_names else None
            self.spans.append((name, frame[2], end, parent_name))

    @contextmanager
    def root(self, name="call"):
        """Frame around one whole call; its self time is unattributed."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame, True)

    def reset(self):
        """Zero every accumulator in place (wrappers hold them)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.spans = []

    # -- reading -----------------------------------------------------------

    def count(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name, fn, kind=ACC):
        """``fn`` timed as layer ``name`` while this tracer is enabled."""
        self._stat(name)
        tracer = self
        if kind == GEN:
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.enabled:
                    return gen
                return tracer._consume(name, gen)
            return gen_wrapper
        if kind == SPAN:
            def span_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = tracer._enter(name, True)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(name, frame, True)
            return span_wrapper
        # The per-cycle path, inlined: it runs ~10^5 times per call.
        stat = self.stats[name]
        stack = self._stack
        clock = self.clock

        def acc_wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, 0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0] - frame[1] * tracer.cost
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1
        return acc_wrapper

    def _consume(self, name, gen):
        """Time each ``next()`` of ``gen``; the consumer's own work between
        items stays with the consumer."""
        try:
            while True:
                frame = self._enter(name, False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(name, frame, False)
                yield item
        finally:
            gen.close()

    def calibrate(self, n=20000):
        """Measure the wall a wrapped call adds outside its own frame."""
        def noop():
            return None
        wrapped = self.wrap("calibrate.noop", noop)
        enabled, self.enabled = self.enabled, True
        clock = self.clock
        try:
            best = None
            for _ in range(3):
                start = clock()
                for _ in range(n):
                    noop()
                plain = clock() - start
                inner = self.total("calibrate.noop")
                start = clock()
                for _ in range(n):
                    wrapped()
                outer = clock() - start
                inner = self.total("calibrate.noop") - inner
                cost = max(0.0, (outer - inner - plain) / n)
                best = cost if best is None else min(best, cost)
        finally:
            self.enabled = enabled
            del self.stats["calibrate.noop"]
        self.cost = best
        return best

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attribute, layer, kind)`` target for the
        block, and put every original back when it ends."""
        if not self._fork_hooked:
            # A forked replay worker inherits the patched classes; its
            # calls must not tick this process's (copied) accumulators.
            os.register_at_fork(after_in_child=self._disable)
            self._fork_hooked = True
        patches = []
        try:
            for owner, attr, name, kind in targets:
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original, kind))
                patches.append((owner, attr, original))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _disable(self):
        self.enabled = False

    # -- export ------------------------------------------------------------

    def chrome_events(self, pid=None):
        """Spans as Chrome trace-event "X" records, in microseconds."""
        pid = os.getpid() if pid is None else pid
        origin = min((s[1] for s in self.spans), default=0.0)
        return [{"ph": "X", "name": name, "cat": "layer", "pid": pid,
                 "tid": 0, "ts": (start - origin) * 1e6,
                 "dur": (end - start) * 1e6, "args": {"parent": parent}}
                for name, start, end, parent in self.spans]


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def program_targets():
    """The program's layer boundaries, named by module.

    Module functions are patched in the module their caller looks them up
    in; methods are patched on the class that defines them.
    """
    from repro.core import configs, controller, flow, replay
    from repro.fame import simulator
    from repro.gatelevel import formal, gl_sim, glcodegen
    from repro.parallel.cache import ArtifactCache
    from repro.passes.manager import PassManager
    from repro.robust import journal
    from repro.scan.snapshot import ReplayableSnapshot
    from repro.sim.rtl_sim import RTLSimulator
    from repro.targets import soc
    import repro.dram.timing  # noqa: F401 - defines MemoryEndpoint

    fame = simulator.Fame1Simulator
    engine = replay.ReplayEngine
    scalar = gl_sim.GateLevelSimulator
    batched = gl_sim.BatchedGateLevelSimulator
    targets = [
        # set-up layers
        (flow, "get_circuits", "flow.circuits", SPAN),
        (configs.DesignConfig, "build_circuit", "hdl.elaborate", SPAN),
        (PassManager, "run", "passes.run", SPAN),
        (RTLSimulator, "__init__", "sim.build", SPAN),
        (flow, "get_replay_engine", "flow.engine", SPAN),
        (flow, "build_asic_flow", "gatelevel.flow", SPAN),
        (replay, "load_levelized_schedule", "gatelevel.schedule", SPAN),
        (glcodegen, "build_kernel", "glcodegen.kernel_build", SPAN),
        (ArtifactCache, "get", "cache.get", SPAN),
        # FAME simulation and snapshot capture
        (flow, "run_workload", "fame.workload", SPAN),
        (soc, "assemble", "fame.assemble", SPAN),
        (fame, "run", "fame.run", SPAN),
        (fame, "step_target", "fame.step", ACC),
        (fame, "_capture_snapshot", "scan.capture", ACC),
        (RTLSimulator, "step", "sim.step", ACC),
        (RTLSimulator, "poke_all", "sim.io", ACC),
        (RTLSimulator, "peek_all", "sim.io", ACC),
        (ReplayableSnapshot, "record_cycle", "scan.record", ACC),
        (ReplayableSnapshot, "seal", "scan.seal", ACC),
        (ReplayableSnapshot, "validate", "scan.validate", ACC),
        # replay
        (engine, "replay_stream", "replay.stream", GEN),
        (engine, "replay_batch", "replay.batch", ACC),
        (engine, "replay", "replay.scalar", ACC),
        (formal.NameMap, "load_commands", "replay.state_load", ACC),
        (scalar, "load_dffs", "replay.state_load", ACC),
        (scalar, "load_sram", "replay.state_load", ACC),
        (batched, "load_dffs_lanes", "replay.state_load", ACC),
        (batched, "load_sram", "replay.state_load", ACC),
        (batched, "run_cycles", "gl_sim.kernel", ACC),
        (scalar, "eval", "gl_sim.interp_eval", ACC),
        (batched, "eval", "gl_sim.interp_eval", ACC),
        (scalar, "activity", "gl_sim.activity", ACC),
        (batched, "activity", "gl_sim.activity", ACC),
        (replay, "analyze_power", "power.analyze", ACC),
        # run tail, journal
        (controller.AdaptiveSamplingController, "observe",
         "controller.observe", ACC),
        (flow, "estimate_energy", "energy.estimate", SPAN),
        (flow, "append_run_record", "obs.history_append", SPAN),
        (flow, "export_chrome_trace", "obs.trace_export", SPAN),
        (journal, "load_resume", "journal.resume", SPAN),
        (journal.RunJournal, "append", "journal.append", ACC),
        (journal.RunJournal, "reset", "journal.open", ACC),
        (journal.RunJournal, "close", "journal.open", ACC),
    ]
    for cls in _subclasses(simulator.Endpoint):
        if "tick" in vars(cls):
            targets.append((cls, "tick", "fame.endpoint", ACC))
    return targets
