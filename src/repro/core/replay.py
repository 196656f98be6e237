"""Replay engine: snapshots -> gate-level power (Section IV-C, Figure 5).

For each replayable snapshot: warm up designer-annotated retimed
datapaths by forcing their inputs for ``latency`` cycles (IV-C3), load
the RTL register state through the formal name-mapping table using the
VPI-style bulk loader (IV-C2), load SRAM contents, then drive the
recorded input trace while verifying every output token against the
recorded output trace.  The collected switching activity feeds the
power-analysis tool.

Snapshot batches and the whole-run ground truth (Figure 8) share one
I/O format, ``(cycles, ports)`` matrices in a trace layout's port
orders, and one packer, :meth:`ReplayEngine._pack_io`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..gatelevel import (
    BatchedGateLevelSimulator, build_schedule, pack_lane_words, MAX_LANES,
    SCHEDULE_VERSION, PackedStimulus, StimulusMismatch, lane_ops,
    analyze_power, analyze_power_lanes, default_grouping, SynthesisPass,
    PlacementPass, FormalMatchPass,
)
from ..passes import PassManager, compose_cache_key
from ..fame.transform import HOST_ENABLE
from ..obs import get_tracer, get_registry
from ..sim.state import name_order, resolve_order

# Histogram buckets for how full replay batches run (lanes per batch).
_LANE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

# Cycles of a full trace packed into one stimulus (bounds the packing
# buffers; activity accumulates across windows).
_TRACE_WINDOW = 1024


def _note_replay(n_lanes, n_cycles, toggles):
    """Per-batch replay bookkeeping."""
    registry = get_registry()
    registry.counter("replay.batches").inc()
    registry.counter("replay.snapshots").inc(n_lanes)
    registry.counter("replay.lane_cycles").inc(n_lanes * n_cycles)
    registry.counter("replay.toggles").inc(toggles)
    registry.histogram("replay.lanes_per_batch",
                       _LANE_BUCKETS).observe(n_lanes)


class ReplayError(Exception):
    pass


@dataclass
class ReplayResult:
    snapshot_cycle: int
    power: "PowerReport"
    cycles: int
    mismatches: int
    load_commands: int
    wall_seconds: float


@dataclass
class AsicFlow:
    """Synthesis + placement + formal matching artifacts for one design.

    Picklable as a unit: it is both the payload shipped to replay worker
    processes and the object stored in the on-disk artifact cache.
    """

    netlist: object
    hints: object
    placement: object
    name_map: object
    synthesis_seconds: float = 0.0
    fingerprint: str = ""
    cache_hit: bool = False

    # port names the replay loop drives (from the source circuit); kept
    # on the artifact so engines can be rebuilt without the circuit.
    port_names: list = field(default_factory=list)

    # PipelineReport of the pass pipeline that built this artifact
    # (None on artifacts cached by older versions).
    pipeline_report: object = None


def load_levelized_schedule(flow):
    """The levelized gate-evaluation schedule for a flow's netlist.

    Levelization costs tens of milliseconds per simulator construction
    and its output is pure structure, so it is persisted in the on-disk
    artifact cache next to the :class:`AsicFlow` (keyed by the flow
    fingerprint + schedule version).  Replay worker processes hit the
    cache instead of re-levelizing at start-up; the time a hit saves is
    credited to ``cache_stats()['sched_seconds_saved']``.  Flows without
    a fingerprint (cache disabled or never cached) just build it live.
    """
    from ..parallel.cache import (
        get_cache, cache_enabled, note_schedule_reuse)

    with get_tracer().span("asic.schedule", cat="flow") as span:
        if flow.fingerprint and cache_enabled():
            key = f"{flow.fingerprint}-sched{SCHEDULE_VERSION}"
            cache = get_cache()
            schedule = cache.get("glsched", key)
            if (schedule is not None
                    and getattr(schedule, "version", None)
                    == SCHEDULE_VERSION):
                note_schedule_reuse(schedule.build_seconds)
                span.set(cached=True)
                return schedule
            schedule = build_schedule(flow.netlist)
            cache.put("glsched", key, schedule)
            span.set(cached=False)
            return schedule
        span.set(cached=False)
        return build_schedule(flow.netlist)


def _batch_layout(snapshot):
    """What every snapshot of one batch shares: trace length and port
    orders (a trace holder without orders batches by length alone)."""
    return (len(snapshot.input_trace),
            getattr(snapshot, "input_order", None),
            getattr(snapshot, "output_order", None))


def plan_replay_batches(snapshots, lanes, order=None, ramp=None):
    """Pack snapshot indices into bit-lane batches following ``order``.

    ``order`` is a sequence of snapshot positions (a permutation, or a
    strict subset for incremental re-sampling) giving the dispatch
    order, natural order over all snapshots when ``None``; batches
    group *adjacent-in-order* indices sharing one trace length and one
    pair of port orders, at most ``lanes`` per batch.  With ``ramp`` the
    lane limit grows instead: the first batch holds at most ``ramp``
    snapshots and each later batch twice as many as the one before, up
    to ``lanes`` — so a stream stopped early has replayed little past
    its stop.
    """
    if not 1 <= lanes <= MAX_LANES:
        raise ValueError(f"lanes must be in 1..{MAX_LANES}, got {lanes}")
    snapshots = list(snapshots)
    if order is None:
        order = range(len(snapshots))
    limit = lanes if ramp is None else max(1, min(int(ramp), lanes))
    batches = []
    current = []
    current_layout = None
    for i in order:
        layout = _batch_layout(snapshots[i])
        if current and (len(current) >= limit
                        or layout != current_layout):
            batches.append(current)
            current = []
            limit = min(limit * 2, lanes)
        current.append(i)
        current_layout = layout
    if current:
        batches.append(current)
    return batches


def replay_port_names(circuit):
    """Input ports a replay drives (everything but the FAME1 host bit)."""
    return [node.name for node in circuit.inputs
            if node.name != HOST_ENABLE]


def asic_pipeline(refine_fn=None, cluster_fn=None, cluster_depth=2,
                  name="asicflow"):
    """The ASIC tool chain (Figure 5) as one pass pipeline.

    synthesis (Design Compiler) -> placement (IC Compiler) -> formal
    matching (Formality), with the attribution refiner and floorplan
    grouping as declared pass parameters so the pipeline fingerprint —
    and therefore the artifact-cache key — covers them.
    """
    return PassManager([
        SynthesisPass(refine_fn=refine_fn),
        PlacementPass(cluster_depth=cluster_depth, cluster_fn=cluster_fn),
        FormalMatchPass(),
    ], name=name)


def build_asic_flow(circuit, manager=None, use_cache=False, debug=False):
    """Run (or load from cache) an ASIC pass pipeline over a circuit
    (default: the generic :func:`asic_pipeline`).

    The pipeline's name is the artifact kind it is cached under, and
    the cache key composes the circuit's structural fingerprint with
    the pipeline fingerprint, so the same design synthesized under
    different pipelines (different refiners, floorplan groupings, or
    pass versions) occupies distinct cache slots.
    """
    from ..parallel.cache import get_cache, cache_enabled
    from ..hdl.ir import circuit_fingerprint

    manager = manager or asic_pipeline()
    kind = manager.name
    with get_tracer().span("asic.flow", cat="flow", kind=kind) as span:
        t0 = time.perf_counter()
        key = ""
        if use_cache and cache_enabled():
            key = compose_cache_key(circuit_fingerprint(circuit),
                                    manager.fingerprint())
            flow = get_cache().get(kind, key)
            if flow is not None:
                flow.cache_hit = True
                flow.synthesis_seconds = time.perf_counter() - t0
                # The pickled report describes the run that built the
                # artifact, not this one; no passes executed here.
                flow.pipeline_report = None
                span.set(cache_hit=True)
                return flow
        ctx = manager.run(circuit, debug=debug)
        flow = AsicFlow(netlist=ctx["netlist"], hints=ctx["hints"],
                        placement=ctx["placement"],
                        name_map=ctx["name_map"], fingerprint=key,
                        port_names=replay_port_names(circuit),
                        synthesis_seconds=time.perf_counter() - t0,
                        pipeline_report=ctx.report)
        if use_cache and cache_enabled():
            get_cache().put(kind, key, flow)
        span.set(cache_hit=False)
        return flow


def _port_nets(table, names, kind):
    missing = [name for name in names if name not in table]
    if missing:
        raise ReplayError(f"no {kind} port {missing[0]!r}")
    return [table[name] for name in names]


class ReplayEngine:
    """Gate-level replay of snapshots for one (plain, non-FAME) design.

    ``circuit`` must be the un-transformed RTL circuit — the gate-level
    netlist corresponds to the tapeout design, not the FPGA simulator.
    ``flow`` is its :class:`AsicFlow`, by default the generic
    pipeline's (:func:`build_asic_flow`, no disk cache).  Every replay
    runs in the bit lanes of a
    :class:`~repro.gatelevel.BatchedGateLevelSimulator` on the engine's
    evaluation kernel: ``gl_backend`` (default ``auto``, the C kernel
    where a compiler exists) as resolved by
    :func:`~repro.gatelevel.resolve_backend`.
    """

    def __init__(self, circuit, flow=None, grouping=default_grouping,
                 freq_hz=None, port_names=None, gl_backend=None):
        if circuit is None and flow is None:
            raise ValueError("ReplayEngine needs a circuit or a flow")
        self.circuit = circuit
        self.flow = flow or build_asic_flow(circuit)
        self.grouping = grouping
        self.freq_hz = freq_hz
        # One levelized schedule (cached on disk next to the flow) and
        # one native kernel (built-or-cache-loaded here, at engine init)
        # shared by every simulator: both are netlist- and
        # lane-oblivious.
        self._schedule = load_levelized_schedule(self.flow)
        from ..gatelevel.glcodegen import build_kernel, resolve_backend
        self.gl_backend = resolve_backend(gl_backend)
        self._gl_kernel = build_kernel(self.gl_backend)
        # lanes -> BatchedGateLevelSimulator: the full-width one and
        # the most recent other width (see _sim)
        self._sims = {}
        if port_names is None:
            if circuit is not None:
                port_names = replay_port_names(circuit)
            else:
                port_names = self.flow.port_names
        self._port_names = list(port_names)
        # Intern the orders this design's snapshots are captured in, so
        # their fingerprints resolve here even in a fresh worker process
        # (the name map interns its register order when asked for it).
        name_order(self._port_names)
        name_order(self.flow.netlist.outputs)
        _ = self.flow.name_map.reg_order
        # ReplayHealthReport of the most recent supervised replay_all
        self.last_health = None

    @classmethod
    def from_flow(cls, flow, port_names=None, grouping=default_grouping,
                  freq_hz=None, gl_backend=None):
        """Rebuild an engine from a shipped/cached :class:`AsicFlow`.

        This is how replay worker processes come up: no circuit IR is
        needed, only the (picklable) flow artifact.
        """
        return cls(None, flow=flow, grouping=grouping, freq_hz=freq_hz,
                   port_names=port_names, gl_backend=gl_backend)

    @property
    def backend_used(self):
        """The backend replays run on: ``c`` or ``interp``, after the
        ``auto`` resolution and the ``c -> interp`` fallback."""
        kernel = self._gl_kernel
        return "interp" if kernel is None else kernel.backend

    def replay(self, snapshot, strict=True):
        """Replay one snapshot (a one-lane :meth:`replay_batch`);
        returns a :class:`ReplayResult`."""
        return self.replay_batch([snapshot], strict=strict)[0]

    def _sim(self, lanes):
        sim = self._sims.get(lanes)
        if sim is None:
            # An adaptive run ramps through many widths; keep only the
            # 64-lane simulator and the latest other one (each holds
            # its own net values and toggle planes), so a fixed run's
            # 64, ..., 64, tail pattern still rebuilds nothing.
            if lanes != MAX_LANES:
                for width in [w for w in self._sims if w != MAX_LANES]:
                    del self._sims[width]
            sim = self._sims[lanes] = BatchedGateLevelSimulator(
                self.flow.netlist, lanes=lanes, schedule=self._schedule,
                kernel=self._gl_kernel)
        return sim

    # -- stimulus packing -------------------------------------------------------

    def _pack_warm_stimulus(self, snapshots):
        """Retimed warm-up as per-cycle force segments.

        Block-major, latency descending, every one of a block's input
        labels forced from its history register each cycle, all forces
        released between blocks (Section IV-C3) — expressed as one
        :class:`PackedStimulus` whose every cycle carries a complete
        force segment.  Returns ``None`` when the flow has no retimed
        blocks (the common case).
        """
        retimed = self.flow.name_map.retimed
        if not retimed:
            return None
        n = len(snapshots)
        netlist = self.flow.netlist
        active = np.uint64((1 << n) - 1 if n < 64 else 0xFFFFFFFFFFFFFFFF)
        counts, nets, vals = [], [], []
        for block in retimed:
            for k in range(block.latency, 0, -1):
                seg = {}            # net -> packed word (label order)
                for _name, _width, label, hist_paths in block.inputs:
                    label_nets = netlist.preserved_nets.get(label)
                    if label_nets is None:
                        raise ReplayError(
                            f"no preserved nets labelled {label!r}")
                    seg.update(zip(label_nets, pack_lane_words(
                        [s.state.reg(hist_paths[k - 1]) for s in snapshots],
                        len(label_nets))))
                counts.append(len(seg))
                nets.extend(seg)
                vals.extend(seg.values())
        counts = np.array(counts, dtype=np.int64)
        return PackedStimulus(
            len(counts), n, force_counts=counts,
            force_off=np.cumsum(counts) - counts,
            force_nets=np.array(nets, dtype=np.int64),
            force_masks=np.full(len(nets), active, dtype=np.uint64),
            force_vals=np.array(vals, dtype=np.uint64) & active)

    def _pack_io(self, input_order, inputs, output_order, outputs):
        """``(lanes, cycles, ports)`` input and output values in the
        name orders ``input_order`` / ``output_order`` as one
        :class:`PackedStimulus`: pokes drive every lane of every input
        port the order carries (a port it lacks stays undriven), checks
        compare each lane's outputs, port by port, against its own
        values."""
        netlist = self.flow.netlist
        index = input_order.index
        ports = [port for port in self._port_names if port in index]
        poke_nets = _port_nets(netlist.inputs, ports, "input")
        names = tuple(output_order.names)
        check_nets = _port_nets(netlist.outputs, names, "output")
        widths = [len(nets) for nets in check_nets]
        return PackedStimulus(
            inputs.shape[1], inputs.shape[0],
            poke_nets=[net for nets in poke_nets for net in nets],
            poke_words=lane_ops(inputs[..., [index[port] for port in ports]],
                                [len(nets) for nets in poke_nets]),
            check_nets=[net for nets in check_nets for net in nets],
            check_ports=np.cumsum([0, *widths]),
            check_words=lane_ops(outputs, widths),
            check_names=names)

    def replay_batch(self, snapshots, strict=True):
        """Replay up to :data:`MAX_LANES` snapshots bit-parallel.

        All snapshots run in the lanes of one
        :class:`BatchedGateLevelSimulator`: one netlist evaluation per
        cycle advances every lane, each lane's outputs are verified
        against its own I/O trace, and each lane's exact activity feeds
        its own power analysis.  Results are bit-identical for any lane
        count and backend, in snapshot order.  Every snapshot in a
        batch must share one trace length and one pair of port orders
        (see :func:`plan_replay_batches`).
        """
        snapshots = list(snapshots)
        n = len(snapshots)
        if n == 0:
            return []
        if n > MAX_LANES:
            raise ValueError(
                f"batch of {n} snapshots exceeds {MAX_LANES} lanes")
        with get_tracer().span("replay.batch", cat="replay",
                               lanes=n) as span:
            results = self._replay_batch(snapshots, strict=strict)
            span.set(cycles=results[0].cycles,
                     mismatches=sum(r.mismatches for r in results))
        return results

    def _replay_batch(self, snapshots, strict=True):
        n = len(snapshots)
        for snapshot in snapshots:
            snapshot.validate()
        if len({(s.recorded, s.input_order, s.output_order)
                for s in snapshots}) != 1:
            raise ValueError("snapshots in one batch must share a trace "
                             "length and port orders")
        t0 = time.perf_counter()
        netlist = self.flow.netlist
        gl = self._sim(n)
        # Canonical starting state: replay results must not depend on
        # what this simulator ran before (serial loop vs fresh worker).
        gl.full_reset()
        warm = self._pack_warm_stimulus(snapshots)
        first = snapshots[0]
        main = self._pack_io(resolve_order(first.input_order),
                             np.stack([s.input_trace for s in snapshots]),
                             resolve_order(first.output_order),
                             np.stack([s.output_trace for s in snapshots]))
        # Retimed warm-up, all lanes at once: force each block's inputs
        # from its history registers, block-major and latency-
        # descending (IV-C3), packed into per-cycle force segments.
        if warm is not None:
            gl.run_cycles(stim=warm)
        commands = [self.flow.name_map.load_commands(s.state)
                    for s in snapshots]
        load_counts = gl.load_dffs_lanes(commands)
        for lane, snapshot in enumerate(snapshots):
            for mem_path, contents in snapshot.state.mems.items():
                gl.load_sram(mem_path, contents, lane=lane)
        gl.clear_activity()

        # The whole-trace hot loop: with a native kernel this is ONE
        # foreign call for the entire batch (pokes, eval, checks,
        # toggle counting, SRAM ports, DFF commit all in C).
        try:
            lane_mismatches = gl.run_cycles(stim=main, strict=strict)
        except StimulusMismatch as exc:
            snapshot = snapshots[exc.lane]
            raise ReplayError(
                f"replay mismatch at snapshot cycle "
                f"{snapshot.cycle} (batch lane {exc.lane}): "
                f"output {exc.name} = "
                f"{gl.peek(exc.name, lane=exc.lane):#x}, trace has "
                f"{snapshot.output_value(exc.cycle, exc.name):#x}"
            ) from exc
        mismatches = lane_mismatches.tolist()

        if gl.backend == "c":
            # The kernel reduces the toggle planes to every lane's
            # switching power in one pass; the rest is per batch.
            powers, toggles = analyze_power_lanes(
                netlist, gl, self.flow.placement, freq_hz=self.freq_hz,
                grouping=self.grouping)
        else:
            # The reference path: one lane's activity at a time, so a
            # batch's per-net toggle vectors are never all alive at once.
            powers = []
            toggles = 0
            for lane in range(n):
                act = gl.activity(lane)
                toggles += int(act["toggles"].sum())
                powers.append(analyze_power(
                    netlist, act, self.flow.placement,
                    freq_hz=self.freq_hz, grouping=self.grouping))
        _note_replay(n, gl.cycles, toggles)
        per_lane_seconds = (time.perf_counter() - t0) / n
        return [ReplayResult(
                    snapshot_cycle=snapshot.cycle,
                    power=powers[lane],
                    cycles=gl.cycles,
                    mismatches=mismatches[lane],
                    load_commands=load_counts[lane],
                    wall_seconds=per_lane_seconds)
                for lane, snapshot in enumerate(snapshots)]

    def replay_stream(self, snapshots, strict=True, workers=1,
                      timeout=None, max_retries=2, fault_plan=None,
                      batch_lanes=None, order=None, cancel=None, ramp=1):
        """Stream replays: a generator of ``(index, result)`` pairs.

        The streaming core of :meth:`replay_all`, and the only way into
        the supervised worker pool.  Batches are dispatched
        incrementally and each completed replay is yielded in
        *completion* order, labelled with the snapshot's position in
        ``snapshots`` — the original index travels with the result, so
        out-of-order completion under a multi-worker pool can never be
        attributed to the wrong snapshot.

        ``order`` — optional sequence of snapshot positions fixing the
        dispatch order (may be a strict subset, in which case only
        those snapshots are replayed).  The adaptive sampling
        controller passes a confidence-driven order; incremental
        journal re-sampling passes the not-yet-journaled subset.

        ``cancel`` — optional :class:`repro.parallel.CancelToken`:
        once set, no further batches are dispatched, already-completed
        results still stream out, and in-flight work is abandoned
        without killing the pool (supervised runs count the abandoned
        snapshots in ``self.last_health.cancelled``).  A cancellable
        stream ramps its batches up: the first holds ``ramp``
        snapshots and each later one twice as many, up to
        ``batch_lanes`` (see :func:`plan_replay_batches`), so a stop
        lands close to where one-snapshot dispatch would put it.

        Arguments are validated and the batches planned here, eagerly,
        once; the returned generator is lazy.  ``workers`` > 1 hands
        the engine and that plan to the supervisor
        (:func:`repro.robust.supervisor.supervise`), with the pool
        clamped to the number of batches.  A supervised run that loses
        its pool (an unpicklable payload, a worker-init failure)
        replays the plan's *remaining* batches in-process on this
        engine — results already yielded stay credited.  Other
        parameters are as :meth:`replay_all`.
        """
        snapshots = list(snapshots)
        self.last_health = None
        batch_lanes = MAX_LANES if batch_lanes is None else int(batch_lanes)
        if order is not None:
            order = [int(i) for i in order]
            if len(set(order)) != len(order):
                raise ValueError(
                    "order contains duplicate snapshot indices")
            if any(not 0 <= i < len(snapshots) for i in order):
                raise ValueError("order index out of range")
        plan = plan_replay_batches(snapshots, batch_lanes, order=order,
                                   ramp=None if cancel is None else ramp)
        if workers is None:
            import os
            workers = os.cpu_count() or 1
        if int(workers) <= 1:
            return self._stream_in_process(snapshots, plan, strict,
                                           batch_lanes, cancel)
        return self._stream_supervised(
            snapshots, plan, strict, batch_lanes, cancel,
            workers=min(int(workers), len(plan)), timeout=timeout,
            max_retries=max_retries, fault_plan=fault_plan)

    def _replay_in_process(self, snapshots, strict, batches, cancel):
        for batch in batches:
            if cancel is not None and cancel.cancelled:
                break
            batch_results = self.replay_batch(
                [snapshots[i] for i in batch], strict=strict)
            yield from zip(batch, batch_results)

    def _stream_in_process(self, snapshots, plan, strict, batch_lanes,
                           cancel):
        with get_tracer().span("replay.all", cat="replay", workers=1,
                               batch_lanes=batch_lanes,
                               snapshots=len(snapshots)):
            yield from self._replay_in_process(snapshots, strict, plan,
                                               cancel)

    def _stream_supervised(self, snapshots, plan, strict, batch_lanes,
                           cancel, *, workers, timeout, max_retries,
                           fault_plan):
        from ..parallel import ParallelReplayError
        from ..robust.supervisor import ReplayHealthReport, supervise
        report = ReplayHealthReport(batch_lanes=batch_lanes)
        with get_tracer().span("replay.all", cat="replay", workers=workers,
                               batch_lanes=batch_lanes,
                               snapshots=len(snapshots)) as span:
            done = set()
            try:
                for idx, result in supervise(
                        self, snapshots, plan, workers=workers,
                        report=report, strict=strict, timeout=timeout,
                        max_retries=max_retries, fault_plan=fault_plan,
                        cancel=cancel):
                    done.add(idx)
                    yield idx, result
            except ParallelReplayError as exc:
                span.set(serial_fallback=True)
                warnings.warn(f"parallel replay unavailable ({exc}); "
                              "falling back to serial", RuntimeWarning)
                remaining = ([i for i in batch if i not in done]
                             for batch in plan)
                yield from self._replay_in_process(
                    snapshots, strict, [b for b in remaining if b],
                    cancel)
                return
            self.last_health = report
            span.set(healthy=report.healthy,
                     incidents=len(report.incidents))
            if report.cancelled:
                span.set(cancelled=report.cancelled)
            if not report.healthy:
                warnings.warn(report.summary(), RuntimeWarning)

    def replay_all(self, snapshots, strict=True, workers=1,
                   on_result=None, timeout=None, max_retries=2,
                   fault_plan=None, batch_lanes=None):
        """Replay every snapshot; optionally across worker processes.

        Thin collecting wrapper over :meth:`replay_stream`: consumes
        the stream to completion and returns results in snapshot
        order.

        ``batch_lanes`` packs that many snapshots into the bit lanes of
        one batched gate-level evaluation (``None``, the default, = the
        full 64).  Results are bit-identical for any lane count, any
        backend and any ``workers``.

        Each replay is independent, so the paper parallelizes this
        step; here ``workers`` > 1 fans batches out over that many
        processes (``None`` uses every CPU).  That buys crash
        isolation, not speed: one process on the C kernel replays a
        64-lane batch faster than a pool starts up.  Results preserve
        snapshot order, and deterministic verification failures
        (strict-mode mismatches, snapshot integrity failures)
        propagate.  If the flow payload cannot be pickled (e.g. a
        closure grouping function), falls back to serial with a
        warning.

        Multi-worker runs go through the supervised pool
        (:mod:`repro.robust.supervisor`): crashed or hung workers are
        respawned and their batches retried with exponential backoff
        (``max_retries`` attempts, per-snapshot ``timeout`` seconds
        scaled to the batch).  A batch whose retries run out replays
        in-process on the interpreter: the kernel is the suspect, and
        the backends are bit-identical.  The resulting
        :class:`~repro.robust.ReplayHealthReport` lands on
        ``self.last_health``.  ``on_result(index, result)`` fires as
        each replay completes — the hook the crash-safe run journal
        uses to persist progress incrementally.  ``fault_plan`` (a
        :class:`repro.robust.FaultPlan`) sabotages chosen worker
        dispatches; it exists for the fault-injection harness.
        """
        snapshots = list(snapshots)
        out = [None] * len(snapshots)
        for i, result in self.replay_stream(
                snapshots, strict=strict, workers=workers,
                timeout=timeout, max_retries=max_retries,
                fault_plan=fault_plan, batch_lanes=batch_lanes):
            out[i] = result
            if on_result is not None:
                on_result(i, result)
        return out

    def replay_full_trace(self, io_trace):
        """Ground-truth run: replay an *entire* execution's I/O trace on
        gate level from reset (no state loading needed — gate-level reset
        state equals RTL reset state).  This is the slow full-benchmark
        gate-level simulation the Figure 8 validation compares against.

        ``io_trace`` is ``(layout, inputs, outputs)``, a
        :class:`~repro.scan.TraceLayout` and the run's ``(cycles,
        inputs)`` / ``(cycles, outputs)`` matrices in its column orders,
        as :attr:`~repro.fame.Fame1Simulator.full_io_trace` holds them.
        It runs on the engine's one-lane simulator, packed by
        :meth:`_pack_io` into stimulus windows of :data:`_TRACE_WINDOW`
        cycles.  Returns ``(PowerReport, mismatches)``.
        """
        layout, inputs, outputs = io_trace
        gl = self._sim(1)
        gl.full_reset()
        gl.clear_activity()
        mismatches = 0
        for start in range(0, len(inputs), _TRACE_WINDOW):
            window = slice(start, start + _TRACE_WINDOW)
            stim = self._pack_io(layout.inputs, inputs[None, window],
                                 layout.outputs, outputs[None, window])
            mismatches += int(gl.run_cycles(stim=stim)[0])
        power = analyze_power(self.flow.netlist, gl.activity(0),
                              self.flow.placement, freq_hz=self.freq_hz,
                              grouping=self.grouping)
        return power, mismatches
