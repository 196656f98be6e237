"""End-to-end Strober flow: one call from design + workload to energy.

Ties the whole methodology together (Figures 2, 4, 5):

1. compile the design (Figure 4): a FAME1 simulator circuit with its
   scan spec, and an untouched tapeout circuit;
2. run the workload on the FAME1 simulator, reservoir-sampling
   replayable snapshots;
3. run the ASIC flow (synthesis, placement, formal matching) on the
   tapeout circuit — or load it from the content-addressed artifact
   cache when a prior process already paid that cost;
4. replay every snapshot on gate level (optionally fanned out across a
   worker-process pool) and aggregate power with confidence intervals,
   DRAM power from the activity counters, and CPI/EPI.

Per-stage wall-clock (flow / sim / replay / energy) is recorded on the
returned :class:`StroberRun` so both accelerations are measurable.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import zlib
from dataclasses import dataclass, field

from ..targets.soc import run_workload, _SIM_CACHE
from ..isa.programs import ALL_PROGRAMS
from ..obs import (
    Tracer, set_tracer, get_registry, export_chrome_trace,
    append_run_record,
)
from ..parallel.cache import get_cache
from ..parallel.pool import CancelToken
from ..passes import assert_well_formed
from .compiler import StroberCompiler
from .configs import get_config
from .controller import AdaptiveSamplingController
from .replay import ReplayEngine, asic_pipeline, build_asic_flow
from .energy import estimate_energy
from .attribution import refine_attribution, soc_grouping


@dataclass
class StroberRun:
    """Everything one flow invocation produced."""

    design: str
    workload: str
    result: object               # WorkloadResult (performance side)
    replays: list
    energy: object               # EnergyEstimate
    engine: ReplayEngine
    wall_seconds: float = 0.0
    # per-stage wall-clock: flow/sim/replay/energy seconds, replay
    # worker count, and whether the ASIC flow came from the disk cache
    timings: dict = field(default_factory=dict)
    # ReplayHealthReport when the replay stage ran supervised (workers
    # > 1): records every recovery action the supervisor took, or None
    health: object = None
    # Chrome-trace JSON path when the run was invoked with trace=path
    # (read it with `python -m repro.obs.report <path>`), else None
    trace_path: str = None
    # Sampling-controller summary: mode, stop reason, sample size,
    # final eq.-7 relative error, fraction of snapshots replayed (see
    # AdaptiveSamplingController.finish)
    sampling: dict = None
    # Short hash of the run's identity parameters — the correlation id
    # stamped on every span this run records and on its history row
    run_key: str = None

    @property
    def cycles(self):
        return self.result.cycles

    @property
    def snapshots(self):
        return self.result.snapshots


def compute_run_key(design, workload, sample_size, replay_length,
                    max_cycles, seed, workload_kwargs):
    """Short stable id over a run's identity parameters.

    Backend/lane/worker knobs are deliberately excluded — they
    are bit-identical execution strategies, and the correlation id
    should survive a re-run under a different strategy (the history
    row records those knobs separately as ``config``).
    """
    ident = json.dumps(
        [design, workload, sample_size, replay_length, max_cycles,
         seed, workload_kwargs or {}],
        sort_keys=True, default=str)
    return hashlib.blake2b(ident.encode(), digest_size=6).hexdigest()


_CIRCUIT_CACHE = {}  # design -> StroberOutput
_ENGINE_CACHE = {}   # (design, freq_hz, gl_backend) -> ReplayEngine


def clear_caches(disk=False):
    """Empty the in-memory circuit/simulator/engine caches (and
    optionally the on-disk artifact cache) so tests and long-running
    processes can bound memory and force cold paths."""
    _CIRCUIT_CACHE.clear()
    _SIM_CACHE.clear()
    _ENGINE_CACHE.clear()
    if disk:
        get_cache().clear()


def _soc_pipeline():
    """The SoC ASIC pipeline: synthesis with functional-unit
    attribution refinement, unit-level floorplanning, formal matching."""
    return asic_pipeline(refine_fn=refine_attribution,
                         cluster_fn=soc_grouping, name="asicflow-soc")


def _soc_asic_flow(circuit, use_cache=True, debug=False):
    """ASIC flow with functional-unit attribution and floorplanning.

    Cached on disk under its own artifact kind (``asicflow-soc``); the
    cache key composes the circuit fingerprint with the pipeline
    fingerprint (covering the attribution refiner and floorplan
    grouping), so the SoC flow's artifacts can never collide with the
    generic :func:`~repro.core.replay.run_asic_flow` output — or with a
    differently-parameterized pipeline — for the same circuit.
    """
    return build_asic_flow(circuit, manager=_soc_pipeline(),
                           kind="asicflow-soc", use_cache=use_cache,
                           debug=debug)


def get_circuits(design):
    """The cached :class:`StroberCompiler` output of a named design: a
    FAME1 ``simulator_circuit`` with its scan spec, and an untouched
    ``target_circuit`` for the ASIC flow."""
    if design not in _CIRCUIT_CACHE:
        config = get_config(design)
        _CIRCUIT_CACHE[design] = StroberCompiler(
            config.build_circuit).compile()
    return _CIRCUIT_CACHE[design]


def get_replay_engine(design, freq_hz=None, use_cache=True, debug=False,
                      gl_backend=None):
    """The (cached) gate-level replay engine for a named configuration.

    Keyed by ``(design, freq_hz, gl_backend)``: the frequency feeds
    straight into power analysis and the gate-level evaluation backend
    owns a native kernel, so neither may share a cache slot.
    ``gl_backend`` defaults to ``auto`` (the C kernel where a compiler
    exists; ``$REPRO_GL_BACKEND`` overrides).  ``use_cache=False``
    skips the on-disk artifact cache (the in-memory engine cache still
    applies); ``debug=True`` runs the structural IR verifier between
    the ASIC pipeline's passes.
    """
    from ..gatelevel.glcodegen import resolve_backend
    gl_backend = resolve_backend(gl_backend)
    key = (design, freq_hz, gl_backend)
    if key not in _ENGINE_CACHE:
        target = get_circuits(design).target_circuit
        flow = _soc_asic_flow(target, use_cache=use_cache, debug=debug)
        _ENGINE_CACHE[key] = ReplayEngine(
            target, flow=flow, grouping=soc_grouping, freq_hz=freq_hz,
            gl_backend=gl_backend)
    return _ENGINE_CACHE[key]


def run_strober(design, workload, sample_size=30, replay_length=128,
                max_cycles=2_000_000, backend="auto", seed=0,
                confidence=0.99, workload_kwargs=None, strict_replay=True,
                record_full_io=False, workers=1, journal=None,
                batch_lanes=None, gl_backend=None, debug=False,
                trace=None, tracer=None, fault_plan=None,
                target_rel_error=None, min_sample=None, max_sample=None):
    """The headline API: energy-evaluate ``workload`` on ``design``.

    ``workload`` is a benchmark name from :data:`ALL_PROGRAMS` or a
    literal assembly source string.

    With no knobs, replay takes the fast path: ``batch_lanes=None``
    packs up to 64 snapshots into the bit lanes of one batched
    gate-level replay, and ``gl_backend=None`` means ``"auto"`` — the
    native C kernel (built once per host) where a C compiler exists,
    the interpreter where none does; ``$REPRO_GL_BACKEND`` overrides
    the default.  ``"c"`` and ``"interp"`` pick a backend explicitly
    (``"c"`` warns when it has to fall back).  Results are
    bit-identical for any lane count and backend, so both are
    recorded in the journal run key as advisory provenance only — a
    journal written under one setting resumes under another.  The
    backend that actually ran lands in ``timings["gl_backend"]``.

    ``workers`` > 1 replays batches in that many supervised worker
    processes (``None`` = all CPUs; 1, the default, = in-process).
    That isolates crashes and hangs in the gate-level kernel; it does
    not make replay faster, because one process replays a 64-lane
    batch on the C kernel in less time than a pool takes to start.
    A batch whose workers keep failing replays in-process on the
    interpreter (the kernel is the suspect, and the backends are
    bit-identical).  ``$REPRO_REPLAY_TIMEOUT`` overrides the
    per-snapshot deadline and ``$REPRO_START_METHOD`` the workers'
    start method.  The resulting
    :class:`~repro.robust.ReplayHealthReport` lands on the returned
    run's ``health`` field.

    Every circuit transform runs through the pass pipeline
    (:mod:`repro.passes`): the FAME1/scan compile of the simulator
    circuit and the synthesis/placement/matching flow on the tapeout
    circuit.  Their reports land in the returned run's ``timings``
    (``sim_pipeline`` / ``asic_pipeline`` / ``passes``); ``debug=True``
    additionally runs the structural IR verifier on the compiled
    circuit and between the ASIC passes.

    ``journal`` names a crash-safe run journal file: the simulation
    outcome, every sampled snapshot, and every completed replay result
    are appended (checksummed, fsync'd) as they land, and a rerun with
    the same parameters and the same ``journal`` path resumes from the
    last good record — skipping the FAME simulation and all finished
    replays — instead of restarting from scratch.

    ``trace`` names a Chrome-trace JSON output file and turns the
    observability layer (:mod:`repro.obs`) all the way up: every flow
    phase, compiler pass, FAME simulation, synthesis/placement step,
    cache access, gate-level replay batch, and supervisor incident is
    recorded as a span or event — replay *worker processes included*,
    whose spans ship back over the supervisor pipes and merge into the
    one exported timeline (open it in Perfetto, or run ``python -m
    repro.obs.report <path>``).  Live sampling-error telemetry (the
    running mean power and confidence half-width after each completed
    replay) is embedded as counter tracks.  Even without ``trace`` the
    run is spanned locally — the returned ``timings`` dict is *derived
    from the trace* — but worker capture and the export only happen
    when a path is given.

    ``tracer`` supplies an externally-owned :class:`~repro.obs.Tracer`
    instead of the one this call would create — the job service passes
    one per job with an ``on_span`` subscriber so its ``/status``
    endpoint can stream run phases live.  ``fault_plan`` is the
    fault-injection harness hook (:class:`repro.robust.FaultPlan`):
    it deliberately sabotages chosen replay dispatches and exists so
    chaos campaigns can drive sabotage through the public API.

    ``target_rel_error`` switches the replay phase into *adaptive*
    mode: snapshots are replayed in confidence-driven (bit-reversal)
    order, in batches that start at ``min_sample`` lanes and double up
    to ``batch_lanes``, and the run stops — cancelling in-flight
    batches without killing the pool — the moment the eq.-7
    confidence interval's relative error drops to the target (a
    fraction, e.g. ``0.05`` for ±5%), bounded below by
    ``min_sample`` (default 2) and above by
    ``max_sample`` (default: every sampled snapshot).  The stop
    reason, sample size, final relative error, and fraction of
    snapshots replayed land on the returned run's ``sampling`` dict
    (and, with ``journal``, in a control record).  Reopening an
    existing journal with a *tighter* target replays only the
    additional snapshots needed.  Left at ``None`` (the default),
    every snapshot is replayed and results are bit-identical to the
    fixed-sample pipeline.
    """
    from ..gatelevel.glcodegen import resolve_backend
    batch_lanes = 64 if batch_lanes is None else int(batch_lanes)
    gl_backend = resolve_backend(gl_backend)
    workload_name = workload if workload in ALL_PROGRAMS else "(custom)"
    run_key = compute_run_key(design, workload_name, sample_size,
                              replay_length, max_cycles, seed,
                              workload_kwargs)
    if tracer is None:
        tracer = Tracer(distributed=trace is not None)
    # Every span this run records — replay workers included, via the
    # supervisor's spawn payload — carries the run identity, so traces
    # from a multi-run process (the job service) stay joinable.
    tracer.set_correlation(run_key=run_key)
    prev_tracer = set_tracer(tracer)
    try:
        with tracer.span("strober.run", cat="flow", design=design,
                         workload=workload_name, batch_lanes=batch_lanes,
                         workers=-1 if workers is None else workers):
            run = _run_strober(
                design, workload, sample_size=sample_size,
                replay_length=replay_length, max_cycles=max_cycles,
                backend=backend, seed=seed, confidence=confidence,
                workload_kwargs=workload_kwargs,
                strict_replay=strict_replay,
                record_full_io=record_full_io, workers=workers,
                journal=journal, batch_lanes=batch_lanes,
                gl_backend=gl_backend, debug=debug, tracer=tracer,
                fault_plan=fault_plan,
                target_rel_error=target_rel_error,
                min_sample=min_sample, max_sample=max_sample)
    finally:
        set_tracer(prev_tracer)
        if trace is not None:
            export_chrome_trace(
                trace, tracer, registry=get_registry(),
                meta={"design": design, "workload": workload_name,
                      "workers": workers, "batch_lanes": batch_lanes,
                      "sample_size": sample_size,
                      "replay_length": replay_length,
                      "run_key": run_key})
    run.trace_path = trace
    run.run_key = run_key
    # Persist the run's history row (append-only store; never raises,
    # no-op when $REPRO_OBS_HISTORY disables the store).
    append_run_record(run)
    return run


def _run_strober(design, workload, *, sample_size, replay_length,
                 max_cycles, backend, seed, confidence, workload_kwargs,
                 strict_replay, record_full_io, workers, journal,
                 batch_lanes, gl_backend, debug, tracer,
                 fault_plan=None, target_rel_error=None,
                 min_sample=None, max_sample=None):
    """The traced flow body; ``tracer`` is already installed."""
    t0 = time.perf_counter()
    with tracer.span("phase.elaborate", cat="phase", design=design):
        config = get_config(design)
        circuits = get_circuits(design)
        if debug:   # the compile is cached: check what this call runs
            assert_well_formed(circuits.simulator_circuit)
        if workload in ALL_PROGRAMS:
            source = ALL_PROGRAMS[workload](**(workload_kwargs or {}))
            workload_name = workload
        else:
            source = workload
            workload_name = "(custom)"

    journal_file = None
    resume = None
    if journal is not None:
        from ..robust.journal import RunJournal, load_resume
        run_key = {
            "design": design,
            "workload": workload_name,
            "source_crc": zlib.crc32(source.encode())
            if isinstance(source, str) else None,
            "sample_size": sample_size,
            "replay_length": replay_length,
            "max_cycles": max_cycles,
            "seed": seed,
            "strict_replay": bool(strict_replay),
            "workload_kwargs": workload_kwargs or {},
            # advisory provenance: lane counts and backends are
            # bit-identical, so resume comparison ignores these keys
            # (see journal module)
            "batch_lanes": batch_lanes,
            "gl_backend": gl_backend,
            # advisory sampling knobs: resume comparison ignores these
            # too — that is what makes incremental re-sampling work
            # (reopen the same journal with a tighter target and only
            # the additional snapshots are replayed)
            "target_rel_error": target_rel_error,
            "min_sample": min_sample,
            "max_sample": max_sample,
            # pipeline fingerprints: a journal written under different
            # transform pipelines must not be resumed
            "pipelines": {"sim": circuits.fingerprint,
                          "asic": _soc_pipeline().fingerprint()},
        }
        resume = load_resume(journal, run_key)

    try:
        with tracer.span("phase.sim", cat="phase",
                         resumed=resume is not None) as sim_span:
            if resume is not None:
                from ..robust.journal import JournaledWorkloadResult
                result = JournaledWorkloadResult(resume.sim,
                                                 resume.snapshots)
                rtl_backend = None      # no simulator ran
            else:
                result = run_workload(
                    circuits.simulator_circuit, source,
                    max_cycles=max_cycles,
                    mem_latency=config.dram_latency,
                    line_words=config.line_words,
                    backend=backend,
                    sample_size=sample_size,
                    replay_length=replay_length,
                    seed=seed,
                    record_full_io=record_full_io,
                )
                rtl_backend = result.fame.sim.backend
            sim_span.set(cycles=result.cycles)
        sim_seconds = sim_span.dur
        if not result.passed:
            raise RuntimeError(
                f"workload {workload_name} failed on {design}: "
                f"exit={result.exit_code}")

        snapshots = list(result.snapshots)
        done = dict(resume.results) if resume is not None else {}

        if journal is not None:
            from ..robust.journal import (
                TYPE_META, TYPE_SNAPSHOT, TYPE_SIM, TYPE_RESULT,
                TYPE_CONTROL)
            with tracer.span("phase.journal", cat="phase",
                             resumed=resume is not None):
                journal_file = RunJournal(journal).open()
                if resume is None:
                    journal_file.reset()
                    # Resume trusts none of these records until SIM
                    # lands, so they share one fsync.
                    records = [(TYPE_META, run_key)]
                    for i, snapshot in enumerate(snapshots):
                        if snapshot.checksum is None:
                            snapshot.seal()
                        records.append((TYPE_SNAPSHOT,
                                        {"index": i,
                                         "snapshot": snapshot}))
                    records.append((TYPE_SIM, {
                        "cycles": result.cycles,
                        "instret": result.instret,
                        "exit_code": result.exit_code,
                        "dram_counters": result.memory.counters,
                        "n_snapshots": len(snapshots),
                    }))
                    journal_file.append_many(records)

        with tracer.span("phase.flow", cat="phase") as flow_span:
            engine = get_replay_engine(design, freq_hz=config.freq_hz,
                                       debug=debug,
                                       gl_backend=gl_backend)
            flow_span.set(cache_hit=engine.flow.cache_hit)
        flow_seconds = flow_span.dur

        with tracer.span("phase.replay", cat="phase",
                         workers=-1 if workers is None else workers,
                         batch_lanes=batch_lanes) as replay_span:
            pending = [i for i in range(len(snapshots))
                       if i not in done]
            population = max(
                int(math.ceil(result.cycles / replay_length)),
                len(snapshots) or 1)
            controller = AdaptiveSamplingController(
                population, available=len(snapshots) or 1,
                confidence=confidence,
                target_rel_error=target_rel_error,
                min_sample=min_sample, max_sample=max_sample,
                tracer=tracer)
            controller.seed(done[i].power.total_mw
                            for i in sorted(done))
            order = controller.plan_order(pending)
            # Only an adaptive run can stop early: it gets a cancel
            # token, and with it batches that ramp up from min_sample.
            cancel = CancelToken() if controller.adaptive else None
            # The stream labels every result with its *original*
            # snapshot index, so out-of-order completion under a
            # worker pool can never journal a result under the wrong
            # index — and the controller's cancel token stops dispatch
            # the moment the target interval is met.
            for idx, replay_result in engine.replay_stream(
                    snapshots, strict=strict_replay, workers=workers,
                    batch_lanes=batch_lanes, fault_plan=fault_plan,
                    order=order, cancel=cancel,
                    ramp=controller.min_sample):
                done[idx] = replay_result
                if journal_file is not None:
                    journal_file.append(TYPE_RESULT,
                                        {"index": idx,
                                         "result": replay_result})
                controller.observe(idx, replay_result)
                if (controller.should_stop() is not None
                        and not cancel.cancelled):
                    controller.request_cancel(cancel,
                                              controller.stop_reason)
            sampling = controller.finish()
            if journal_file is not None and controller.adaptive:
                journal_file.append(TYPE_CONTROL,
                                    {"controller": sampling})
            replays = [done[i] for i in sorted(done)]
            replay_span.set(snapshots=len(snapshots),
                            resumed=len(snapshots) - len(pending))
            if controller.adaptive:
                replay_span.set(
                    adaptive=True, replayed=controller.replayed,
                    stop_reason=sampling["stop_reason"])
        replay_seconds = replay_span.dur

        with tracer.span("phase.energy", cat="phase") as energy_span:
            energy = estimate_energy(
                replays,
                total_cycles=result.cycles,
                replay_length=replay_length,
                instructions=result.instret,
                confidence=confidence,
                workload=workload_name,
                design=design,
                dram_counters=result.memory.counters,
                freq_hz=config.freq_hz,
            )
        energy_seconds = energy_span.dur
    finally:
        if journal_file is not None:
            journal_file.close()
    return StroberRun(
        design=design,
        workload=workload_name,
        result=result,
        replays=replays,
        energy=energy,
        engine=engine,
        wall_seconds=time.perf_counter() - t0,
        timings=_merge_timings(
            {
                "sim_seconds": sim_seconds,
                "flow_seconds": flow_seconds,
                "replay_seconds": replay_seconds,
                "energy_seconds": energy_seconds,
                "workers": workers,
                "batch_lanes": batch_lanes,
                "rtl_backend": rtl_backend,
                "gl_backend": engine.backend_used,
                "flow_cache_hit": engine.flow.cache_hit,
                "resumed_sim": resume is not None,
                "resumed_replays": len(resume.results) if resume else 0,
            },
            ("sim_pipeline", circuits.report),
            ("asic_pipeline", getattr(engine.flow, "pipeline_report",
                                      None)),
        ),
        health=engine.last_health,
        sampling=sampling,
    )


def _merge_timings(timings, *reports):
    """Fold pass-pipeline reports into the run's timing dict.

    ``reports`` are ``(label, report)`` pairs.  ``passes`` is the flat
    per-pass wall-clock breakdown across every pipeline; each full
    report (IR deltas, fingerprints, stats) rides along under its
    label.  Tolerant by construction: a ``None`` report *anywhere* in
    the list — a cache-hit ASIC flow (which carries no report for this
    process's run), an old cached artifact without one — contributes an explicit ``None`` under its label and
    never stops later reports from being merged.
    """
    passes = {}
    for label, report in reports:
        if report is None or not hasattr(report, "per_pass_seconds"):
            timings[label] = None
            continue
        for name, seconds in report.per_pass_seconds().items():
            passes[f"{report.pipeline}/{name}"] = seconds
        timings[label] = report.as_dict()
    timings["passes"] = passes
    return timings
