"""The Strober job daemon: a supervised asyncio front door for
``run_strober``.

One single-process service owns a bounded job queue and runs each
admitted job through the existing flow — FAME simulation, snapshot
sampling, supervised gate-level replay, energy estimation — on a
worker thread, with the event loop free to answer status queries,
admit or reject new work, and watch deadlines the whole time.

Robustness model, layer by layer:

* **Admission control** — a full queue rejects with a typed
  ``queue-full`` error *before* the job costs anything; a draining
  daemon rejects with ``draining``.  Accepted jobs are journaled
  (CRC-framed, fsync'd) before the acknowledgement is sent, so an
  acknowledged job survives a daemon kill.
* **Deadlines** — a job's wall-clock budget spans all its attempts;
  exceeding it is terminal (``deadline-exceeded``), and the abandoned
  worker thread cannot wedge the queue because every job gets its own
  single-thread executor.
* **Retries** — recoverable faults (worker crashes the supervisor
  could not absorb, transient infrastructure errors) retry with
  full-jitter exponential backoff; deterministic failures (replay
  mismatch, snapshot corruption, workload exit) never retry.
* **Circuit breakers** — per-design crash accounting demotes the
  gate-level backend down the ``c -> interp`` ladder and
  quarantines the suspect C kernel (see
  :mod:`repro.service.breaker`).  The supervisor's in-process serial
  fallback is always pinned to ``interp`` so a poisoned shared object
  is never loaded into the daemon's own address space by the fallback
  path.
* **Crash-safe resume** — a killed daemon restarted on the same state
  directory re-admits every unfinished journaled job in order, and
  each job's own run journal lets ``run_strober`` skip the simulation
  and every finished replay.
* **Graceful drain** — SIGTERM (or the ``drain`` command) stops
  admission, finishes the queue, and leaves the daemon answering
  status queries; ``shutdown`` exits once drained.

Concurrency note: jobs for the *same design* are serialized on an
in-process lock no matter what ``max_running`` says — the flow caches
one circuit pair and one replay engine per design, both stateful, so
two concurrent same-design runs in one process would corrupt each
other's simulation state (a job's deadline therefore also covers time
spent waiting for its design's lock).  Jobs for *different* designs
share nothing stateful and genuinely overlap.  ``max_running`` still
defaults to 1 because ``run_strober`` installs a process-global tracer
for the duration of a run — with more than one job running, span
*attribution* between concurrent jobs can interleave (results are
unaffected; the metrics registry is global either way).  Concurrent
*submission* is always fine.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import functools
import itertools
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..core.flow import run_strober
from ..obs import Tracer, get_registry
from ..obs.prom import (
    PROM_CONTENT_TYPE, Sample, process_health_samples,
    render_exposition,
)
from .breaker import BreakerBoard, quarantine_compiled_kernel
from .protocol import (
    JobSpec, ServiceError, decode_line, encode_line, ok_response,
    error_response, MAX_LINE_BYTES,
    ERR_INVALID_REQUEST, ERR_QUEUE_FULL, ERR_DRAINING, ERR_UNKNOWN_JOB,
    ERR_DEADLINE, ERR_CANCELLED, ERR_INTERNAL,
)
from .state import ServiceJournal, load_service_state, result_digest

_METRIC_PREFIXES = ("service.", "supervisor.", "cache.", "sampling.",
                    "journal.")

# Per-job wall-clock latency buckets (seconds): sized for this repo's
# scaled workloads — sub-second smoke jobs up to multi-minute sweeps.
_JOB_SECONDS_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                        60.0, 120.0, 300.0)


@dataclass
class ServiceConfig:
    """Everything a daemon instance is allowed to decide up front."""

    state_dir: str
    unix_socket: str = None       # preferred transport when set
    host: str = "127.0.0.1"
    port: int = 0                 # 0 = ephemeral (read it back off
                                  # ``StroberService.address``)
    max_queue: int = 16
    max_running: int = 1
    job_retries: int = 2
    retry_backoff_s: float = 0.25
    default_deadline_s: float = None
    default_gl_backend: str = None
    breaker_threshold: int = 2
    trace_dir: str = None         # per-job Chrome traces when set
    metrics_port: int = None      # plain-HTTP /metrics scrape port
                                  # (0 = ephemeral; None = no listener —
                                  # the ``metrics`` protocol command
                                  # works either way)


class Job:
    """In-memory state of one job, mutated only by the event loop and
    (for span telemetry) the job's own worker thread."""

    def __init__(self, job_id, spec, submitted_at=None, resumed=False):
        self.id = job_id
        self.spec = spec
        self.state = "queued"     # queued|running|done|failed|cancelled
        self.resumed = resumed
        self.attempts = 0
        self.backends = []        # effective backend per attempt
        self.demotions = []       # breaker events this job triggered
        self.crashes = 0          # worker crashes absorbed across attempts
        self.error = None         # typed error dict when failed
        self.digest = None        # result_digest when done
        self.summary = None       # energy/timing summary when done
        self.submitted_at = submitted_at or time.time()
        self.started_at = None
        self.finished_at = None
        self.last_phase = None    # most recent closed phase span
        self.span_count = 0
        self.progress = None      # latest controller.* decision args
        self.cancel_requested = False
        self.done = asyncio.Event()

    @property
    def terminal(self):
        return self.state in ("done", "failed", "cancelled")

    def info(self):
        return {
            "id": self.id, "state": self.state, "resumed": self.resumed,
            "spec": self.spec.as_dict(), "attempts": self.attempts,
            "backends": list(self.backends),
            "demotions": list(self.demotions),
            "crashes": self.crashes,
            "error": self.error, "digest": self.digest,
            "summary": self.summary,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "last_phase": self.last_phase,
            "spans": self.span_count,
            "progress": self.progress,
        }


class StroberService:
    """The daemon.  ``await start()`` inside a running loop, then
    ``await wait_stopped()`` (or drive it from
    :class:`repro.service.harness.ServiceHarness`)."""

    def __init__(self, config):
        self.config = config
        self.state = "starting"   # serving|draining|drained|stopped
        self.jobs = {}
        self._queue = collections.deque()
        self._running = {}        # job id -> asyncio.Task
        self._clients = set()     # open connection-handler tasks
        self.breakers = BreakerBoard(threshold=config.breaker_threshold)
        self._journal = None
        self._next_job_number = 1
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._stopped = asyncio.Event()
        self._exit_when_drained = False
        self._scheduler_task = None
        self._server = None
        self._metrics_server = None
        self._started_at = None
        self._design_locks = {}   # design -> threading.Lock
        self._last_span = None
        self._resumed_pending = 0
        self._skipped_records = 0

    # -- paths -------------------------------------------------------

    @property
    def jobs_journal_path(self):
        return os.path.join(self.config.state_dir, "jobs.journal")

    @property
    def runs_dir(self):
        return os.path.join(self.config.state_dir, "runs")

    def _run_journal_path(self, job_id):
        return os.path.join(self.runs_dir, f"{job_id}.journal")

    # -- lifecycle ---------------------------------------------------

    async def start(self):
        os.makedirs(self.config.state_dir, exist_ok=True)
        os.makedirs(self.runs_dir, exist_ok=True)
        if self.config.trace_dir:
            os.makedirs(self.config.trace_dir, exist_ok=True)
        self._recover()
        self._journal = ServiceJournal(self.jobs_journal_path).open()
        if self.config.unix_socket:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.unix_socket)
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.config.unix_socket,
                limit=MAX_LINE_BYTES + 2)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port, limit=MAX_LINE_BYTES + 2)
        if self.config.metrics_port is not None:
            # A second, HTTP-speaking listener so a stock Prometheus
            # scraper needs no knowledge of the line protocol.
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, host=self.config.host,
                port=self.config.metrics_port)
        self._scheduler_task = asyncio.create_task(self._scheduler())
        self._started_at = time.time()
        self.state = "serving"
        get_registry().counter("service.starts").inc()
        return self

    def _recover(self):
        """Rebuild the queue from the jobs journal (killed daemon)."""
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            recovered = load_service_state(self.jobs_journal_path)
        self._next_job_number = recovered.next_job_number
        self._skipped_records = recovered.skipped_records
        for job_id, record in recovered.accepted.items():
            update = recovered.finished.get(job_id)
            try:
                spec = JobSpec.from_dict(record["spec"])
            except ServiceError as exc:
                # A journaled spec this daemon cannot parse (written by
                # a newer daemon): surface it as failed, don't run it.
                if update is None:
                    job = Job(job_id, _OpaqueSpec(record["spec"]),
                              submitted_at=record.get("submitted_at"),
                              resumed=True)
                    job.state = "failed"
                    job.error = exc.as_dict()
                    job.done.set()
                    self.jobs[job_id] = job
                continue
            job = Job(job_id, spec,
                      submitted_at=record.get("submitted_at"),
                      resumed=True)
            if update is not None:
                job.state = update["state"]
                job.error = update.get("error")
                job.digest = update.get("digest")
                job.summary = update.get("summary")
                job.finished_at = update.get("finished_at")
                job.done.set()
            else:
                self._queue.append(job_id)
                self._resumed_pending += 1
            self.jobs[job_id] = job
        get_registry().counter("service.jobs_resumed").inc(
            self._resumed_pending)

    def begin_drain(self, stop=False):
        """Stop admission; finish the queue.  ``stop=True`` also exits
        once drained (the SIGTERM path)."""
        if stop:
            self._exit_when_drained = True
        if self.state == "serving":
            self.state = "draining"
        self._wake.set()

    async def wait_drained(self):
        await self._drained.wait()

    async def wait_stopped(self):
        await self._stopped.wait()

    @property
    def address(self):
        """Where clients connect, with the real (post-bind) port."""
        if self.config.unix_socket:
            return {"family": "unix", "path": self.config.unix_socket}
        host, port = self._server.sockets[0].getsockname()[:2]
        return {"family": "tcp", "host": host, "port": port}

    @property
    def metrics_address(self):
        """``(host, port)`` of the /metrics listener, or None."""
        if self._metrics_server is None:
            return None
        host, port = (
            self._metrics_server.sockets[0].getsockname()[:2])
        return (host, port)

    # -- scheduler ---------------------------------------------------

    async def _scheduler(self):
        while True:
            self._wake.clear()
            while (self._queue and self.state in ("serving", "draining")
                   and len(self._running) < self.config.max_running):
                job = self.jobs[self._queue.popleft()]
                if job.cancel_requested:
                    self._finalize(job, "cancelled", error=ServiceError(
                        ERR_CANCELLED, "cancelled while queued"))
                    continue
                task = asyncio.create_task(self._run_job(job))
                self._running[job.id] = task
            if (self.state == "draining" and not self._queue
                    and not self._running):
                self.state = "drained"
                self._drained.set()
            if self.state == "drained" and self._exit_when_drained:
                break
            await self._wake.wait()
        await self._stop()

    async def _stop(self):
        self._server.close()
        # Connections still open are finished here, while the loop
        # runs: a handler left pending would be finalized after the
        # loop closed, and its writer.close() would raise.
        for task in list(self._clients):
            task.cancel()
        await asyncio.gather(*self._clients, return_exceptions=True)
        with contextlib.suppress(Exception):
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            with contextlib.suppress(Exception):
                await self._metrics_server.wait_closed()
        if self.config.unix_socket:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_socket)
        self._journal.close()
        self.state = "stopped"
        self._stopped.set()

    # -- job execution -----------------------------------------------

    async def _run_job(self, job):
        spec = job.spec
        job.state = "running"
        job.started_at = time.time()
        retries = (spec.retries if spec.retries is not None
                   else self.config.job_retries)
        deadline_s = (spec.deadline_s if spec.deadline_s is not None
                      else self.config.default_deadline_s)
        deadline_at = (time.monotonic() + deadline_s
                       if deadline_s else None)
        # One plan per job: sabotage budgets are consumed across
        # attempts, so a retried job does not re-arm its own faults.
        plan = spec.fault_plan()
        try:
            attempt = 0
            while True:
                attempt += 1
                job.attempts = attempt
                requested = (spec.gl_backend
                             or self.config.default_gl_backend)
                backend = self.breakers.effective(spec.design, requested)
                job.backends.append(backend or "auto")
                try:
                    run = await self._run_attempt(job, backend, plan,
                                                  deadline_at)
                except ServiceError as exc:
                    error = exc
                else:
                    crashes = _crash_count(run.health)
                    if crashes:
                        job.crashes += crashes
                        await self._charge_breaker(
                            job, spec.design, backend, crashes)
                    self._finalize(job, "done", run=run)
                    return
                if error.retryable:
                    await self._charge_breaker(job, spec.design, backend,
                                               1, reason=error.type)
                out_of_time = (deadline_at is not None
                               and time.monotonic() >= deadline_at)
                if (not error.retryable or attempt > retries
                        or job.cancel_requested or out_of_time):
                    if job.cancel_requested and error.retryable:
                        error = ServiceError(ERR_CANCELLED,
                                             "cancelled between attempts")
                    self._finalize(job, "failed", error=error)
                    return
                # Full-jitter exponential backoff: expected spacing
                # still doubles per attempt, but a burst of failed jobs
                # cannot re-converge onto one retry instant.
                cap = self.config.retry_backoff_s * (2 ** (attempt - 1))
                await asyncio.sleep(random.uniform(0.0, cap))
        except Exception as exc:   # the scheduler must never wedge
            self._finalize(job, "failed", error=ServiceError(
                ERR_INTERNAL, f"{type(exc).__name__}: {exc}"))
        finally:
            self._running.pop(job.id, None)
            self._wake.set()

    async def _run_attempt(self, job, backend, plan, deadline_at):
        """One ``run_strober`` on a dedicated worker thread.

        The thread gets its own single-slot executor so a
        deadline-abandoned attempt strands *its* thread, not a shared
        pool — the queue keeps moving no matter how wedged the
        abandoned work is.  The supervisor's in-process fallback runs
        on ``interp``, so the daemon never executes a possibly-poisoned
        compiled kernel in its own process on the recovery path.

        Attempts hold their design's lock for the duration of the run:
        the cached circuit pair and replay engine are per-design and
        stateful, so two same-design runs in one process must never
        overlap (see the module docstring's concurrency note).
        """
        spec = job.spec
        design_lock = self._design_locks.setdefault(spec.design,
                                                    threading.Lock())
        trace_path = (os.path.join(self.config.trace_dir,
                                   f"{job.id}.trace.json")
                      if self.config.trace_dir else None)
        # job_id stamps every span the attempt records — replay worker
        # processes included (the supervisor ships the correlation in
        # its spawn payload) — so a trace directory full of jobs stays
        # joinable; the flow adds run_key to the same dict.
        tracer = Tracer(distributed=trace_path is not None,
                        on_span=functools.partial(self._on_span, job),
                        on_event=functools.partial(self._on_event, job),
                        correlation={"job_id": job.id})
        kwargs = spec.run_kwargs()

        def work():
            with design_lock:
                return run_strober(
                    spec.design, spec.workload,
                    journal=self._run_journal_path(job.id),
                    gl_backend=backend, fault_plan=plan, tracer=tracer,
                    trace=trace_path, **kwargs)

        loop = asyncio.get_running_loop()
        pool = ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix=f"strober-{job.id}")
        future = loop.run_in_executor(pool, work)
        pool.shutdown(wait=False)
        timeout = (None if deadline_at is None
                   else max(0.001, deadline_at - time.monotonic()))
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            get_registry().counter("service.deadline_exceeded").inc()
            raise ServiceError(
                ERR_DEADLINE,
                f"job {job.id} exceeded its deadline "
                f"({_fmt_seconds(deadline_at, job)}); the attempt was "
                f"abandoned on its own thread")
        except Exception as exc:
            raise _classify(exc)

    async def _charge_breaker(self, job, design, backend, count,
                              reason="worker-crash"):
        event = self.breakers.record_failure(design, backend or "auto",
                                             count=count, reason=reason)
        if event is None:
            return
        get_registry().counter("service.demotions").inc()
        if event["from"] == "c":
            # The cached shared object is now a suspect: pull it out
            # of circulation (kept under <cache>/quarantine/ for
            # inspection).  Runs in the default executor because key
            # derivation runs the compiler and touches the cache.
            loop = asyncio.get_running_loop()
            event["quarantined"] = await loop.run_in_executor(
                None, quarantine_compiled_kernel, design)
        job.demotions.append(event)

    def _finalize(self, job, state, run=None, error=None):
        job.state = state
        job.finished_at = time.time()
        if job.started_at is not None:
            # Wall-clock across all attempts, lock waits included —
            # the latency a client actually observed.
            get_registry().histogram(
                "service.job_seconds", _JOB_SECONDS_BUCKETS).observe(
                job.finished_at - job.started_at)
        if run is not None:
            job.digest = result_digest(run.replays)
            job.summary = _summarize(run)
            get_registry().counter("service.jobs_done").inc()
        if error is not None:
            job.error = error.as_dict()
            get_registry().counter("service.jobs_failed").inc()
        self._journal.job_finished(job.id, state, error=job.error,
                                   digest=job.digest,
                                   summary=job.summary)
        job.done.set()

    def _on_span(self, job, record):
        # Runs on the job's worker thread as each span closes: the
        # live feed behind /status.  Attribute updates only — anything
        # heavier belongs on the loop.
        job.span_count += 1
        if record.cat == "phase":
            job.last_phase = record.name
        self._last_span = {"job": job.id, "name": record.name,
                           "cat": record.cat,
                           "dur": round(record.dur, 6)}

    def _on_event(self, job, event):
        # Same live feed, for instant events: the adaptive sampling
        # controller's decisions surface in job status mid-run.
        name = event.get("name", "")
        if not name.startswith("controller."):
            return
        kind = name.split("controller.", 1)[1]
        if kind not in ("dispatch", "progress", "cancel", "stop"):
            return
        info = {"event": kind}
        info.update(event.get("args") or {})
        job.progress = info

    # -- the socket protocol -----------------------------------------

    async def _handle_client(self, reader, writer):
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_line(error_response(
                        (ERR_INVALID_REQUEST, "request line too long"))))
                    await writer.drain()
                    break
                if not line:
                    break    # client went away; its jobs keep running
                try:
                    response = await self._dispatch(decode_line(line))
                except ServiceError as exc:
                    response = error_response(exc)
                except Exception as exc:
                    response = error_response((
                        ERR_INTERNAL,
                        f"{type(exc).__name__}: {exc}"))
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Daemon exiting with this connection still open: finish
            # the handler normally so loop teardown doesn't log the
            # cancelled task through the streams protocol callback.
            pass
        finally:
            writer.close()
            # CancelledError included: connection handlers alive at
            # daemon exit get cancelled mid-cleanup, which is fine.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()
            self._clients.discard(task)

    async def _dispatch(self, request):
        cmd = request.get("cmd")
        handler = getattr(self, f"_cmd_{(cmd or '').replace('-', '_')}",
                          None)
        if not isinstance(cmd, str) or handler is None:
            raise ServiceError(ERR_INVALID_REQUEST,
                               f"unknown command {cmd!r}")
        return await handler(request)

    async def _cmd_ping(self, request):
        return ok_response(cmd="ping", state=self.state)

    async def _cmd_submit(self, request):
        if self.state != "serving":
            raise ServiceError(ERR_DRAINING,
                               f"daemon is {self.state}; not accepting "
                               f"new jobs")
        spec = JobSpec.from_dict(request.get("spec"))
        if len(self._queue) >= self.config.max_queue:
            get_registry().counter("service.rejected_full").inc()
            raise ServiceError(
                ERR_QUEUE_FULL,
                f"queue is full ({self.config.max_queue} job(s) "
                f"queued); retry after a slot frees up")
        job_id = f"job-{self._next_job_number:06d}"
        self._next_job_number += 1
        job = Job(job_id, spec)
        # Durable before acknowledged: once the client sees this id,
        # a daemon kill cannot lose the job.
        self._journal.job_accepted(job_id, spec.as_dict())
        self.jobs[job_id] = job
        self._queue.append(job_id)
        get_registry().counter("service.jobs_accepted").inc()
        self._wake.set()
        return ok_response(cmd="submit", job_id=job_id,
                           position=len(self._queue))

    def _job(self, request):
        job = self.jobs.get(request.get("id"))
        if job is None:
            raise ServiceError(ERR_UNKNOWN_JOB,
                               f"unknown job id {request.get('id')!r}")
        return job

    async def _cmd_job(self, request):
        return ok_response(cmd="job", job=self._job(request).info())

    async def _cmd_wait(self, request):
        job = self._job(request)
        timeout = request.get("timeout_s")
        done = True
        if timeout is None:
            await job.done.wait()
        else:
            try:
                await asyncio.wait_for(
                    asyncio.shield(job.done.wait()), float(timeout))
            except asyncio.TimeoutError:
                done = False
        return ok_response(cmd="wait", done=done, job=job.info())

    async def _cmd_cancel(self, request):
        job = self._job(request)
        if job.terminal:
            return ok_response(cmd="cancel", cancelled=False,
                               job=job.info())
        job.cancel_requested = True
        if job.state == "queued":
            with contextlib.suppress(ValueError):
                self._queue.remove(job.id)
            self._finalize(job, "cancelled", error=ServiceError(
                ERR_CANCELLED, "cancelled while queued"))
            self._wake.set()
            return ok_response(cmd="cancel", cancelled=True,
                               job=job.info())
        # Running: the current attempt finishes (or hits its
        # deadline); the job stops before any retry.
        return ok_response(cmd="cancel", cancelled=False,
                           pending=True, job=job.info())

    async def _cmd_status(self, request):
        return ok_response(cmd="status", status=self.status_snapshot())

    async def _cmd_metrics(self, request):
        return ok_response(cmd="metrics",
                           content_type=PROM_CONTENT_TYPE,
                           text=self.render_metrics())

    async def _cmd_drain(self, request):
        self.begin_drain(stop=False)
        return ok_response(cmd="drain", state=self.state)

    async def _cmd_shutdown(self, request):
        self.begin_drain(stop=True)
        return ok_response(cmd="shutdown", state=self.state)

    # -- metrics exposition ------------------------------------------

    def render_metrics(self):
        """The Prometheus text-format scrape page for this daemon.

        Refreshes the process-health gauges (uptime, queue depth, jobs
        in flight, RSS, open fds) at render time — a scrape always sees
        current levels — then renders the whole metrics registry plus
        the labeled per-design breaker series, which cannot live in
        the flat registry.
        """
        registry = get_registry()
        registry.gauge("service.uptime_seconds").set(
            time.time() - self._started_at if self._started_at else 0.0)
        registry.gauge("service.queue_depth").set(len(self._queue))
        registry.gauge("service.jobs_inflight").set(len(self._running))
        samples = list(process_health_samples())
        for design, info in sorted(self.breakers.snapshot().items()):
            samples.append(Sample(
                "service.breaker_floor_info", 1.0,
                labels={"design": design,
                        "floor": info.get("floor") or "none"},
                help="current gate-level backend floor per design "
                     "(info-style: the value is always 1; the floor "
                     "rides in the label)"))
            for backend, count in sorted(
                    (info.get("failures") or {}).items()):
                samples.append(Sample(
                    "service.breaker_failures", count,
                    labels={"design": design, "backend": backend},
                    help="breaker failure charges per design and "
                         "backend rung"))
        return render_exposition(registry=registry, samples=samples)

    async def _handle_metrics_http(self, reader, writer):
        """Minimal HTTP responder for the scrape port: ``GET /metrics``
        answers the exposition page; everything else is a 404.  Always
        ``Connection: close`` — scrapers reconnect per scrape and this
        keeps the handler stateless."""
        try:
            try:
                request_line = await reader.readline()
                while True:          # drain headers to the blank line
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
            except (asyncio.LimitOverrunError, ValueError):
                request_line = b""
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1].split("?")[0] if len(parts) > 1 else ""
            if method == "GET" and path == "/metrics":
                body = self.render_metrics().encode()
                status, ctype = "200 OK", PROM_CONTENT_TYPE
            else:
                body = b"only GET /metrics lives here\n"
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
            writer.write(
                (f"HTTP/1.1 {status}\r\n"
                 f"Content-Type: {ctype}\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 f"Connection: close\r\n"
                 f"\r\n").encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    # -- status ------------------------------------------------------

    def status_snapshot(self):
        by_state = collections.Counter(
            job.state for job in self.jobs.values())
        registry = get_registry()
        metrics = {
            name: record["value"]
            for name, record in registry.snapshot().items()
            if record["kind"] in ("counter", "gauge")
            and name.startswith(_METRIC_PREFIXES)}
        return {
            "state": self.state,
            "uptime_s": (time.time() - self._started_at
                         if self._started_at else 0.0),
            "queued": list(self._queue),
            "running": list(self._running),
            "jobs": dict(by_state),
            "max_queue": self.config.max_queue,
            "max_running": self.config.max_running,
            "resumed_pending": self._resumed_pending,
            "skipped_journal_records": self._skipped_records,
            "breakers": self.breakers.snapshot(),
            "last_span": self._last_span,
            "metrics": metrics,
        }


class _OpaqueSpec:
    """Placeholder spec for a journaled job this daemon cannot parse
    (newer schema): keeps ``info()`` working without pretending the
    job is runnable."""

    def __init__(self, raw):
        self._raw = raw

    def as_dict(self):
        return dict(self._raw) if isinstance(self._raw, dict) else {}


def _crash_count(health):
    """Worker crashes and hangs a run's supervisor absorbed (0 when
    the replay ran serial).  Worker *errors* (clean exceptions) are
    excluded: they indict the snapshot or the fault injector, not the
    backend's native kernel, so they never charge the breaker."""
    if health is None:
        return 0
    return int(getattr(health, "crashes", 0)
               + getattr(health, "timeouts", 0))


def _classify(exc):
    """Map a run's exception onto the typed error vocabulary."""
    from ..core.replay import ReplayError
    from ..scan.snapshot import SnapshotError
    from .protocol import ERR_REPLAY_MISMATCH, ERR_SNAPSHOT, ERR_WORKLOAD
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, ReplayError):
        return ServiceError(ERR_REPLAY_MISMATCH, str(exc))
    if isinstance(exc, SnapshotError):
        return ServiceError(ERR_SNAPSHOT, str(exc))
    if isinstance(exc, RuntimeError) and "failed on" in str(exc):
        return ServiceError(ERR_WORKLOAD, str(exc))
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        # Deterministic programming/spec errors: retrying re-raises.
        return ServiceError(ERR_INTERNAL,
                            f"{type(exc).__name__}: {exc}")
    return ServiceError(ERR_INTERNAL, f"{type(exc).__name__}: {exc}",
                        retryable=True)


def _summarize(run):
    energy = run.energy
    power = energy.power
    return {
        "cycles": run.result.cycles,
        "snapshots": len(run.replays),
        "mean_power_mw": power.mean,
        "total_power_mw": energy.total_power_mw,
        "epi_nj": energy.epi_nj,
        "rel_error": getattr(power, "relative_error_bound", None),
        "rtl_backend": run.timings.get("rtl_backend"),
        "gl_backend": run.timings.get("gl_backend"),
        "batch_lanes": run.timings.get("batch_lanes"),
        "resumed_sim": run.timings.get("resumed_sim"),
        "resumed_replays": run.timings.get("resumed_replays"),
        "wall_seconds": run.wall_seconds,
        "trace_path": run.trace_path,
        "sampling": getattr(run, "sampling", None),
    }


def _fmt_seconds(deadline_at, job):
    spec = job.spec
    if spec.deadline_s is not None:
        return f"{spec.deadline_s:g}s"
    return "the configured default deadline"
