"""Supervised replay pool: fault-tolerant snapshot fan-out.

The bare ``pool.map`` fan-out had three failure modes that either hung
``replay_all`` forever or killed the whole run on the first transient
fault: a worker that crashes (OOM-killed, segfault in a native
extension), a worker that hangs (deadlocked fork, runaway replay), and
a worker that raises a spurious one-off exception.  This supervisor
replaces it with an explicitly managed set of worker processes.
:meth:`repro.core.replay.ReplayEngine.replay_stream` (``workers`` > 1)
is the only way in: it plans the batches and hands them, with the
engine itself, to :func:`supervise`.


* each snapshot gets a wall-clock deadline derived from its replay
  length (overridable per call or via ``$REPRO_REPLAY_TIMEOUT``); the
  deadline clock only starts once the worker has finished its one-time
  engine initialization (kernel compile/load), which the worker
  announces with a ``ready`` message — so a ~2 s gcc compile under
  ``gl_backend="c"`` cannot eat a small first batch's budget and
  trigger a spurious hang-kill;
* a dead or overdue worker is killed and respawned, and its snapshot is
  retried — up to ``max_retries`` times, with exponential backoff and
  *full jitter* (the retry delay is drawn uniformly from [0, cap]), so
  a batch of simultaneously-killed workers does not respawn and
  re-dispatch in lockstep;
* a snapshot that exhausts its retries degrades gracefully to an
  in-process replay on the interpreter (the kernel is the suspect, and
  the backends are bit-identical), so one poisoned worker environment
  cannot sink the run;
* deterministic verification failures (strict-mode ``ReplayError``
  mismatches, ``SnapshotError`` integrity failures) are *never*
  retried: they are the detection machinery firing, and they propagate
  to the caller exactly as the serial path would raise them;
* every recovery action is recorded as a :class:`ReplayIncident` in a
  structured :class:`ReplayHealthReport` so a run that needed healing
  is distinguishable from a clean one.
"""

from __future__ import annotations

import os
import pickle
import random
import selectors
import struct
import time
from collections import deque
from dataclasses import dataclass, field

from ..parallel.pool import ParallelReplayError, _pick_context

_ENV_TIMEOUT = "REPRO_REPLAY_TIMEOUT"
_ENV_INIT_GRACE = "REPRO_REPLAY_INIT_GRACE"
_MIN_TIMEOUT_S = 30.0
_PER_CYCLE_BUDGET_S = 0.25
_POLL_S = 0.02
_INIT_GRACE_S = 300.0

_WaitSelector = getattr(selectors, "PollSelector", selectors.SelectSelector)

# Full-jitter retry delays (and nothing else) come from this generator
# and this base; both are module-level so tests can pin them.
_BACKOFF_RNG = random.Random()
_BACKOFF_BASE_S = 0.25


def default_replay_timeout(replay_length):
    """Per-snapshot deadline: generous per-cycle budget with a floor.

    ``$REPRO_REPLAY_TIMEOUT`` (seconds) overrides the derivation.
    """
    env = os.environ.get(_ENV_TIMEOUT)
    if env:
        return float(env)
    return max(_MIN_TIMEOUT_S, _PER_CYCLE_BUDGET_S * float(replay_length))


def default_init_grace():
    """Extra deadline headroom while a worker is still initializing.

    Engine construction inside a worker pays one-time costs the batch
    deadline must not be charged for — most visibly the C kernel
    compile under ``gl_backend="c"`` on a cold cache.  Until the worker
    reports ``ready``, its in-flight task's deadline is extended by
    this grace; the moment ``ready`` arrives the deadline is re-armed
    to the plain task timeout.  ``$REPRO_REPLAY_INIT_GRACE`` (seconds)
    overrides.
    """
    env = os.environ.get(_ENV_INIT_GRACE)
    if env:
        return float(env)
    return _INIT_GRACE_S


@dataclass
class ReplayIncident:
    """One recovery (or detection) action the supervisor took."""

    kind: str            # timeout | worker-crash | worker-error |
                         # serial-fallback
    snapshot_index: int
    snapshot_cycle: int
    attempt: int         # 1-based attempt number that failed
    detail: str = ""


@dataclass
class ReplayHealthReport:
    """Structured account of how a supervised replay run went."""

    workers: int = 0
    timeout_seconds: float = 0.0
    batch_lanes: int = 1
    total_snapshots: int = 0
    completed_parallel: int = 0
    completed_serial: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    worker_errors: int = 0
    respawns: int = 0
    serial_fallbacks: int = 0
    cancelled: int = 0           # snapshots abandoned by a CancelToken
    incidents: list = field(default_factory=list)

    @property
    def healthy(self):
        # A cooperative cancellation is a *decision*, not a fault: a
        # stream the controller stopped early still counts as healthy.
        return not self.incidents

    def record(self, kind, index, cycle, attempt, detail=""):
        # Every recovery action is also a trace event + a metric, so a
        # run that needed healing is visible in the exported timeline
        # and the report CLI, not only on this report object.
        from ..obs import get_tracer, get_registry
        get_registry().counter(f"supervisor.{kind}").inc()
        get_tracer().instant(f"supervisor.{kind}", cat="supervisor",
                             snapshot_index=index, snapshot_cycle=cycle,
                             attempt=attempt, detail=detail)
        self.incidents.append(
            ReplayIncident(kind=kind, snapshot_index=index,
                           snapshot_cycle=cycle, attempt=attempt,
                           detail=detail))

    def summary(self):
        if self.healthy:
            return (f"replay pool healthy: {self.completed_parallel} "
                    f"snapshot(s) on {self.workers} worker(s), no incidents")
        return (f"replay pool recovered: {self.crashes} crash(es), "
                f"{self.timeouts} timeout(s), {self.worker_errors} worker "
                f"error(s); {self.retries} retry(ies), "
                f"{self.serial_fallbacks} serial fallback(s) over "
                f"{self.total_snapshots} snapshot(s)")


def _shippable(exc):
    """Exceptions cross the result queue by pickle; guard against ones
    that can't (a broken queue feeder thread would look like a hang)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            f"worker raised unpicklable {type(exc).__name__}: {exc!r}")


def _worker_main(task_conn, result_conn, fault=None):
    """Worker process: build the engine once, replay streamed tasks.

    The engine payload (the pickled flow, ~0.5 MB) is the first frame
    on ``task_conn``, not a ``Process`` argument: under ``spawn``,
    ``Process.start()`` writes its arguments to the child synchronously,
    so a child that stalls or dies before reading them could block the
    supervisor before any deadline is armed.  ``fault`` is a
    bootstrap fault to inject before the payload is read.

    When the parent's tracer asked for worker capture (the ``trace``
    flag in the payload), the worker installs its own
    :class:`~repro.obs.Tracer` and, after every task, ships a drained
    span/metric payload back as an ``"obs"`` message on the same
    framed result pipe — the supervisor merges it into the parent
    trace with this process's real pid.  The worker's metrics registry
    is reset up front either way: a forked child inherits the parent's
    counts, which must not be shipped back and double-counted.
    """
    try:
        from ..core.replay import ReplayEngine
        from ..obs import Tracer, NullTracer, set_tracer, get_registry
        if fault is not None:
            from .faultinject import apply_worker_fault
            apply_worker_fault(fault)
        try:
            payload = task_conn.recv_bytes()
        except EOFError:
            return               # supervisor went away before bootstrap
        (flow, port_names, grouping, freq_hz, trace, gl_backend,
         correlation) = pickle.loads(payload)
        get_registry().reset()
        # The parent's correlation attrs (job id, run key) stamp this
        # worker's spans too, so one job's spans join across pids.
        tracer = (Tracer(correlation=correlation) if trace
                  else NullTracer())
        set_tracer(tracer)
        t_init = time.perf_counter()
        # Engine construction compiles-or-cache-loads the gate-level
        # evaluation kernel, so that cost lands inside this span.
        with tracer.span("worker.init", cat="worker"):
            engine = ReplayEngine.from_flow(
                flow, port_names=port_names, grouping=grouping,
                freq_hz=freq_hz, gl_backend=gl_backend)
        # One-time init is done: the supervisor re-arms the in-flight
        # task's deadline on receipt, so compile/load cost is excluded
        # from the batch's wall-clock budget.
        result_conn.send((None, "ready",
                          {"init_seconds": time.perf_counter() - t_init}))
    except BaseException as exc:
        result_conn.send((None, "init-error", f"{type(exc).__name__}: {exc}"))
        return

    def _flush_obs():
        if not tracer.enabled:
            return
        try:
            result_conn.send((None, "obs",
                              {"trace": tracer.drain(),
                               "metrics": get_registry().drain()}))
        except Exception:
            pass                 # observability must never kill a task

    _flush_obs()                 # ship worker.init before any task
    while True:
        try:
            task = task_conn.recv()
        except EOFError:
            return               # supervisor went away
        if task is None:
            return
        # A task is one lane-batch of snapshots.
        tidx, snaps, strict, fault = task
        try:
            if fault is not None:
                from .faultinject import apply_worker_fault
                apply_worker_fault(fault)
            with tracer.span("worker.task", cat="worker", task=tidx,
                             lanes=len(snaps)):
                results = engine.replay_batch(snaps, strict=strict)
            # Flush spans *before* the result: the pipe is FIFO, so by
            # the time the supervisor has parsed this task's result it
            # has necessarily merged this task's spans — the last
            # task's trace cannot be lost to supervisor teardown.
            _flush_obs()
            result_conn.send((tidx, "ok", results))
        except Exception as exc:
            _flush_obs()
            result_conn.send((tidx, "error", _shippable(exc)))


def _wait(readers, writers, timeout):
    """Block until a reader is readable, a writer writable, or
    ``timeout`` seconds pass (poll-based, like
    ``multiprocessing.connection.wait``: no fd-number limit)."""
    if not readers and not writers:
        time.sleep(timeout)
        return
    with _WaitSelector() as selector:
        for conn in readers:
            selector.register(conn, selectors.EVENT_READ)
        for conn in writers:
            selector.register(conn, selectors.EVENT_WRITE)
        selector.select(timeout)


class _Worker:
    """Parent-side handle: one process, one task in flight at a time.

    Each worker talks to the supervisor over a *private* pair of pipes
    rather than a shared ``multiprocessing.Queue``.  A shared queue
    funnels every worker's results through one cross-process write
    lock, taken by a background feeder thread — so a worker dying at
    the wrong instant (timeout kill, OOM kill, injected crash) while
    its feeder holds the lock leaves the semaphore acquired forever
    and silently starves every *other* worker's results, which the
    supervisor can only read as a cascade of spurious timeouts and
    serial fallbacks.  With one pipe per worker there is exactly one
    writer and one reader per direction: a dying worker can corrupt
    nothing but its own channel, which is discarded with it.

    The parent side never blocks (and spawns no threads, which keeps
    forked respawns safe): the engine payload and task writes are
    buffered and pumped from the supervisor loop, and result reads
    parse ``Connection``'s length-prefixed wire framing out of a byte
    buffer — a worker killed mid-message leaves a partial frame that
    is simply never completed, not a read the supervisor is stuck in.
    """

    def __init__(self, ctx, payload, fault=None):
        task_r, self._task_w = ctx.Pipe(duplex=False)
        self._res_r, res_w = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(target=_worker_main,
                                args=(task_r, res_w, fault),
                                daemon=True)
        self.proc.start()
        task_r.close()
        res_w.close()
        os.set_blocking(self._task_w.fileno(), False)
        os.set_blocking(self._res_r.fileno(), False)
        self._outbox = deque()     # framed task bytes awaiting write
        self._inbox = bytearray()  # raw result bytes awaiting framing
        self._send_bytes(payload)  # the bootstrap frame
        self.task = None           # task index in flight, or None
        self.deadline = None
        self.attempt = 0
        self.ready = False         # worker finished one-time engine init
        self.task_timeout = None   # plain timeout of the task in flight

    # ---- outgoing tasks (non-blocking, parent side) ----

    def _send(self, obj):
        self._send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def _send_bytes(self, data):
        self._outbox.append(memoryview(struct.pack("!i", len(data))))
        self._outbox.append(memoryview(data))
        self.pump()

    def pending_conn(self):
        """Task connection to select on for writability while buffered
        bytes wait, or None."""
        if self._outbox and not self._task_w.closed:
            return self._task_w
        return None

    def pump(self):
        """Flush buffered task bytes; never blocks the supervisor."""
        while self._outbox:
            buf = self._outbox[0]
            try:
                n = os.write(self._task_w.fileno(), buf)
            except BlockingIOError:
                return             # pipe full; retry next loop tick
            except OSError:
                # Reader end is gone: the worker died.  Drop the
                # backlog — crash detection reassigns its task.
                self._outbox.clear()
                return
            if n == len(buf):
                self._outbox.popleft()
            else:
                self._outbox[0] = buf[n:]

    def dispatch(self, tidx, snaps, strict, fault, timeout, attempt,
                 grace):
        self.task = tidx
        self.attempt = attempt
        self.task_timeout = timeout
        # A worker that has not reported ready yet is still paying its
        # one-time engine-init cost (kernel compile/load); extend the
        # deadline by the init grace so that cost is not charged to the
        # batch.  The deadline is re-armed to the plain timeout the
        # moment the ready message is drained.
        self.deadline = (time.monotonic() + timeout
                         + (0.0 if self.ready else grace))
        self._send((tidx, snaps, strict, fault))

    # ---- incoming results (non-blocking, parent side) ----

    def poll_conn(self):
        """Connection to select on, or None once closed."""
        return None if self._res_r.closed else self._res_r

    def drain(self):
        """Decode every complete result message currently available.

        Non-blocking: a partial frame — worker still writing, or
        worker killed mid-message — stays buffered, never waited on.
        Works on a dead worker too (the pipe outlives the process), so
        a worker that answered and then died is credited, not retried.
        """
        if self._res_r.closed:
            return []
        fd = self._res_r.fileno()
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                break
            except OSError:
                break
            if not chunk:          # EOF: writer end closed
                break
            self._inbox += chunk
        msgs = []
        while True:
            frame = self._next_frame()
            if frame is None:
                break
            msgs.append(pickle.loads(frame))
        return msgs

    def _next_frame(self):
        """Pop one ``Connection``-framed payload from the inbox."""
        buf = self._inbox
        if len(buf) < 4:
            return None
        size = int.from_bytes(buf[:4], "big", signed=True)
        start = 4
        if size == -1:             # Connection's >2 GiB long form
            if len(buf) < 12:
                return None
            size = int.from_bytes(buf[4:12], "big")
            start = 12
        if len(buf) < start + size:
            return None
        frame = bytes(buf[start:start + size])
        del buf[:start + size]
        return frame

    # ---- lifecycle ----

    def clear(self):
        self.task = None
        self.deadline = None

    def shutdown(self):
        """Polite stop for an idle, healthy worker."""
        try:
            self._send(None)
        except Exception:
            pass
        # keep pumping: the sentinel may sit behind an undelivered
        # engine payload
        deadline = time.monotonic() + 2.0
        while self.proc.is_alive() and time.monotonic() < deadline:
            self.pump()
            self.proc.join(timeout=_POLL_S)
        if self.proc.is_alive():
            self.kill()
        else:
            self._close_pipes()

    def kill(self):
        self.proc.terminate()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=2.0)
        self._close_pipes()

    def _close_pipes(self):
        for conn in (self._task_w, self._res_r):
            try:
                conn.close()
            except Exception:
                pass


def supervise(engine, snapshots, tasks, *, workers, report, strict,
              timeout, max_retries, fault_plan, cancel):
    """Replay ``tasks`` on ``workers`` supervised processes; yields
    ``(index, result)`` pairs in completion order.

    :meth:`repro.core.replay.ReplayEngine.replay_stream` is the one
    caller: it validates the arguments and plans ``tasks``, a list of
    lane-batches, each a list of positions in ``snapshots`` (see
    :func:`repro.core.replay.plan_replay_batches`).  Every worker
    rebuilds ``engine`` from its flow, ports, grouping, frequency and
    backend.  A batch is the unit of dispatch, deadline, retry and
    fallback; the per-snapshot ``timeout`` (``None``:
    :func:`default_replay_timeout`) scales with its size, and a worker
    still initializing gets :func:`default_init_grace` on top.

    ``cancel`` (a :class:`repro.parallel.CancelToken`) stops dispatch
    once set: results that already arrived are still yielded, in-flight
    batches are abandoned (counted in ``report.cancelled``) and the
    workers are shut down politely, so cancellation is no crash.

    ``fault_plan`` (a :class:`repro.robust.FaultPlan`) sabotages chosen
    dispatches for the fault-injection harness, matched on a batch's
    first snapshot.

    Raises :class:`ParallelReplayError` when the engine cannot be
    shipped to workers or a worker fails to initialize; the caller
    replays the remaining tasks in-process.
    """
    from ..obs import get_tracer, get_registry
    tracer = get_tracer()
    registry = get_registry()
    report.total_snapshots = sum(len(task) for task in tasks)
    report.workers = workers
    if not tasks:
        return
    # Worker-side capture costs pickling traffic per task; only ask
    # for it when the current tracer wants a distributed trace.
    trace_workers = tracer.enabled and tracer.distributed
    try:
        payload = pickle.dumps((engine.flow, engine._port_names,
                                engine.grouping, engine.freq_hz,
                                trace_workers, engine.gl_backend,
                                dict(tracer.correlation)),
                               protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ParallelReplayError(
            f"replay payload is not picklable: {exc}") from exc
    if timeout is None:
        timeout = default_replay_timeout(
            max(s.replay_length for s in snapshots))
    report.timeout_seconds = timeout
    init_grace = default_init_grace()

    from ..core.replay import ReplayError
    from ..scan.snapshot import SnapshotError

    n_tasks = len(tasks)

    ctx = _pick_context()

    def _spawn():
        fault = (fault_plan.pick_bootstrap()
                 if fault_plan is not None else None)
        return _Worker(ctx, payload, fault)

    pool = [_spawn() for _ in range(workers)]
    registry.counter("supervisor.spawns").inc(workers)

    def _respawn(reason):
        report.respawns += 1
        registry.counter("supervisor.respawns").inc()
        tracer.instant("supervisor.respawn", cat="supervisor",
                       reason=reason)
        return _spawn()

    completed = [False] * n_tasks
    attempts = [0] * n_tasks
    ready = deque(range(n_tasks))
    waiting = []                   # (eligible_monotonic_time, task index)
    done = 0
    events = deque()               # (index, result) awaiting yield
    fallback = None

    def _fallback_engine():
        # Workers that died max_retries + 1 times make the kernel the
        # suspect: the last resort runs on the interpreter, which is
        # bit-identical, and never on the parent's own C kernel.
        nonlocal fallback
        if fallback is None:
            fallback = engine
            if engine.backend_used != "interp":
                fallback = type(engine).from_flow(
                    engine.flow, port_names=engine._port_names,
                    grouping=engine.grouping, freq_hz=engine.freq_hz,
                    gl_backend="interp")
        return fallback

    def _complete(tidx, batch_results, serial=False):
        nonlocal done
        if completed[tidx]:
            return
        completed[tidx] = True
        done += 1
        for idx, result in zip(tasks[tidx], batch_results):
            if serial:
                report.completed_serial += 1
            else:
                report.completed_parallel += 1
            events.append((idx, result))

    def _batch_detail(tidx, detail):
        size = len(tasks[tidx])
        if size > 1:
            return f"{detail} (batch of {size} snapshots)"
        return detail

    def _retry_or_fallback(tidx, kind, detail):
        """Record the incident, then either reschedule or go serial.

        Incidents are attributed to the task's first snapshot."""
        if completed[tidx]:
            return
        first = tasks[tidx][0]
        attempts[tidx] += 1
        report.record(kind, first, snapshots[first].cycle, attempts[tidx],
                      _batch_detail(tidx, detail))
        if attempts[tidx] > max_retries:
            report.serial_fallbacks += 1
            report.record("serial-fallback", first, snapshots[first].cycle,
                          attempts[tidx],
                          _batch_detail(
                              tidx,
                              "retries exhausted; replaying in-process "
                              "on interp"))
            _complete(tidx,
                      _fallback_engine().replay_batch(
                          [snapshots[i] for i in tasks[tidx]],
                          strict=strict),
                      serial=True)
        else:
            report.retries += 1
            # Full jitter: draw the delay uniformly from [0, cap]
            # rather than sleeping exactly cap.  Deterministic delays
            # make simultaneously-killed workers respawn and
            # re-dispatch in lockstep — hitting whatever killed them
            # (memory spike, cache stampede) all at once again.
            cap = _BACKOFF_BASE_S * (2 ** (attempts[tidx] - 1))
            delay = _BACKOFF_RNG.uniform(0.0, cap)
            waiting.append((time.monotonic() + delay, tidx))

    cancelled = False
    try:
        while done < n_tasks:
            cancelled = cancel is not None and cancel.cancelled
            now = time.monotonic()
            if waiting:
                still = []
                for eligible, tidx in waiting:
                    if eligible <= now:
                        ready.append(tidx)
                    else:
                        still.append((eligible, tidx))
                waiting[:] = still

            for w in pool:
                w.pump()
                if (not cancelled and w.task is None and ready
                        and w.proc.is_alive()):
                    tidx = ready.popleft()
                    indices = tasks[tidx]
                    fault = (fault_plan.pick(indices[0],
                                             snapshots[indices[0]])
                             if fault_plan is not None else None)
                    # Deadline scales with the batch's snapshot count.
                    w.dispatch(tidx, [snapshots[i] for i in indices],
                               strict, fault, timeout * len(indices),
                               attempts[tidx] + 1, init_grace)

            # Sleep until some worker has bytes for us or can take
            # more of its buffered payload (or the poll tick elapses),
            # then drain every complete message from every worker —
            # dead ones included — before health checks, so a worker
            # that answered and then died is credited, not retried.  A
            # cancelled stream skips the sleep: one final non-blocking
            # drain credits whatever already arrived, then the loop
            # exits.
            if not cancelled:
                live = [w for w in pool if w.proc.is_alive()]
                _wait([c for c in (w.poll_conn() for w in live)
                       if c is not None],
                      [c for c in (w.pending_conn() for w in live)
                       if c is not None], _POLL_S)
            for w in pool:
                for msg in w.drain():
                    tidx, status, body = msg
                    if status == "obs":
                        # Worker span/metric shipment: merge into the
                        # parent trace with the worker's own pid/tid.
                        tracer.ingest(body.get("trace"))
                        registry.merge(body.get("metrics"),
                                       source=f"worker-pid-"
                                              f"{w.proc.pid}")
                        continue
                    if status == "ready":
                        # One-time engine init done: re-arm the
                        # in-flight task's deadline to the plain task
                        # timeout, excluding the compile/load cost.
                        w.ready = True
                        if w.task is not None and w.task_timeout:
                            w.deadline = (time.monotonic()
                                          + w.task_timeout)
                        continue
                    if status == "init-error":
                        raise ParallelReplayError(
                            f"replay worker failed to initialize: {body}")
                    if w.task == tidx:
                        w.clear()
                    if completed[tidx]:
                        continue
                    if status == "ok":
                        _complete(tidx, body)
                    else:
                        if isinstance(body, (ReplayError, SnapshotError)):
                            # Verification failure: deterministic, and
                            # the whole point — detection, not a fault
                            # to heal.
                            raise body
                        report.worker_errors += 1
                        _retry_or_fallback(
                            tidx, "worker-error",
                            f"{type(body).__name__}: {body}")
            while events:
                yield events.popleft()

            if cancelled:
                abandoned = sum(len(tasks[t]) for t in range(n_tasks)
                                if not completed[t])
                if abandoned:
                    report.cancelled = abandoned
                    registry.counter("supervisor.cancelled").inc(abandoned)
                    tracer.instant(
                        "supervisor.cancelled", cat="supervisor",
                        snapshots=abandoned,
                        reason=str(getattr(cancel, "reason", None) or ""))
                break

            now = time.monotonic()
            for i, w in enumerate(pool):
                if w.task is None:
                    if not w.proc.is_alive() and (ready or waiting):
                        # Idle corpse with work outstanding: replace it.
                        w._close_pipes()
                        pool[i] = _respawn("idle-corpse")
                    continue
                tidx = w.task
                if not w.proc.is_alive():
                    report.crashes += 1
                    exitcode = w.proc.exitcode
                    when = "mid-replay" if w.ready else "before ready"
                    w.clear()
                    w._close_pipes()
                    pool[i] = _respawn("worker-crash")
                    _retry_or_fallback(
                        tidx, "worker-crash",
                        f"worker died {when} (exitcode {exitcode})")
                elif now > w.deadline:
                    report.timeouts += 1
                    w.clear()
                    w.kill()
                    pool[i] = _respawn("timeout")
                    _retry_or_fallback(
                        tidx, "timeout",
                        f"no result within {timeout * len(tasks[tidx]):.1f}s;"
                        f" worker killed")
            while events:
                yield events.popleft()
    finally:
        for w in pool:
            if w.proc.is_alive() and (w.task is None or cancelled):
                # Idle workers — and busy ones whose batch was merely
                # abandoned by a cancel — get the polite sentinel and a
                # join grace; only unresponsive ones are killed.
                w.shutdown()
            else:
                w.kill()
