"""Shared pieces of multi-process snapshot replay.

The paper notes snapshot replays are embarrassingly parallel (each
replay is independent, Section IV-C); here that buys crash isolation,
not speed.  ``ReplayEngine.replay_stream(workers=N)`` is the only way
into the worker pool, the *supervised* pool of
:mod:`repro.robust.supervisor` (:func:`~repro.robust.supervisor.supervise`):
each worker rebuilds the replay engine once from the pickled
:class:`AsicFlow` payload, and a supervisor imposes per-batch
deadlines, respawns crashed workers, retries with exponential backoff,
and replays a batch in-process on the interpreter when its retries are
exhausted.  This module holds what the pool and its callers share: the
payload error, the cancel token, and the start-method choice.
"""

from __future__ import annotations

import multiprocessing
import os
import threading


class ParallelReplayError(Exception):
    """The replay payload cannot be shipped to worker processes."""


class CancelToken:
    """Cooperative cancellation signal for a streaming replay.

    The adaptive sampling controller sets the token once its target
    confidence interval is met; the supervisor checks it between
    dispatches and stops handing out new batches.  In-flight batches
    are *abandoned*, not interrupted: their workers finish (or are
    politely shut down at teardown) without the pool being killed, so
    a cancelled stream still ends with a healthy, reusable report.

    Thread-safe: built on :class:`threading.Event` so the consumer
    thread can cancel while the scheduler is blocked in a poll.
    """

    __slots__ = ("_event", "reason")

    def __init__(self):
        self._event = threading.Event()
        self.reason = None

    def cancel(self, reason=None):
        """Request cancellation (idempotent; first reason wins)."""
        if reason is not None and self.reason is None:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self):
        return self._event.is_set()

    def __bool__(self):
        return self.cancelled


_ENV_START_METHOD = "REPRO_START_METHOD"


def _pick_context():
    """Resolve the multiprocessing start method for replay workers.

    ``$REPRO_START_METHOD`` wins when set; otherwise the default prefers
    ``fork`` (cheap: workers inherit the parent's loaded modules and
    compiled evaluators) — but only while the parent process is
    single-threaded.  Forking a threaded parent can deadlock the child
    on locks held by threads that do not exist after the fork, so
    threaded parents fall back to ``spawn``.
    """
    start_method = os.environ.get(_ENV_START_METHOD) or None
    methods = multiprocessing.get_all_start_methods()
    if start_method is None:
        if "fork" in methods and threading.active_count() == 1:
            start_method = "fork"
        else:
            start_method = "spawn"
    if start_method not in methods:
        raise ValueError(
            f"unsupported multiprocessing start method {start_method!r} "
            f"(check ${_ENV_START_METHOD}); available: {', '.join(methods)}")
    from ..obs import get_tracer
    get_tracer().instant("pool.start_method", cat="pool",
                         method=start_method,
                         threads=threading.active_count())
    return multiprocessing.get_context(start_method)

