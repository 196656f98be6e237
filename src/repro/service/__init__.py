"""Strober-as-a-service: a resilient job daemon over ``run_strober``.

The paper's methodology makes each energy evaluation cheap enough to
run constantly; this package gives a machine a standing front door for
that — one supervised asyncio daemon that accepts Strober jobs (design,
workload, sampling parameters) over a line-delimited JSON socket API
and runs them through the exact same flow the library API exposes, so
a number produced by the service is bit-identical to one produced by
calling :func:`repro.core.flow.run_strober` yourself.

Layers (each its own module):

* :mod:`~repro.service.protocol` — the wire format, validated
  :class:`JobSpec`, and the closed typed-error vocabulary.
* :mod:`~repro.service.daemon` — admission control, per-job deadlines
  and full-jitter retries, graceful drain, ``/status``.
* :mod:`~repro.service.breaker` — per-design backend circuit breakers
  (the ``c -> interp`` demotion ladder) with C-kernel quarantine.
* :mod:`~repro.service.state` — the crash-safe jobs journal (same
  CRC-framed record format as the run journal) and resume loader.
* :mod:`~repro.service.client` / :mod:`~repro.service.harness` — the
  blocking client and the in-process test harness.

``python -m repro.service --state-dir DIR`` starts a daemon.
"""

from .protocol import (
    JobSpec, ServiceError, SPEC_VERSION, ERROR_TYPES,
    ERR_INVALID_REQUEST, ERR_QUEUE_FULL, ERR_DRAINING, ERR_UNKNOWN_JOB,
    ERR_DEADLINE, ERR_CANCELLED, ERR_REPLAY_MISMATCH, ERR_SNAPSHOT,
    ERR_WORKLOAD, ERR_INTERNAL,
)
from .breaker import (
    LADDER, BackendBreaker, BreakerBoard, compiled_kernel_key,
    quarantine_compiled_kernel,
)
from .state import (
    ServiceJournal, ServiceState, load_service_state, result_digest,
)
from .daemon import ServiceConfig, StroberService
from .client import ServiceClient
from .harness import ServiceHarness

__all__ = [
    "JobSpec", "ServiceError", "SPEC_VERSION", "ERROR_TYPES",
    "ERR_INVALID_REQUEST", "ERR_QUEUE_FULL", "ERR_DRAINING",
    "ERR_UNKNOWN_JOB", "ERR_DEADLINE", "ERR_CANCELLED",
    "ERR_REPLAY_MISMATCH", "ERR_SNAPSHOT", "ERR_WORKLOAD",
    "ERR_INTERNAL",
    "LADDER", "BackendBreaker", "BreakerBoard", "compiled_kernel_key",
    "quarantine_compiled_kernel",
    "ServiceJournal", "ServiceState", "load_service_state",
    "result_digest",
    "ServiceConfig", "StroberService", "ServiceClient",
    "ServiceHarness",
]
