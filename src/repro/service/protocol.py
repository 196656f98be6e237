"""Wire protocol and job specification for the Strober job service.

The daemon speaks line-delimited JSON over a stream socket (Unix or
TCP): each request is one JSON object on one line, each response is one
JSON object on one line.  Responses always carry ``"ok"``; failures
carry a *typed* error envelope::

    {"ok": false, "error": {"type": "queue-full", "message": "..."}}

Error types are a closed vocabulary (:data:`ERROR_TYPES`) so clients
and the chaos campaign can assert on failure *class*, not on message
prose — "every job either completes bit-identically or fails with a
typed error" is only checkable if the types are enumerable.

:class:`JobSpec` is the validated form of a submitted job.  Validation
happens at admission (a malformed spec is rejected before it can
occupy a queue slot), and the canonical :meth:`JobSpec.as_dict` form is
what the service journals — so a resumed daemon re-validates through
the same code path that admitted the job in the first place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

# -- typed error vocabulary --------------------------------------------------

ERR_INVALID_REQUEST = "invalid-request"   # malformed JSON / bad spec
ERR_QUEUE_FULL = "queue-full"             # admission control rejection
ERR_DRAINING = "draining"                 # daemon no longer accepting
ERR_UNKNOWN_JOB = "unknown-job"           # job id not known to this daemon
ERR_DEADLINE = "deadline-exceeded"        # per-job wall-clock deadline hit
ERR_CANCELLED = "cancelled"               # cancelled before it ran
ERR_REPLAY_MISMATCH = "replay-mismatch"   # strict replay caught divergence
ERR_SNAPSHOT = "snapshot-integrity"       # sealed snapshot failed checksum
ERR_WORKLOAD = "workload-failed"          # workload exited non-zero
ERR_INTERNAL = "internal"                 # retries exhausted / unexpected

ERROR_TYPES = frozenset({
    ERR_INVALID_REQUEST, ERR_QUEUE_FULL, ERR_DRAINING, ERR_UNKNOWN_JOB,
    ERR_DEADLINE, ERR_CANCELLED, ERR_REPLAY_MISMATCH, ERR_SNAPSHOT,
    ERR_WORKLOAD, ERR_INTERNAL,
})


class ServiceError(Exception):
    """A typed service failure.

    ``retryable`` marks faults worth another attempt (worker crashes,
    transient infrastructure errors); determinism failures (replay
    mismatch, snapshot corruption, workload exit) and policy failures
    (deadline, cancellation) are terminal — retrying a deterministic
    failure just burns the queue.
    """

    def __init__(self, err_type, message, retryable=False):
        assert err_type in ERROR_TYPES, err_type
        super().__init__(message)
        self.type = err_type
        self.message = message
        self.retryable = retryable

    def as_dict(self):
        return {"type": self.type, "message": self.message}


# v2 added the adaptive-sampling knobs (target_rel_error, min_sample,
# max_sample).  A v1 spec is a valid v2 spec (the knobs default off),
# so old clients keep working; a spec claiming a version newer than
# this is rejected at admission.
SPEC_VERSION = 2

_FAULT_KINDS = ("kill", "stall", "error", "bootstrap-death")
_FAULT_KEYS = frozenset({"kind", "index", "times", "seconds",
                         "exit_code"})


@dataclass
class JobSpec:
    """One validated Strober job: design + workload + sampling params.

    ``gl_backend`` is a *request*; the backend that actually runs is
    decided per attempt by the daemon's circuit breaker (see
    :mod:`repro.service.breaker`) and reported in the job status.
    ``faults`` is the chaos-campaign hook: a list of fault dicts
    (``kind``/``index``/``times``/``seconds``/``exit_code``) compiled
    into a :class:`repro.robust.FaultPlan` and consumed across the
    job's attempts, modelling transient faults that do not recur.
    """

    design: str
    workload: str
    sample_size: int = 4
    replay_length: int = 32
    max_cycles: int = 2_000_000
    seed: int = 0
    confidence: float = 0.99
    strict_replay: bool = True
    workers: int = 1
    batch_lanes: int = None       # None = 64, run_strober's default
    gl_backend: str = None
    workload_kwargs: dict = field(default_factory=dict)
    deadline_s: float = None      # per-job wall clock; None = no deadline
    retries: int = None           # None = daemon default
    faults: list = field(default_factory=list)
    # Adaptive sampling (spec v2): stop replaying once the eq.-7
    # interval's relative error reaches the target; None = fixed-sample
    target_rel_error: float = None
    min_sample: int = None
    max_sample: int = None

    @classmethod
    def from_dict(cls, obj):
        """Validate a raw dict into a spec, or raise a typed error."""
        if not isinstance(obj, dict):
            raise ServiceError(ERR_INVALID_REQUEST,
                               f"job spec must be an object, "
                               f"got {type(obj).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known - {"v"})
        if unknown:
            raise ServiceError(
                ERR_INVALID_REQUEST,
                f"unknown job spec field(s): {', '.join(unknown)}")
        if obj.get("v", SPEC_VERSION) > SPEC_VERSION:
            raise ServiceError(
                ERR_INVALID_REQUEST,
                f"job spec version {obj['v']} is newer than this "
                f"daemon understands (v{SPEC_VERSION})")

        def need(name, types, pred=None, what=""):
            value = obj.get(name)
            default = cls.__dataclass_fields__[name].default
            if value is None:
                return None
            if isinstance(value, bool) and bool not in types:
                value = None     # bools are ints; reject explicitly
            if not isinstance(value, types) or (pred and not pred(value)):
                raise ServiceError(
                    ERR_INVALID_REQUEST,
                    f"job spec field {name!r} must be {what}")
            return value

        design = need("design", (str,), what="a design name")
        workload = need("workload", (str,), what="a workload name")
        if not design or not workload:
            raise ServiceError(ERR_INVALID_REQUEST,
                               "job spec needs 'design' and 'workload'")
        from ..core.configs import CONFIGS
        from ..isa.programs import ALL_PROGRAMS
        if design not in CONFIGS:
            raise ServiceError(
                ERR_INVALID_REQUEST,
                f"unknown design {design!r} "
                f"(choose from {', '.join(sorted(CONFIGS))})")
        if workload not in ALL_PROGRAMS:
            raise ServiceError(
                ERR_INVALID_REQUEST,
                f"unknown workload {workload!r} "
                f"(choose from {', '.join(sorted(ALL_PROGRAMS))})")

        spec = cls(design=design, workload=workload)
        for name, pred, what in (
                ("sample_size", lambda v: v >= 1, "a positive int"),
                ("replay_length", lambda v: v >= 1, "a positive int"),
                ("max_cycles", lambda v: v >= 1, "a positive int"),
                ("seed", lambda v: v >= 0, "a non-negative int"),
                ("workers", lambda v: 1 <= v <= 64, "an int in 1..64"),
                ("batch_lanes", lambda v: 1 <= v <= 64,
                 "an int in 1..64"),
                ("retries", lambda v: 0 <= v <= 10, "an int in 0..10"),
                ("min_sample", lambda v: v >= 2, "an int >= 2"),
                ("max_sample", lambda v: v >= 2, "an int >= 2")):
            value = need(name, (int,), pred, what)
            if value is not None:
                setattr(spec, name, value)
        for name, pred, what in (
                ("confidence", lambda v: 0.0 < v < 1.0,
                 "a float in (0, 1)"),
                ("deadline_s", lambda v: v > 0.0, "a positive number"),
                ("target_rel_error", lambda v: 0.0 < v < 1.0,
                 "a float in (0, 1)")):
            value = need(name, (int, float), pred, what)
            if value is not None:
                setattr(spec, name, float(value))
        value = need("strict_replay", (bool,), what="a bool")
        if value is not None:
            spec.strict_replay = value
        backend = need("gl_backend", (str,), what="a backend name")
        if backend is not None:
            from ..gatelevel.glcodegen import BACKENDS
            if backend not in BACKENDS:
                raise ServiceError(
                    ERR_INVALID_REQUEST,
                    f"unknown gl_backend {backend!r} "
                    f"(choose from {', '.join(BACKENDS)})")
            spec.gl_backend = backend
        kwargs = need("workload_kwargs", (dict,), what="an object")
        if kwargs is not None:
            spec.workload_kwargs = dict(kwargs)
        faults = need("faults", (list,), what="a list of fault objects")
        if faults:
            spec.faults = [_validate_fault(f) for f in faults]
        return spec

    def as_dict(self):
        """Canonical JSON-able form (what the service journals)."""
        return {
            "v": SPEC_VERSION,
            "design": self.design, "workload": self.workload,
            "sample_size": self.sample_size,
            "replay_length": self.replay_length,
            "max_cycles": self.max_cycles, "seed": self.seed,
            "confidence": self.confidence,
            "strict_replay": self.strict_replay,
            "workers": self.workers, "batch_lanes": self.batch_lanes,
            "gl_backend": self.gl_backend,
            "workload_kwargs": dict(self.workload_kwargs),
            "deadline_s": self.deadline_s, "retries": self.retries,
            "faults": [dict(f) for f in self.faults],
            "target_rel_error": self.target_rel_error,
            "min_sample": self.min_sample,
            "max_sample": self.max_sample,
        }

    def run_kwargs(self):
        """Keyword arguments for ``run_strober`` (backend excluded —
        the circuit breaker decides it per attempt)."""
        return {
            "sample_size": self.sample_size,
            "replay_length": self.replay_length,
            "max_cycles": self.max_cycles,
            "seed": self.seed,
            "confidence": self.confidence,
            "strict_replay": self.strict_replay,
            "workers": self.workers,
            "batch_lanes": self.batch_lanes,
            "workload_kwargs": dict(self.workload_kwargs) or None,
            "target_rel_error": self.target_rel_error,
            "min_sample": self.min_sample,
            "max_sample": self.max_sample,
        }

    def fault_plan(self):
        """Compile ``faults`` into a FaultPlan (None when there are
        none).  Called once per *job* — the plan's budget is shared
        across attempts, so a sabotaged dispatch retries clean."""
        if not self.faults:
            return None
        from ..robust.faultinject import FaultPlan, FaultSpec
        return FaultPlan([FaultSpec(**f) for f in self.faults])


def _validate_fault(obj):
    if not isinstance(obj, dict):
        raise ServiceError(ERR_INVALID_REQUEST,
                           "each fault must be an object")
    unknown = sorted(set(obj) - _FAULT_KEYS)
    if unknown:
        raise ServiceError(ERR_INVALID_REQUEST,
                           f"unknown fault field(s): {', '.join(unknown)}")
    if obj.get("kind") not in _FAULT_KINDS:
        raise ServiceError(
            ERR_INVALID_REQUEST,
            f"fault kind must be one of {', '.join(_FAULT_KINDS)}")
    return dict(obj)


# -- line framing ------------------------------------------------------------

MAX_LINE_BYTES = 1 << 20   # a request larger than 1 MiB is not a request


def encode_line(obj):
    """One JSON object as one newline-terminated UTF-8 line."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True)
            + "\n").encode()


def decode_line(line):
    """Parse one request line into a dict, or raise a typed error."""
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(ERR_INVALID_REQUEST, "request line too long")
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError(ERR_INVALID_REQUEST,
                           f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ServiceError(ERR_INVALID_REQUEST,
                           "request must be a JSON object")
    return obj


def ok_response(**extra):
    out = {"ok": True}
    out.update(extra)
    return out


def error_response(err):
    """The wire form of a :class:`ServiceError` (or a type/message
    pair)."""
    if isinstance(err, ServiceError):
        return {"ok": False, "error": err.as_dict()}
    err_type, message = err
    assert err_type in ERROR_TYPES, err_type
    return {"ok": False, "error": {"type": err_type, "message": message}}
