"""Per-design backend circuit breakers for the job service.

The gate-level replay backends are bit-identical by construction
(``interp`` / ``c``), which makes backend choice a pure
reliability/performance trade — exactly the shape a circuit breaker
wants.  When workers running a design under one backend keep crashing,
the breaker demotes that design one rung down the ladder::

    c  ->  interp

and every later attempt for the same design is capped at the demoted
rung for the daemon's lifetime.  Demoting *from* ``c`` additionally
quarantines the cached C kernel (the host-wide ``glso`` shared
object): a poisoned or ABI-drifted ``.so`` that segfaults every worker
that loads it must be pulled out of circulation, not reloaded by the
next attempt — and the quarantined file is kept
(``<cache>/quarantine/``) for post-mortem inspection rather than
deleted with the evidence.  The next ``c``
request, for any design, rebuilds it.

``interp`` is the floor: it is pure Python over the levelized netlist,
shares no generated artifact, and is the backend the supervisor's
in-process serial fallback already trusts.  A breaker never demotes
below it; repeated crashes *on* interp are genuine worker faults and
stay the supervisor's problem (retry, respawn, serial fallback).
"""

from __future__ import annotations

import threading
import time

# Most-aggressive first; index = rung, higher rung = more conservative.
LADDER = ("c", "interp")

DEFAULT_THRESHOLD = 2       # crashes on one rung before demotion


def _rung(backend):
    """Ladder position of a backend request; ``auto`` and None count
    as the most aggressive rung (they resolve to the best available)."""
    if backend in (None, "auto"):
        return 0
    return LADDER.index(backend)


class BackendBreaker:
    """Crash accounting and demotion state for one design."""

    def __init__(self, design, threshold=DEFAULT_THRESHOLD):
        self.design = design
        self.threshold = max(1, int(threshold))
        self.failures = [0] * len(LADDER)   # per-rung crash counts
        self.floor = 0                      # minimum rung allowed
        self.demotions = []                 # event dicts, oldest first

    def effective(self, requested):
        """The backend an attempt may actually use.

        The request is capped at the current floor; an ``auto``/None
        request passes through untouched while the floor is 0 so the
        backend resolver still picks the best available.
        """
        if self.floor == 0:
            return requested
        return LADDER[max(_rung(requested), self.floor)]

    def record_failure(self, backend, count=1, reason="worker-crash"):
        """Charge ``count`` crashes to the rung that was running.

        Returns the demotion event dict when this tips the rung over
        its threshold, else None.  The rung's count resets on demotion
        so the next rung down needs fresh evidence of its own.
        """
        rung = max(_rung(backend), self.floor)
        self.failures[rung] += count
        if rung >= len(LADDER) - 1:       # interp: nowhere to go
            return None
        if self.failures[rung] < self.threshold:
            return None
        self.failures[rung] = 0
        self.floor = rung + 1
        event = {
            "design": self.design, "kind": "demotion",
            "from": LADDER[rung], "to": LADDER[self.floor],
            "reason": reason, "failures": count, "at": time.time(),
        }
        self.demotions.append(event)
        return event

    def as_dict(self):
        return {
            "design": self.design,
            "floor": LADDER[self.floor] if self.floor else None,
            "threshold": self.threshold,
            "failures": {LADDER[i]: n
                         for i, n in enumerate(self.failures) if n},
            "demotions": list(self.demotions),
        }


class BreakerBoard:
    """All designs' breakers, created on first touch, thread-safe."""

    def __init__(self, threshold=DEFAULT_THRESHOLD):
        self.threshold = threshold
        self._lock = threading.Lock()
        self._breakers = {}

    def _get(self, design):
        with self._lock:
            breaker = self._breakers.get(design)
            if breaker is None:
                breaker = self._breakers[design] = BackendBreaker(
                    design, threshold=self.threshold)
            return breaker

    def effective(self, design, requested):
        with self._lock:
            breaker = self._breakers.get(design)
        if breaker is None:
            return requested
        return breaker.effective(requested)

    def record_failure(self, design, backend, count=1,
                       reason="worker-crash"):
        return self._get(design).record_failure(backend, count=count,
                                                reason=reason)

    def snapshot(self):
        with self._lock:
            return {design: b.as_dict()
                    for design, b in self._breakers.items()}


def compiled_kernel_key(design):
    """Artifact-cache key of the C replay kernel (glso) ``design``'s
    workers load — the one host-wide key every design shares."""
    from ..gatelevel.glcodegen import kernel_cache_key
    return kernel_cache_key()


def quarantine_compiled_kernel(design):
    """Move the cached glso entry ``design``'s workers load to the
    cache's quarantine directory; returns the quarantined path, or None
    when there was nothing to quarantine (or no compiler to derive the
    key with — quarantine is best-effort, demotion already protects
    the jobs)."""
    from ..parallel.cache import get_cache
    try:
        key = compiled_kernel_key(design)
    except Exception:
        return None
    return get_cache().quarantine("glso", key)
