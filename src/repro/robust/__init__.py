"""Robustness layer for the replay pipeline.

Strober's accuracy claim rests on every sampled snapshot replaying to
completion with outputs verified against the captured I/O trace
(Section III-B).  The parallel replay pool and the on-disk artifact
cache introduce failure classes the serial in-process path never had —
hung or crashed workers, truncated cache entries, corrupted snapshot
state — and this package makes them either *detected* or *recovered*:

* :mod:`repro.robust.supervisor` — the supervised worker pool behind
  ``ReplayEngine.replay_stream(workers=N)``: per-snapshot timeouts,
  crash detection, retry with exponential backoff, and graceful
  degradation to in-process replay on the interpreter; every recovery
  action lands in a structured :class:`ReplayHealthReport`
  (``engine.last_health``).
* :mod:`repro.robust.journal` — an append-only, checksummed, fsync'd
  run journal that lets an interrupted ``run_strober`` resume from the
  last good record instead of restarting the FAME simulation and all
  replays.
* :mod:`repro.robust.faultinject` — deliberate fault injection
  (snapshot bit-flips, cache/journal corruption, worker kills and
  stalls) that turns the detect-or-recover guarantees into executable
  tests.
"""

from .supervisor import (
    ReplayHealthReport, ReplayIncident, default_replay_timeout,
    default_init_grace,
)
from .journal import (
    RunJournal, JournalError, read_journal,
    TYPE_META, TYPE_SNAPSHOT, TYPE_SIM, TYPE_RESULT, TYPE_CONTROL,
    TYPE_JOB, TYPE_JOB_UPDATE,
)
from .faultinject import (
    FaultSpec, FaultPlan, flip_snapshot_bit, corrupt_file,
    corrupt_cache_entry, corrupt_journal_tail, run_campaign,
    poison_cache_entry, enospc_cache_writes, run_service_campaign,
)

__all__ = [
    "ReplayHealthReport", "ReplayIncident",
    "default_replay_timeout", "default_init_grace",
    "RunJournal", "JournalError", "read_journal",
    "TYPE_META", "TYPE_SNAPSHOT", "TYPE_SIM", "TYPE_RESULT",
    "TYPE_CONTROL", "TYPE_JOB", "TYPE_JOB_UPDATE",
    "FaultSpec", "FaultPlan", "flip_snapshot_bit", "corrupt_file",
    "corrupt_cache_entry", "corrupt_journal_tail", "run_campaign",
    "poison_cache_entry", "enospc_cache_writes", "run_service_campaign",
]
