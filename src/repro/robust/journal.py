"""Crash-safe run journal: append-only, checksummed, resumable.

``run_strober(..., journal=path)`` appends every durable unit of
progress — the run's identity, each captured snapshot, the FAME
simulation outcome, and each completed replay result — as a framed
record::

    <4s magic "RPJ1"> <u8 type> <u32 payload_len> <u32 crc32(payload)>
    <payload: pickle>

Each ``append`` (or ``append_many`` batch) is flushed and ``fsync``'d
before returning, so after a crash the journal contains every record
that was reported complete plus at most one torn tail.  A fresh run
writes META, its snapshots and SIM as one batch: resume ignores them
unless SIM landed, so one fsync for all of them loses nothing.
:func:`read_journal` verifies the frame and CRC
of every record; a truncated or corrupted *tail* is dropped (and
physically truncated off the file) with a warning rather than a crash —
exactly the recovery an interrupted writer needs.

Resume contract (:func:`load_resume`): a journal whose META record
matches the requested run's parameters (ignoring the advisory
provenance keys in ``_ADVISORY_META_KEYS``, which record *how* a run
executed — e.g. the bit-identical gate-level backend — rather than
what it computed), and whose SIM record landed, lets ``run_strober``
skip the FAME simulation entirely and replay only the snapshots
without a RESULT record.  Snapshots are stored sealed
(integrity-checksummed, see :meth:`ReplayableSnapshot.seal`), so a
journal damaged *in the middle* — past what tail-truncation heals — is
still detected at replay time instead of quietly shifting the energy
estimate.
"""

from __future__ import annotations

import os
import pickle
import struct
import warnings
import zlib
from dataclasses import dataclass, field

MAGIC = b"RPJ1"
_HEADER = struct.Struct("<4sBII")

TYPE_META = 1        # dict of run-identity parameters
TYPE_SNAPSHOT = 2    # {"index": int, "snapshot": ReplayableSnapshot}
TYPE_SIM = 3         # FAME outcome: cycles, instret, exit_code, counters
TYPE_RESULT = 4      # {"index": int, "result": ReplayResult}
TYPE_CONTROL = 5     # {"controller": sampling summary dict} — written
                     # once per *adaptive* run completion (stop reason,
                     # sample size, final rel error); fixed-sample runs
                     # write none, keeping their byte stream identical
                     # to pre-adaptive journals.  Readers from before
                     # this type existed skip it (foreign-record rule).

# Service-level job records (repro.service): the job daemon journals
# its queue in the same CRC-framed format, in a separate file.  Record
# payloads carry their own ``"v"`` schema version, and every reader —
# the run-journal resume below included — must *skip* record types it
# does not know rather than fail: a journal written by a newer daemon
# has to stay resumable by an older one (forward compatibility).
TYPE_JOB = 16         # {"v": 1, "id": str, "spec": dict} — job accepted
TYPE_JOB_UPDATE = 17  # {"v": 1, "id": str, "state": str, ...} — terminal


class JournalError(Exception):
    pass


class RunJournal:
    """Append-only record log; one fsync per append call."""

    def __init__(self, path):
        self.path = path
        self._f = None

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc):
        self.close()

    def open(self):
        if self._f is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._f = open(self.path, "ab")
        return self

    def close(self):
        if self._f is not None:
            self._f.close()
            self._f = None

    def append(self, rtype, obj):
        """Durably append one record (flush + fsync before returning)."""
        self.append_many([(rtype, obj)])

    def append_many(self, records):
        """Durably append ``(rtype, obj)`` records: write them all, then
        one flush + fsync.  After a crash before the fsync,
        :func:`read_journal` keeps the records before the first damaged
        one, whatever order the OS wrote the pages back in."""
        if self._f is None:
            self.open()
        from ..obs import get_registry
        registry = get_registry()
        for rtype, obj in records:
            try:
                payload = pickle.dumps(obj,
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise JournalError(
                    f"journal record of type {rtype} is not picklable: "
                    f"{exc}") from exc
            registry.counter("journal.records").inc()
            registry.counter("journal.bytes").inc(
                _HEADER.size + len(payload))
            self._f.write(_HEADER.pack(MAGIC, rtype, len(payload),
                                       zlib.crc32(payload)))
            self._f.write(payload)
        self._f.flush()
        os.fsync(self._f.fileno())

    def reset(self):
        """Truncate to empty — the start of a fresh (non-resumed) run."""
        self.close()
        with open(self.path, "wb") as f:
            f.flush()
            os.fsync(f.fileno())
        self.open()


def read_journal(path, repair=True):
    """Return ``[(rtype, obj), ...]`` for every intact record.

    A torn or corrupted tail (short header, bad magic, CRC mismatch,
    undecodable payload) ends the scan with a warning; with
    ``repair=True`` the damage is also truncated off the file so the
    journal is immediately appendable again.
    """
    with open(path, "rb") as f:
        data = f.read()
    records = []
    offset = 0
    good = 0
    damage = None
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            damage = "torn record header"
            break
        magic, rtype, length, crc = _HEADER.unpack_from(data, offset)
        if magic != MAGIC:
            damage = f"bad record magic at offset {offset}"
            break
        payload = data[offset + _HEADER.size:offset + _HEADER.size + length]
        if len(payload) < length:
            damage = "torn record payload"
            break
        if zlib.crc32(payload) != crc:
            damage = f"record checksum mismatch at offset {offset}"
            break
        try:
            obj = pickle.loads(payload)
        except Exception as exc:
            damage = f"undecodable record at offset {offset}: {exc}"
            break
        offset += _HEADER.size + length
        good = offset
        records.append((rtype, obj))
    if damage is not None:
        dropped = len(data) - good
        warnings.warn(
            f"run journal {path}: {damage}; dropping {dropped} trailing "
            f"byte(s), keeping {len(records)} good record(s)",
            RuntimeWarning, stacklevel=2)
        if repair:
            os.truncate(path, good)
    return records


@dataclass
class ResumeState:
    """Everything a matching journal lets ``run_strober`` skip."""

    meta: dict
    sim: dict
    snapshots: list
    results: dict = field(default_factory=dict)   # index -> ReplayResult
    # Sampling-controller records, in journal order: one summary dict
    # per completed adaptive pass over this journal (empty for fixed
    # runs and journals written before TYPE_CONTROL existed).
    controls: list = field(default_factory=list)


class _MemoryShim:
    def __init__(self, counters):
        self.counters = counters


class JournaledWorkloadResult:
    """``WorkloadResult`` stand-in reconstructed from a run journal."""

    resumed = True

    def __init__(self, sim, snapshots):
        self.cycles = sim["cycles"]
        self.instret = sim["instret"]
        self.exit_code = sim["exit_code"]
        self.snapshots = snapshots
        self.memory = _MemoryShim(sim["dram_counters"])

    @property
    def passed(self):
        return self.exit_code == 0

    @property
    def cpi(self):
        return (self.cycles / self.instret if self.instret
                else float("inf"))


def load_resume(path, expected_meta):
    """Parse ``path`` into a :class:`ResumeState`, or None to start fresh.

    None (with a warning where the journal held *something*) means: no
    journal, an empty journal, a journal for a different run, or a
    journal interrupted before the FAME simulation finished — all cases
    where the only correct move is to rerun from the top.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return None
    from ..obs import get_tracer
    with get_tracer().span("journal.resume", cat="journal", path=path):
        return _load_resume(path, expected_meta)


# Run-key entries that are provenance, not identity: they describe how
# a run was executed, not what it computed, so resume comparison strips
# them from both sides.  The replay lane count and the gate-level
# evaluation backend are advisory because every setting is
# bit-identical by construction: a journal written under one resumes
# under another (and journals from before a key existed resume under
# any).  ``gl_overlap`` is a retired knob of the same kind, kept so
# journals that recorded it still resume.  The adaptive-sampling
# knobs are advisory because every replay result is a pure function of
# its snapshot: which subset got replayed is provenance, and keeping
# the knobs out of the identity is precisely what lets a fixed-sample
# journal be reopened with ``target_rel_error`` (or a tighter target)
# to replay only the additional snapshots needed.
_ADVISORY_META_KEYS = ("batch_lanes", "gl_backend", "gl_overlap",
                       "target_rel_error", "min_sample", "max_sample")


def _identity_meta(meta):
    if not isinstance(meta, dict):
        return meta
    return {k: v for k, v in meta.items()
            if k not in _ADVISORY_META_KEYS}


def _load_resume(path, expected_meta):
    records = read_journal(path)
    if not records:
        return None
    rtype, meta = records[0]
    if rtype != TYPE_META or _identity_meta(meta) != _identity_meta(
            expected_meta):
        warnings.warn(
            f"run journal {path} belongs to a different run "
            f"(parameters changed?); starting fresh", RuntimeWarning,
            stacklevel=2)
        return None
    sim = None
    snapshots = {}
    results = {}
    controls = []
    for rtype, obj in records[1:]:
        if rtype == TYPE_SNAPSHOT:
            snapshots[obj["index"]] = obj["snapshot"]
        elif rtype == TYPE_SIM:
            sim = obj
        elif rtype == TYPE_RESULT:
            results[obj["index"]] = obj["result"]
        elif rtype == TYPE_CONTROL:
            controls.append(obj.get("controller", obj))
    if sim is None:
        # Interrupted mid-simulation: snapshots (if any) came from an
        # unfinished reservoir and must not be trusted.
        warnings.warn(
            f"run journal {path} was interrupted before the simulation "
            f"finished; rerunning it", RuntimeWarning, stacklevel=2)
        return None
    ordered = []
    for i in range(sim["n_snapshots"]):
        if i not in snapshots:
            warnings.warn(
                f"run journal {path} is missing snapshot {i}; "
                f"starting fresh", RuntimeWarning, stacklevel=2)
            return None
        ordered.append(snapshots[i])
    return ResumeState(meta=meta, sim=sim, snapshots=ordered,
                       results=results, controls=controls)
