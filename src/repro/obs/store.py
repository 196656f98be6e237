"""Persistent run-history store: one compact record per run or bench.

Every observability signal the repo produced before this module was
ephemeral — spans and metrics die with the process, ``/status`` is a
one-shot snapshot, and each ``BENCH_*.json`` overwrites the last.  The
history store is the durable layer underneath them: an append-only,
CRC-framed, schema-versioned JSONL file that accumulates one row per
``run_strober`` call and one row per benchmark emission, so a
performance *trajectory* exists to query, plot, and gate on
(``python -m repro.obs.regress``).

File format — one framed record per line::

    RH1 <crc32-hex8> <compact-json>\\n

The CRC covers the JSON payload bytes, so a torn tail (a writer killed
mid-append) or a corrupted line is detected and *skipped* by readers
rather than poisoning the whole file — the append-only file is shared
by concurrent writers, so readers never truncate it (unlike the run
journal, which has exactly one writer).  Each payload carries a
``"v"`` schema version; records written by a *newer* schema are
skipped (counted, warned once), never misparsed — the same
forward-compatibility rule the journals follow.

Concurrency: every append is a single ``os.write`` on an ``O_APPEND``
descriptor (one atomic line well under ``PIPE_BUF``), additionally
serialized by an ``flock`` where the platform has one — two processes
finishing runs at the same instant interleave whole lines, never
bytes.

Location: ``$REPRO_OBS_HISTORY`` names the file (or disables the
store entirely with ``0``/``off``/an empty value); the default lives
under the artifact-cache root — ``$REPRO_CACHE_DIR`` or
``~/.cache/repro`` — in ``history/history.jsonl``, so hermetic CI
setups that already redirect the cache get a hermetic history for
free.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import time
import warnings
import zlib

SCHEMA_VERSION = 1
MAGIC = "RH1"
_ENV_PATH = "REPRO_OBS_HISTORY"
_DISABLED = ("0", "off", "no", "none", "disable", "disabled")

KIND_RUN = "run"
KIND_BENCH = "bench"


def default_history_path():
    """Where history rows go, or None when the store is disabled."""
    env = os.environ.get(_ENV_PATH)
    if env is not None:
        if env.strip().lower() in _DISABLED or not env.strip():
            return None
        return env
    from ..parallel.cache import default_cache_dir
    return os.path.join(default_cache_dir(), "history", "history.jsonl")


def history_enabled():
    return default_history_path() is not None


_GIT_SHA = None


def git_sha():
    """Best-effort commit id of the running tree (cached; None when
    not a checkout or git is unavailable).  ``$REPRO_GIT_SHA``
    overrides — CI can stamp the exact commit without shelling out."""
    global _GIT_SHA
    if _GIT_SHA is None:
        env = os.environ.get("REPRO_GIT_SHA")
        if env:
            _GIT_SHA = env
        else:
            root = os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))))
            try:
                out = subprocess.run(
                    ["git", "rev-parse", "HEAD"], cwd=root,
                    capture_output=True, text=True, timeout=5)
                _GIT_SHA = (out.stdout.strip()
                            if out.returncode == 0 and out.stdout.strip()
                            else "")
            except (OSError, subprocess.SubprocessError):
                _GIT_SHA = ""
    return _GIT_SHA or None


def _frame(payload_bytes):
    crc = zlib.crc32(payload_bytes) & 0xFFFFFFFF
    return b"%s %08x " % (MAGIC.encode(), crc) + payload_bytes + b"\n"


def _lock(fd):
    try:
        import fcntl
        fcntl.flock(fd, fcntl.LOCK_EX)
        return True
    except (ImportError, OSError):
        return False


def _unlock(fd):
    try:
        import fcntl
        fcntl.flock(fd, fcntl.LOCK_UN)
    except (ImportError, OSError):
        pass


class HistoryStore:
    """One history file: durable appends, tolerant reads."""

    def __init__(self, path=None):
        if path is None:
            path = default_history_path()
        self.path = path

    @property
    def enabled(self):
        return self.path is not None

    # -- writing -----------------------------------------------------

    def append(self, record):
        """Durably append one record; returns the stamped dict.

        Stamps schema version, wall-clock, host, and pid onto a copy
        of ``record``.  A disabled store is a silent no-op (returns
        None) so call sites need no conditionals.
        """
        if not self.enabled:
            return None
        stamped = dict(record)
        stamped.setdefault("v", SCHEMA_VERSION)
        stamped.setdefault("ts", time.time())
        stamped.setdefault("host", socket.gethostname())
        stamped.setdefault("pid", os.getpid())
        payload = json.dumps(stamped, sort_keys=True,
                             separators=(",", ":")).encode()
        line = _frame(payload)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        # O_APPEND + one write: whole lines interleave atomically even
        # without the advisory lock; the flock closes the (tiny) race
        # on platforms whose O_APPEND semantics are weaker (NFS).
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            locked = _lock(fd)
            try:
                os.write(fd, line)
            finally:
                if locked:
                    _unlock(fd)
        finally:
            os.close(fd)
        from .metrics import get_registry
        get_registry().counter("obs.history.appends").inc()
        get_registry().counter("obs.history.bytes").inc(len(line))
        return stamped

    # -- reading -----------------------------------------------------

    def read(self, kind=None):
        """Every valid record, oldest first (list of dicts).

        Skips — counting each class in the registry — torn/corrupt
        lines (``obs.history.skipped_corrupt``; a torn *tail* is the
        expected crash artifact and additionally counted as
        ``obs.history.torn_tail``) and records stamped with a newer
        schema version (``obs.history.skipped_foreign``).  A missing
        file reads as empty.
        """
        if not self.enabled or not os.path.exists(self.path):
            return []
        from .metrics import get_registry
        registry = get_registry()
        records = []
        with open(self.path, "rb") as f:
            lines = f.read().split(b"\n")
        # A trailing newline leaves one empty element; drop it so only
        # genuinely damaged content counts as corruption.
        if lines and lines[-1] == b"":
            lines.pop()
        foreign = corrupt = 0
        for lineno, raw in enumerate(lines):
            record = self._parse_line(raw)
            if record is None:
                corrupt += 1
                registry.counter("obs.history.skipped_corrupt").inc()
                if lineno == len(lines) - 1:
                    registry.counter("obs.history.torn_tail").inc()
                continue
            if record.get("v", 0) > SCHEMA_VERSION:
                foreign += 1
                registry.counter("obs.history.skipped_foreign").inc()
                continue
            if kind is not None and record.get("kind") != kind:
                continue
            records.append(record)
        if corrupt:
            warnings.warn(
                f"history store {self.path}: skipped {corrupt} "
                f"corrupt/torn line(s); appends continue past them",
                RuntimeWarning, stacklevel=2)
        if foreign:
            warnings.warn(
                f"history store {self.path}: skipped {foreign} "
                f"record(s) written by a newer schema "
                f"(> v{SCHEMA_VERSION})", RuntimeWarning, stacklevel=2)
        return records

    @staticmethod
    def _parse_line(raw):
        """One framed line -> dict, or None when invalid."""
        parts = raw.split(b" ", 2)
        if len(parts) != 3 or parts[0] != MAGIC.encode():
            return None
        magic, crc_hex, payload = parts
        try:
            crc = int(crc_hex, 16)
        except ValueError:
            return None
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return None
        try:
            record = json.loads(payload)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None


# -- record builders ---------------------------------------------------------


def run_record(run):
    """The compact history row for one completed :class:`StroberRun`.

    Pure builder (no I/O) so tests can assert the schema without a
    store.  Every numeric that the regression sentinel gates on lands
    flat under ``"metrics"``; identity and knobs land under their own
    keys so rows group into per-configuration series.
    """
    from .metrics import get_registry
    registry = get_registry()
    timings = run.timings or {}
    config = {
        "workers": timings.get("workers"),
        "batch_lanes": timings.get("batch_lanes"),
        "rtl_backend": timings.get("rtl_backend"),
        "gl_backend": timings.get("gl_backend"),
    }
    metrics = {"wall_seconds": run.wall_seconds}
    for key in ("sim_seconds", "flow_seconds", "replay_seconds",
                "energy_seconds"):
        value = timings.get(key)
        if isinstance(value, (int, float)):
            metrics[key] = value
    # Per-phase native-kernel counters (seconds spent in each replay
    # step across the whole run) — zero rows are noise, drop them.
    glstep = {}
    for name, inst in registry.snapshot("glstep.").items():
        if inst.get("value"):
            glstep[name] = inst["value"]
    hits = registry.value("cache.hits")
    misses = registry.value("cache.misses")
    sampling = getattr(run, "sampling", None) or {}
    record = {
        "kind": KIND_RUN,
        "git_sha": git_sha(),
        "run_key": getattr(run, "run_key", None),
        "design": run.design,
        "workload": run.workload,
        "config": config,
        "metrics": metrics,
        "glstep_seconds": glstep,
        "cache": {"hits": hits, "misses": misses,
                  "hit_rate": hits / (hits + misses)
                  if hits + misses else None},
        "snapshots": len(run.replays),
        "cycles": run.result.cycles,
        "flow_cache_hit": timings.get("flow_cache_hit"),
        "sampling": {"stop_reason": sampling.get("stop_reason"),
                     "rel_error": sampling.get("rel_error"),
                     "n": sampling.get("n")} if sampling else None,
    }
    return record


def bench_record(name, payload):
    """The history row for one ``BENCH_*.json`` emission.

    ``payload`` is the dict the bench saved; its numeric scalars are
    lifted flat into ``"metrics"`` (nested values stay behind — the
    sentinel wants comparable scalars, not trees).
    """
    metrics = {key: value for key, value in (payload or {}).items()
               if isinstance(value, (int, float))
               and not isinstance(value, bool)}
    return {
        "kind": KIND_BENCH,
        "git_sha": git_sha(),
        "bench": name,
        "metrics": metrics,
    }


def append_run_record(run, store=None):
    """Teardown hook: persist one run's history row.

    Never raises — persistence of telemetry must not fail the run that
    produced it.  Returns the stamped record, or None when disabled or
    on error (counted as ``obs.history.append_errors``).
    """
    try:
        store = store if store is not None else HistoryStore()
        return store.append(run_record(run))
    except Exception:
        try:
            from .metrics import get_registry
            get_registry().counter("obs.history.append_errors").inc()
        except Exception:
            pass
        return None


def append_bench_record(name, payload, store=None):
    """Bench hook twin of :func:`append_run_record` (never raises)."""
    try:
        store = store if store is not None else HistoryStore()
        return store.append(bench_record(name, payload))
    except Exception:
        try:
            from .metrics import get_registry
            get_registry().counter("obs.history.append_errors").inc()
        except Exception:
            pass
        return None
