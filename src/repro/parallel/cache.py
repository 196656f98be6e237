"""Content-addressed on-disk artifact cache.

Strober's ASIC half (synthesis, placement, formal matching) and the
RTL-evaluator code generators are pure functions of the elaborated
circuit, so their outputs are cached on disk keyed by
:func:`repro.hdl.ir.circuit_fingerprint`.  A warm cache lets a fresh
process skip the entire flow — the "one-time mapping cost amortized
across many runs" acceleration from the power-emulation literature.

Layout::

    <root>/v<VERSION>/<kind>/<key[:2]>/<key>.pkl

* ``root`` is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
* ``kind`` namespaces artifact types (``asicflow``, ``asicflow-soc``,
  ``pysim``, ``glsched``, and the shared objects :mod:`repro.native`
  builds: per-circuit RTL simulators ``csim`` and the host-wide
  gate-level replay kernel ``glso``).
* ``key`` is the circuit fingerprint; invalidation is automatic because
  any structural change to the design changes the key, and format
  changes bump ``CACHE_VERSION``.

Entries are framed (magic + CRC32 over the pickle payload) so a
truncated or bit-flipped file is *detected*, quarantined (moved to
``<root>/quarantine/`` for post-mortem inspection), and rebuilt rather
than deserialized into a subtly wrong artifact.  Writes are atomic and
durable (temp file + ``fsync`` + ``os.replace``) so concurrent
processes never observe partial artifacts and a disk that fills
mid-write (``ENOSPC``) can never leave a live entry behind.  Every
degraded event — a corrupt entry quarantined, a best-effort write
skipped — is counted in module-level :func:`cache_stats` and announced
once per event class via ``warnings.warn`` instead of disappearing
silently.  Set ``REPRO_CACHE_DISABLE=1`` to bypass the cache entirely.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import warnings
import zlib

# v2: entries framed with a magic + CRC32 header (v1 was a bare pickle).
CACHE_VERSION = 2

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_CACHE_DISABLE"

_MAGIC = b"RPC1"
_FRAME = struct.Struct("<4sI")   # magic, crc32(payload)

# Degraded-mode event accounting.  The cache is best-effort by design —
# a broken cache must never break the computation it accelerates — but
# "best-effort" must not mean "invisible": every event is counted in
# the shared repro.obs metrics registry (under the ``cache.`` prefix,
# so corruption counts surface in exported traces and the report CLI),
# and each degraded event class warns once.  ``cache_stats()`` stays
# the stable API view over those registry counters.
_STAT_KEYS = (
    "hits",
    "misses",
    "corrupt_dropped",      # entries that failed the CRC/format check
    "quarantined",          # corrupt entries moved to <root>/quarantine/
    "put_skipped",          # best-effort writes that could not land
    # levelization time skipped by loading a cached gate-evaluation
    # schedule (kind "glsched") instead of rebuilding it
    "sched_seconds_saved",
    # cached shared objects (RTL simulators, kind "csim", and the
    # replay kernel, kind "glso") that no longer load on this host
    # (toolchain/arch drift) and were rebuilt and replaced
    "csim.stale",
    "glso.stale",
)
_PREFIX = "cache."
_WARNED = set()

# Fault-injection seam (see repro.robust.faultinject): when set, called
# after an entry's bytes are written but before they are made durable —
# the exact window where a filling disk (ENOSPC) strikes a real write.
_PUT_FAULT = None


def set_put_fault(fn):
    """Install a write-fault hook (or None); returns the previous one."""
    global _PUT_FAULT
    previous = _PUT_FAULT
    _PUT_FAULT = fn
    return previous


def _registry():
    from ..obs import get_registry
    return get_registry()


def cache_stats():
    """{event: count} view over the ``cache.*`` registry counters."""
    registry = _registry()
    out = {}
    for key in _STAT_KEYS:
        value = registry.value(_PREFIX + key)
        out[key] = value if key == "sched_seconds_saved" else int(value)
    return out


def reset_cache_stats():
    """Zero the counters and re-arm the once-per-class warnings."""
    _registry().reset(_PREFIX)
    _WARNED.clear()


def note_schedule_reuse(seconds):
    """Credit a cached-schedule hit with the levelization time it saved."""
    _registry().counter(_PREFIX + "sched_seconds_saved").inc(
        float(seconds))


def _count(event, message=None):
    _registry().counter(_PREFIX + event).inc()
    if message is not None:
        from ..obs import get_tracer
        get_tracer().instant(_PREFIX + event, cat="cache",
                             detail=message)
        if event not in _WARNED:
            _WARNED.add(event)
            warnings.warn(
                f"{message} (further occurrences counted silently in "
                f"repro.parallel.cache.cache_stats())", RuntimeWarning,
                stacklevel=3)


def _encode(obj):
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(_MAGIC, zlib.crc32(payload)) + payload


def _decode(data):
    if len(data) < _FRAME.size:
        raise ValueError("short cache entry")
    magic, crc = _FRAME.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("bad cache entry magic")
    payload = data[_FRAME.size:]
    if zlib.crc32(payload) != crc:
        raise ValueError("cache entry checksum mismatch")
    return pickle.loads(payload)


def cache_enabled():
    return os.environ.get(_ENV_DISABLE, "") not in ("1", "true", "yes")


def default_cache_dir():
    return os.environ.get(_ENV_DIR) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro")


class ArtifactCache:
    """Checksummed pickle store addressed by (kind, content-hash key)."""

    def __init__(self, root=None):
        self.root = os.path.join(root or default_cache_dir(),
                                 f"v{CACHE_VERSION}")

    def _path(self, kind, key):
        return os.path.join(self.root, kind, key[:2], f"{key}.pkl")

    def has(self, kind, key):
        return os.path.exists(self._path(kind, key))

    def get(self, kind, key):
        """Load an artifact; returns None on miss or corruption."""
        from ..obs import get_tracer
        with get_tracer().span("cache.get", cat="cache",
                               kind=kind) as span:
            obj = self._get(kind, key)
            span.set(hit=obj is not None)
        return obj

    def _get(self, kind, key):
        path = self._path(kind, key)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            _count("misses")
            _count(f"{kind}.misses")
            return None
        except OSError as exc:
            _count("misses",
                   f"cache entry {path} unreadable ({exc}); rebuilding")
            _count(f"{kind}.misses")
            return None
        try:
            obj = _decode(data)
        except Exception as exc:
            # Corrupt/truncated entry (interrupted writer on a pre-CRC
            # format, disk error, deliberate fault injection): the CRC
            # frame catches it here — quarantine, record, rebuild.  The
            # damaged bytes are kept under <root>/quarantine/ so the
            # corruption can be inspected post-mortem instead of being
            # destroyed along with the evidence.
            _count("corrupt_dropped",
                   f"dropping corrupt cache entry {path} ({exc}); "
                   f"the artifact will be rebuilt")
            self._quarantine_path(path, kind, key)
            _count(f"{kind}.misses")
            return None
        _count("hits")
        _count(f"{kind}.hits")
        return obj

    def quarantine_dir(self):
        """Directory corrupt (or demotion-quarantined) entries go to."""
        return os.path.join(self.root, "quarantine")

    def _quarantine_path(self, path, kind, key):
        """Move a damaged/suspect entry aside; falls back to deletion.

        Quarantined files are named ``<kind>-<key>.pkl`` so their
        origin stays identifiable without the directory layout.
        """
        dest = os.path.join(self.quarantine_dir(), f"{kind}-{key}.pkl")
        try:
            os.makedirs(self.quarantine_dir(), exist_ok=True)
            os.replace(path, dest)
        except OSError:
            # Quarantine unavailable (read-only root, cross-device
            # surprise): removing the entry still protects the next
            # reader, just without the forensics.
            try:
                os.remove(path)
            except OSError:
                return None
            return None
        _count("quarantined")
        from ..obs import get_tracer
        get_tracer().instant("cache.quarantined", cat="cache",
                             kind=kind, key=key[:12], dest=dest)
        return dest

    def quarantine(self, kind, key):
        """Move a live entry to the quarantine directory.

        Used by the job service's backend circuit breaker to pull a
        suspected-poisoned replay kernel (``glso``) out of
        circulation — workers that repeatedly segfault under a cached
        shared object must not keep loading it.  Returns the
        quarantined file's path, or None when there was no entry (or
        the move failed).
        """
        path = self._path(kind, key)
        if not os.path.exists(path):
            return None
        return self._quarantine_path(path, kind, key)

    def put(self, kind, key, obj):
        """Atomically store an artifact; returns its path.

        Best-effort: an unwritable cache root (read-only filesystem,
        disk full, bogus ``REPRO_CACHE_DIR``) returns None instead of
        failing the computation whose result was being cached — but the
        skip is counted and warned about, not swallowed invisibly.
        The temp file is fsync'd *before* ``os.replace`` publishes it,
        so a disk that fills mid-write (ENOSPC on flush or fsync) can
        never leave a truncated entry live under the real key.
        """
        from ..obs import get_tracer
        with get_tracer().span("cache.put", cat="cache", kind=kind):
            return self._put(kind, key, obj)

    def _put(self, kind, key, obj):
        path = self._path(kind, key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=".tmp-", suffix=".pkl")
            with os.fdopen(fd, "wb") as f:
                f.write(_encode(obj))
                if _PUT_FAULT is not None:
                    _PUT_FAULT()
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            _count("put_skipped",
                   f"cache write for {kind}/{key[:12]}… skipped ({exc})")
            return None
        except BaseException:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            raise
        _count(f"{kind}.puts")
        return path

    def clear(self, kind=None):
        """Delete all entries (or only one kind); returns count removed."""
        base = self.root if kind is None else os.path.join(self.root, kind)
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(base):
            for fname in filenames:
                if fname.endswith(".pkl"):
                    try:
                        os.remove(os.path.join(dirpath, fname))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self):
        """{kind: (entries, bytes)} for everything under the root."""
        out = {}
        if not os.path.isdir(self.root):
            return out
        for kind in sorted(os.listdir(self.root)):
            kind_dir = os.path.join(self.root, kind)
            count = size = 0
            for dirpath, _dirnames, filenames in os.walk(kind_dir):
                for fname in filenames:
                    if fname.endswith(".pkl"):
                        count += 1
                        try:
                            size += os.path.getsize(
                                os.path.join(dirpath, fname))
                        except OSError:
                            pass
            out[kind] = (count, size)
        return out


def get_cache():
    """A cache bound to the current environment's root directory.

    Constructed per call (it is just a path) so tests and long-running
    processes that change ``REPRO_CACHE_DIR`` always see the right root.
    """
    return ArtifactCache()
