"""The one path from C source to a loaded shared object.

The RTL simulator (kind ``csim``, :mod:`repro.sim.cbackend`) and the
gate-level replay kernel (kind ``glso``, :mod:`repro.gatelevel.glcodegen`)
each supply their source, flags and exports to :func:`load`, which owns
compiler discovery (``$REPRO_CC``), cache keying, compiling, the
artifact cache, loading a private copy, and rebuilding stale entries.
:class:`ToolchainUnavailable` is the one failure callers degrade on,
by the rule in :func:`note_fallback`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from functools import lru_cache

from .obs import get_registry, get_tracer

_ENV_CC = "REPRO_CC"

_WARNED = set()


class ToolchainUnavailable(Exception):
    """Native code cannot be built here: no working C compiler, or an
    input the generated code cannot express."""


def _warn_once(event, message):
    """Trace ``event`` every time; warn the first time only."""
    get_tracer().instant(f"native.{event}", cat="flow", detail=message)
    if event not in _WARNED:
        _WARNED.add(event)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_warnings():
    """Re-arm the once-per-event warnings (test hook)."""
    _WARNED.clear()


def note_fallback(layer, requested, exc, what, instead):
    """Record that ``layer`` could not build its native ``what`` and
    runs ``instead``: counted as ``<layer>.c_fallbacks`` always, warned
    about once when the caller asked for ``c`` explicitly (``auto``
    degrades silently)."""
    get_registry().counter(f"{layer}.c_fallbacks").inc()
    if requested == "c":
        _warn_once(f"{layer}-c-fallback",
                   f"C {what} backend unavailable ({exc}); using the "
                   f"{instead} instead")


def find_compiler():
    """Path of the C compiler; raises :class:`ToolchainUnavailable`."""
    override = os.environ.get(_ENV_CC)
    if override:
        if shutil.which(override) or (os.path.isfile(override)
                                      and os.access(override, os.X_OK)):
            return override
        raise ToolchainUnavailable(
            f"${_ENV_CC}={override!r} is not an executable compiler")
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise ToolchainUnavailable("no C compiler on PATH")
    return compiler


@lru_cache(maxsize=None)
def _cc_version(compiler):
    """First line of ``compiler --version``."""
    try:
        proc = subprocess.run([compiler, "--version"], check=True,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        raise ToolchainUnavailable(
            f"C compiler {compiler!r} does not run: {exc}") from exc
    return proc.stdout.splitlines()[0] if proc.stdout else ""


def cache_key(source, flags, compiler=None):
    """blake2b of the C ``source``, the compiler's version line and
    ``flags``: the artifact-cache key of one shared object."""
    version = _cc_version(compiler or find_compiler())
    h = hashlib.blake2b(digest_size=20)
    for part in (source, version, " ".join(flags)):
        h.update(part.encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _bind(so_path, exports):
    """``dlopen`` the object and resolve every export now, not lazily."""
    lib = ctypes.CDLL(so_path)
    for name, argtypes, restype in exports:
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def load(kind, source, flags, exports, use_cache=True):
    """``(lib, from_cache)``: a private, bound copy of the shared object
    built from the C ``source`` with ``flags``.

    The artifact-cache key of ``kind`` covers the source, the compiler's
    version line and the flags (:func:`cache_key`).  ``exports`` lists
    ``(symbol, argtypes, restype)``.  Every call loads (``dlopen``) its
    own copy from a fresh temp directory, removed once loaded (the
    mapping outlives the file), so state in the object's statics is
    private to the caller.  A cached object that fails to load is
    counted as ``cache.<kind>.stale``, warned about once, rebuilt, and
    replaced.  Raises :class:`ToolchainUnavailable` when no working
    compiler is found or the source does not compile.
    """
    from .parallel.cache import cache_enabled, get_cache

    compiler = find_compiler()
    key = (cache_key(source, flags, compiler)
           if use_cache and cache_enabled() else None)
    workdir = tempfile.mkdtemp(prefix=f"repro_{kind}_")
    try:
        entry = get_cache().get(kind, key) if key is not None else None
        if entry is not None:
            # its own name: the loader matches open objects by path, so
            # a rebuild at this path would return a stale handle
            cached_path = os.path.join(workdir, "cached.so")
            with open(cached_path, "wb") as f:
                f.write(entry["so"])
            try:
                return _bind(cached_path, exports), True
            except (OSError, AttributeError) as exc:
                get_registry().counter(f"cache.{kind}.stale").inc()
                _warn_once(f"{kind}-stale",
                           f"cached {kind} object failed to load "
                           f"({exc}); rebuilding it")
        c_path = os.path.join(workdir, "lib.c")
        so_path = os.path.join(workdir, "lib.so")
        with open(c_path, "w") as f:
            f.write(source)
        try:
            subprocess.run([compiler, *flags, "-o", so_path, c_path],
                           check=True, capture_output=True, timeout=600)
        except (OSError, subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            raise ToolchainUnavailable(
                f"C compilation failed: {exc}") from exc
        lib = _bind(so_path, exports)
        if key is not None:
            with open(so_path, "rb") as f:
                get_cache().put(kind, key, {"so": f.read()})
        return lib, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
