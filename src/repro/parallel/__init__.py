"""Parallel execution layer: replay-pool plumbing + on-disk artifact cache.

* :class:`CancelToken`, :class:`ParallelReplayError` — shared by the
  streaming replay scheduler (``ReplayEngine.replay_stream``, the one
  way into the worker pool) and the supervised pool it drives
  (:mod:`repro.robust.supervisor`, the paper's "each replay is
  independent" observation, used here for crash isolation);
* :class:`ArtifactCache` — content-addressed, checksummed disk cache of
  ASIC-flow artifacts and generated RTL-evaluator sources, keyed by
  :func:`repro.hdl.ir.circuit_fingerprint`, so repeated invocations
  skip synthesis, placement, and formal matching entirely.
"""

from .cache import (
    ArtifactCache, get_cache, cache_enabled, default_cache_dir,
    cache_stats, reset_cache_stats, CACHE_VERSION,
)
from .pool import ParallelReplayError, CancelToken

__all__ = [
    "ArtifactCache", "get_cache", "cache_enabled", "default_cache_dir",
    "cache_stats", "reset_cache_stats", "CACHE_VERSION",
    "ParallelReplayError", "CancelToken",
]
