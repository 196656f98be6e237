"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Unlike the tracer — which is off unless a run asks for a trace — the
registry is always live: an increment is one dict lookup, a lock and a
float add, cheap enough for every cache hit and replay batch to count
unconditionally.  That makes it the single source of truth for
quantities that used to live in ad-hoc module dicts (the artifact
cache's ``STATS``) while staying visible to the trace exporter and the
report CLI.

Worker processes snapshot-and-reset their registry after each task
(:meth:`MetricsRegistry.drain`) and ship the delta to the supervisor,
which :meth:`MetricsRegistry.merge`\\ s it into the parent registry —
counters and histogram buckets add, gauges take the newest value.
"""

from __future__ import annotations

import threading


class _Instrument:
    """Shared plumbing: every update holds the registry's lock (the one
    :meth:`MetricsRegistry.drain` takes), and ``dirty`` marks an
    instrument updated or created since the registry's last drain."""

    __slots__ = ("name", "_lock", "dirty")

    def __init__(self, name, lock=None):
        self.name = name
        self._lock = lock if lock is not None else threading.Lock()
        self.dirty = True


class Counter(_Instrument):
    """Monotonic accumulator (floats allowed: seconds saved, bytes…)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name, lock=None):
        super().__init__(name, lock)
        self.value = 0.0

    def inc(self, amount=1.0):
        with self._lock:
            self.value += amount
            self.dirty = True
        return self

    def _zero(self):
        self.value = 0.0

    def as_dict(self):
        return {"kind": self.kind, "value": self.value}


class Gauge(_Instrument):
    """Last-write-wins sample of a current level."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, name, lock=None):
        super().__init__(name, lock)
        self.value = 0.0

    def set(self, value):
        value = float(value)
        with self._lock:
            self.value = value
            self.dirty = True
        return self

    def _zero(self):
        self.value = 0.0

    def as_dict(self):
        return {"kind": self.kind, "value": self.value}


class Histogram(_Instrument):
    """Fixed-boundary histogram: ``boundaries`` are bucket upper edges
    (a final implicit +inf bucket catches the rest)."""

    __slots__ = ("boundaries", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, name, boundaries, lock=None):
        super().__init__(name, lock)
        self.boundaries = tuple(float(b) for b in boundaries)
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("histogram boundaries must be sorted")
        self._zero()

    def observe(self, value):
        value = float(value)
        for i, edge in enumerate(self.boundaries):
            if value <= edge:
                break
        else:
            i = len(self.boundaries)
        with self._lock:
            self.counts[i] += 1
            self.total += value
            self.count += 1
            self.dirty = True
        return self

    def _add(self, counts, total, count):
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.total += total
            self.count += count
            self.dirty = True

    def _zero(self):
        self.counts = [0] * (len(self.boundaries) + 1)
        self.total = 0.0
        self.count = 0

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def as_dict(self):
        return {"kind": self.kind, "boundaries": list(self.boundaries),
                "counts": list(self.counts), "total": self.total,
                "count": self.count}


class MetricsRegistry:
    """Name -> instrument map with merge/drain for worker shipping."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments = {}

    def counter(self, name):
        return self._get(name, Counter, ())

    def gauge(self, name):
        return self._get(name, Gauge, ())

    def histogram(self, name, boundaries):
        return self._get(name, Histogram, (boundaries,))

    def _get(self, name, cls, extra):
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = self._instruments[name] = cls(
                        name, *extra, lock=self._lock)
        if not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} is a {inst.kind}, "
                            f"not a {cls.kind}")
        return inst

    def get(self, name):
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def value(self, name, default=0.0):
        inst = self._instruments.get(name)
        if inst is None:
            return default
        return inst.mean if isinstance(inst, Histogram) else inst.value

    def snapshot(self, prefix=""):
        """{name: as_dict()} for every instrument under ``prefix``
        created or updated since the last :meth:`drain`."""
        with self._lock:
            return {name: inst.as_dict()
                    for name, inst in self._instruments.items()
                    if inst.dirty and name.startswith(prefix)}

    def drain(self):
        """Snapshot everything and zero the registry (worker flushes).

        Instruments stay registered and are zeroed in place under the
        lock their updates take, so an update through a reference taken
        before the drain lands in the next drain instead of being lost.
        """
        with self._lock:
            payload = {}
            for name, inst in self._instruments.items():
                if inst.dirty:
                    payload[name] = inst.as_dict()
                    inst._zero()
                    inst.dirty = False
        return payload

    def merge(self, payload, source=None):
        """Fold a :meth:`drain`/:meth:`snapshot` payload in (adds
        counters and histogram buckets; gauges take the newer value).

        ``source`` names where the payload came from (a worker pid,
        a job id) and is woven into mismatch errors — with many
        processes shipping deltas, an unattributed boundary mismatch
        is undebuggable.
        """
        if not payload:
            return
        origin = f" (merging from {source})" if source else ""
        for name, d in payload.items():
            kind = d.get("kind")
            if kind == "counter":
                self.counter(name).inc(d["value"])
            elif kind == "gauge":
                self.gauge(name).set(d["value"])
            elif kind == "histogram":
                hist = self.histogram(name, d["boundaries"])
                if list(hist.boundaries) != [float(b)
                                             for b in d["boundaries"]]:
                    raise ValueError(
                        f"histogram {name!r} boundary mismatch on "
                        f"merge{origin}: have {list(hist.boundaries)}, "
                        f"payload {list(d['boundaries'])}")
                hist._add(d["counts"], d["total"], d["count"])
            else:
                raise ValueError(f"unknown metric kind "
                                 f"{kind!r}{origin}")

    def reset(self, prefix=""):
        """Drop every instrument whose name starts with ``prefix``."""
        with self._lock:
            self._instruments = {
                name: inst for name, inst in self._instruments.items()
                if not name.startswith(prefix)}


_REGISTRY = MetricsRegistry()


def get_registry():
    """The process-wide registry (always live, never a no-op)."""
    return _REGISTRY
