"""Replayable RTL snapshots (Section III-B).

A replayable snapshot is everything needed to re-execute a window of the
target's history on a detailed (gate-level) simulator: the full RTL
state at cycle ``c`` plus the traces of all I/O signals over the replay
length ``L`` starting at ``c``.  Output traces double as the correctness
check during replay ("outputs are verified against the output values of
the design").

The layout is columnar, like the paper's scan-chain readout plus I/O
trace buffers: the state is a :class:`~repro.sim.state.SimState`
(register vector + memory arrays) and the I/O window is an ``(L,
inputs)`` and an ``(L, outputs)`` matrix, each identified by a port-order
fingerprint.  Every row holds every port: the FAME loop records the
simulator's live input vector, so a port an endpoint left undriven holds
the value the RTL actually saw, and replay pokes every column.

Snapshots carry an optional integrity checksum: :meth:`seal` takes a CRC
of the raw buffers, the fingerprints, ``cycle`` and ``replay_length``
once recording completes, and :meth:`validate` re-verifies it before
every replay.  A snapshot whose bits were corrupted in transit (worker
pickling, the on-disk run journal, a fault-injection campaign) is
therefore *detected* up front instead of silently contributing a wrong
power number.

The columnar ``v3`` tuple is the only wire format.  Pickles of the
pre-columnar ``v1``/``v2`` dict-trace formats raise
:class:`SnapshotError`; a run journal holding them reads as damaged at
its first snapshot record, so the run reruns fresh (bit-identical, as
its seed is part of the journal's identity).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..sim.state import mem_dtype, name_order, resolve_order


class SnapshotError(Exception):
    pass


# Wire-format version tag accepted by __setstate__.  The per-cycle
# dict traces of "v1"/"v2" are gone: a journal holding them fails to
# decode at its first snapshot record, so its run reruns fresh.
PICKLE_VERSION = "v3"
_KNOWN_VERSIONS = ("v3",)

_HEADER = struct.Struct("<qqqqQQQ")


class TraceLayout:
    """Port orders and word dtypes of a snapshot's I/O matrices.

    ``input_ports`` / ``output_ports`` are ``(name, width)`` pairs in
    matrix column order; each matrix uses the narrowest unsigned dtype
    holding its widest port.
    """

    __slots__ = ("inputs", "outputs", "input_dtype", "output_dtype")

    def __init__(self, input_ports, output_ports):
        input_ports, output_ports = list(input_ports), list(output_ports)
        self.inputs = name_order(name for name, _ in input_ports)
        self.outputs = name_order(name for name, _ in output_ports)
        self.input_dtype = mem_dtype(max((w for _, w in input_ports),
                                         default=1))
        self.output_dtype = mem_dtype(max((w for _, w in output_ports),
                                          default=1))


class ReplayableSnapshot:
    """State + I/O window captured at one sample point.

    ``inputs`` / ``outputs`` are preallocated ``(replay_length, ports)``
    matrices in the port orders named by ``input_order`` /
    ``output_order``; :meth:`record_cycle` fills a block of rows per
    step of the FAME loop (one row for a ticked cycle).  Its orders are
    the circuit's, which every simulator, name map and replay engine
    declares, so all snapshots of one design share one layout.
    """

    def __init__(self, cycle, state, replay_length, layout,
                 perf_counters=None):
        self.cycle = cycle                 # target cycle c of the capture
        self.state = state                 # SimState at cycle c
        self.replay_length = replay_length  # L
        self.input_order = layout.inputs.fingerprint
        self.output_order = layout.outputs.fingerprint
        self.inputs = np.zeros((replay_length, len(layout.inputs)),
                               dtype=layout.input_dtype)
        self.outputs = np.zeros((replay_length, len(layout.outputs)),
                                dtype=layout.output_dtype)
        self.recorded = 0
        self.perf_counters = dict(perf_counters or {})
        self.checksum = None               # set by seal()

    # -- recording -----------------------------------------------------------

    @property
    def complete(self):
        """True once the I/O window has been fully recorded."""
        return self.recorded >= self.replay_length

    def record_cycle(self, inputs, outputs):
        """Write recorded rows (port order); cycles beyond the window
        are ignored.

        ``outputs`` is one cycle's row or a ``(k, outputs)`` block of
        ``k`` cycles' rows, and ``inputs`` the one input row held
        through them.
        """
        outputs = np.atleast_2d(outputs)
        t = self.recorded
        end = min(t + len(outputs), self.replay_length)
        self.inputs[t:end] = inputs
        self.outputs[t:end] = outputs[:end - t]
        self.recorded = end

    # -- reading -------------------------------------------------------------

    @property
    def input_trace(self):
        """The recorded input rows, ``(recorded, inputs)``."""
        return self.inputs[:self.recorded]

    @property
    def output_trace(self):
        """The recorded output rows, ``(recorded, outputs)``."""
        return self.outputs[:self.recorded]

    @property
    def input_names(self):
        return resolve_order(self.input_order).names

    @property
    def output_names(self):
        return resolve_order(self.output_order).names

    def cycle_io(self, t):
        """``(inputs, outputs)`` dicts of recorded cycle ``t``."""
        if not 0 <= t < self.recorded:
            raise IndexError(f"cycle {t} not recorded")
        inputs = dict(zip(self.input_names, self.inputs[t].tolist()))
        outputs = dict(zip(self.output_names, self.outputs[t].tolist()))
        return inputs, outputs

    def output_value(self, t, name):
        """Recorded value of output ``name`` in cycle ``t``."""
        column = resolve_order(self.output_order).index[name]
        return int(self.outputs[t, column])

    # -- integrity -----------------------------------------------------------

    def _compute_checksum(self):
        """CRC-32 over the header fields and every raw buffer."""
        state = self.state
        h = zlib.crc32(_HEADER.pack(
            self.cycle, self.replay_length, self.recorded, state.cycle,
            state.reg_order, self.input_order, self.output_order))
        h = zlib.crc32(state.reg_values, h)
        for path, words in state.mems.items():
            h = zlib.crc32(f"{path}:{words.dtype.str}".encode(), h)
            h = zlib.crc32(words, h)
        h = zlib.crc32(self.inputs, h)
        return zlib.crc32(self.outputs, h)

    def seal(self):
        """Fingerprint the completed snapshot; validate() verifies it."""
        self.checksum = self._compute_checksum()
        return self.checksum

    def validate(self):
        if not self.complete:
            raise SnapshotError(
                f"snapshot at cycle {self.cycle} has only "
                f"{self.recorded}/{self.replay_length} traced cycles")
        if (self.checksum is not None
                and self._compute_checksum() != self.checksum):
            raise SnapshotError(
                f"snapshot at cycle {self.cycle} failed its integrity "
                f"check: state or I/O trace was corrupted after capture")
        return True

    # -- wire format ---------------------------------------------------------

    # Snapshots are the unit of work shipped to replay worker processes
    # and stored in run journals; their pickled form is an explicit,
    # versioned tuple of raw buffers.  Its last slot held the name
    # orders of snapshots converted from v1/v2 and is always None now.
    def __getstate__(self):
        return (PICKLE_VERSION, self.cycle, self.state, self.replay_length,
                self.recorded, self.input_order, self.inputs.dtype.str,
                self.inputs.shape[1], self.inputs.tobytes(),
                self.output_order, self.outputs.dtype.str,
                self.outputs.shape[1], self.outputs.tobytes(),
                self.perf_counters, self.checksum, None)

    def __setstate__(self, state):
        tag = state[0] if isinstance(state, tuple) and state else None
        if tag not in _KNOWN_VERSIONS:
            raise SnapshotError(
                f"unknown snapshot pickle version {tag!r} (supported: "
                f"{', '.join(_KNOWN_VERSIONS)}); the snapshot came from an "
                f"incompatible repro version or was corrupted")
        (_v, self.cycle, self.state, self.replay_length, self.recorded,
         self.input_order, in_dtype, n_in, in_raw,
         self.output_order, out_dtype, n_out, out_raw,
         self.perf_counters, self.checksum, orders) = state
        if orders is not None:
            raise SnapshotError(
                f"snapshot at cycle {self.cycle} was converted from a "
                f"pre-v3 pickle; those formats are no longer read")
        rows = self.replay_length
        self.inputs = _matrix(in_raw, in_dtype, rows, n_in)
        self.outputs = _matrix(out_raw, out_dtype, rows, n_out)


def _matrix(raw, dtype, rows, columns):
    return np.frombuffer(raw, dtype=dtype).reshape(rows, columns).copy()


__all__ = ["ReplayableSnapshot", "SnapshotError", "TraceLayout"]
