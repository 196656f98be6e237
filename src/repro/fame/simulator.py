"""FAME1 decoupled simulator with snapshot capture (Sections III-B, IV-B).

Plays the role of the Strober-generated FPGA simulator: runs the
FAME1-transformed target, services its I/O through host endpoints
(memory timing model, HTIF), and captures replayable RTL snapshots via
reservoir sampling at replay-window boundaries.

Every target cycle goes through one stepper, ``_advance``: a ticked
cycle is a one-cycle step, an idle stretch one multi-cycle step.  With
``record_full_io`` it also keeps the whole run's I/O in the snapshots'
columnar layout, the ground truth's stimulus (Figure 8).

Host-time accounting follows the paper's Section IV-E model: the target
stalls while a snapshot is scanned out (``Trec``), and every
``io_stall_period`` target cycles the host/FPGA communication costs
``io_stall_cycles`` of host time (the paper's "stalls every 256 cycles").
"""

from __future__ import annotations

import time

import numpy as np

from ..sim import make_simulator
from ..sampling import ReservoirSampler
from ..scan.snapshot import ReplayableSnapshot, TraceLayout
from .transform import is_fame1, HOST_ENABLE


def _grown(matrix, used, rows):
    """``matrix`` with ``rows`` rows, the first ``used`` copied over."""
    out = np.empty((rows, matrix.shape[1]), dtype=matrix.dtype)
    out[:used] = matrix[:used]
    return out


def compiled_scan_spec(circuit):
    """The scan spec ``StroberCompiler`` attached; ValueError if none."""
    spec = getattr(circuit, "scan_spec", None)
    if spec is None or not is_fame1(circuit):
        raise ValueError(
            f"circuit {circuit.name!r} is not a compiled simulator "
            "circuit: build it with StroberCompiler(build_fn).compile() "
            "and pass the output's simulator_circuit")
    return spec


class Endpoint:
    """Host-side model servicing some of the target's I/O channels.

    Subclasses implement :meth:`tick`, which receives the target's output
    token from the previous target cycle and returns the input token
    (a dict of port values) for the next one.  An endpoint that is
    usually idle also implements :meth:`quiet` and :meth:`skip`, so the
    simulator can step the target through its idle stretches without a
    tick per cycle.
    """

    def tick(self, outputs):
        raise NotImplementedError

    def quiet(self, outputs):
        """Promise the ticks of a quiet stretch, or None to be ticked.

        ``outputs`` is what the next :meth:`tick` would receive.  A
        promise ``(token, wake_outputs, max_cycles)`` says: for up to
        ``max_cycles`` cycles (``None``: no bound) in which none of the
        output ports named in ``wake_outputs`` is nonzero, :meth:`tick`
        would return ``token`` and change no state except what
        ``skip(n)`` applies.  The default promises nothing, so the
        endpoint is ticked every cycle.
        """
        return None

    def skip(self, n):
        """Apply the state change of ``n`` cycles of a :meth:`quiet`
        promise."""

    def reset(self):
        """Called when the simulation (re)starts."""


class ConstantEndpoint(Endpoint):
    """Drives fixed values; useful for tying off unused inputs."""

    def __init__(self, values):
        self._values = dict(values)

    def tick(self, outputs):
        return self._values


class SimulationStats:
    """Cycle and wall-clock accounting for one simulation run."""

    def __init__(self):
        self.target_cycles = 0
        self.host_cycles = 0
        self.snapshot_host_cycles = 0
        self.io_stall_host_cycles = 0
        self.record_count = 0
        self.wall_seconds = 0.0
        self.snapshot_wall_seconds = 0.0

    def as_dict(self):
        return dict(self.__dict__)

    def simulated_rate_hz(self, host_freq_hz):
        """Modeled target rate given an FPGA host frequency."""
        if self.host_cycles == 0:
            return 0.0
        return host_freq_hz * self.target_cycles / self.host_cycles


class Fame1Simulator:
    """Run a FAME1-transformed circuit against host endpoints.

    Args:
        circuit: a ``StroberCompiler`` output's ``simulator_circuit``
            (a plain circuit raises ``ValueError``).
        endpoints: list of :class:`Endpoint` whose ticks collectively
            drive every target input port.
        replay_length: L, the snapshot replay window in target cycles.
        sample_size: reservoir size n (None disables sampling).
        host_freq_hz: modeled FPGA host clock for time estimates.
        io_stall_period / io_stall_cycles: host/target communication
            overhead model.
    """

    def __init__(self, circuit, endpoints, replay_length=128,
                 sample_size=None, seed=0, backend="auto",
                 host_freq_hz=50e6, io_stall_period=256, io_stall_cycles=16,
                 sim=None):
        self.scan_spec = compiled_scan_spec(circuit)
        self.circuit = circuit
        self.endpoints = list(endpoints)
        self.replay_length = replay_length
        self.sample_size = sample_size
        # host cycles one state readout charges (Trec), fixed per circuit
        self._readout_cycles = self.scan_spec.readout_cycles()
        self.host_freq_hz = host_freq_hz
        self.io_stall_period = io_stall_period
        self.io_stall_cycles = io_stall_cycles
        if sim is not None:
            # Reusing a compiled simulator across runs: clear all state
            # (including cache tag/data memories) for a clean boot.
            self.sim = sim
            self.sim.reset(clear_mems=True)
        else:
            self.sim = make_simulator(circuit, backend=backend)
        self.sim.poke(HOST_ENABLE, 1)
        self.stats = SimulationStats()
        self.sampler = (ReservoirSampler(sample_size, seed=seed)
                        if sample_size else None)
        self._pending = []          # snapshots still recording their window
        # Trace columns: every input but the host enable, every output,
        # in circuit order (the live simulator vectors' order).
        ports = [(i, node.name, node.width)
                 for i, node in enumerate(circuit.inputs)
                 if node.name != HOST_ENABLE]
        self._in_cols = np.array([i for i, _, _ in ports], dtype=np.int64)
        self._trace_layout = TraceLayout(
            [(name, width) for _, name, width in ports],
            [(name, driver.width) for name, driver in circuit.outputs])
        self._out_index = {name: i
                           for i, (name, _) in enumerate(circuit.outputs)}
        # output rows of one step, for the pending snapshots (a step
        # never crosses a replay window boundary) and the full I/O trace
        self._rows = np.zeros((replay_length, len(circuit.outputs)),
                              dtype=np.uint64)
        self._last_outputs = {}
        self.record_full_io = False
        # full_io_trace: the first _full_cycles rows of these
        self._full_inputs = np.empty((0, len(ports)),
                                     self._trace_layout.input_dtype)
        self._full_outputs = np.empty((0, len(circuit.outputs)),
                                      self._trace_layout.output_dtype)
        self._full_cycles = 0
        # how run() spent the target cycles: one step_target call each,
        # or inside quiet segments
        self.python_cycles = 0
        self.quiet_segments = 0
        self.quiet_cycles = 0
        for endpoint in self.endpoints:
            endpoint.reset()

    # -- core loop -----------------------------------------------------------

    def _capture_snapshot(self):
        """Scan out the full RTL state (charges Trec host cycles)."""
        t0 = time.perf_counter()
        state = self.sim.snapshot()
        snapshot = ReplayableSnapshot(
            cycle=self.stats.target_cycles,
            state=state,
            replay_length=self.replay_length,
            layout=self._trace_layout,
            perf_counters=self._last_outputs,
        )
        self.stats.snapshot_host_cycles += self._readout_cycles
        self.stats.host_cycles += self._readout_cycles
        self.stats.record_count += 1
        elapsed = time.perf_counter() - t0
        self.stats.snapshot_wall_seconds += elapsed
        self._pending.append(snapshot)
        return snapshot

    def _advance(self, inputs, limit, wake):
        """Poke ``inputs`` and step the target up to ``limit`` cycles.

        The step ends early before a cycle in which an output indexed
        in ``wake`` is nonzero, and at the next replay window boundary,
        so a capture still follows its cycle.  Every stepped cycle's
        I/O rows go to the pending snapshots and the full I/O trace,
        its host time to ``self.stats``.  Returns the cycles stepped.
        """
        stats = self.stats
        if self.sampler is not None:
            limit = min(limit, self.replay_length
                        - stats.target_cycles % self.replay_length)
        rows = None
        if self._pending or self.record_full_io:
            rows = self._rows
            limit = min(limit, len(rows))
        sim = self.sim
        sim.poke_all(inputs)
        k = sim.step(limit, wake, rows)
        if k == 0:
            # a wake output already raised in the live vector (a reused
            # simulator's last outputs before the first cycle of a run)
            return 0
        self._last_outputs = sim.peek_all()

        if rows is not None:
            # The input row is the simulator's live vector: an undriven
            # port holds the value the RTL saw there, so replay poking
            # every column reproduces it.
            in_row = np.asarray(sim.input_values(),
                                dtype=np.uint64)[self._in_cols]
            out_rows = rows[:k]
            for snapshot in self._pending:
                snapshot.record_cycle(in_row, out_rows)
            if self._pending and self._pending[0].complete:
                self._pending = [s for s in self._pending
                                 if not s.complete]
            if self.record_full_io:
                self._record_full(in_row, out_rows)

        before = stats.target_cycles
        stats.target_cycles += k
        stats.host_cycles += k
        if self.io_stall_period:
            stalls = (stats.target_cycles // self.io_stall_period
                      - before // self.io_stall_period)
            stats.host_cycles += stalls * self.io_stall_cycles
            stats.io_stall_host_cycles += stalls * self.io_stall_cycles
        if (self.sampler is not None
                and stats.target_cycles % self.replay_length == 0):
            self.sampler.offer(make_item=self._capture_snapshot)
        return k

    def _record_full(self, in_row, out_rows):
        """Append rows to the full I/O trace, doubling its matrices when
        they are full (64 Ki rows at first)."""
        n, k = self._full_cycles, len(out_rows)
        if n + k > len(self._full_inputs):
            size = max(2 * n + k, 1 << 16)
            self._full_inputs, self._full_outputs = (
                _grown(m, n, size)
                for m in (self._full_inputs, self._full_outputs))
        self._full_inputs[n:n + k] = in_row
        self._full_outputs[n:n + k] = out_rows
        self._full_cycles = n + k

    def step_target(self):
        """Advance the target by exactly one cycle, ticking every
        endpoint."""
        inputs = {}
        for endpoint in self.endpoints:
            produced = endpoint.tick(self._last_outputs)
            if produced:
                inputs.update(produced)
        self._advance(inputs, 1, ())
        return self._last_outputs

    def _step_quiet(self, limit):
        """Run the next cycles as one quiet segment of at most ``limit``
        cycles, if every endpoint promises one (:meth:`Endpoint.quiet`).

        Returns the number of cycles stepped: 0 when some endpoint must
        be ticked this cycle.  The segment ends early on a wake output,
        at the end of an endpoint's promise, and wherever
        :meth:`_advance` ends a step.
        """
        inputs = {}
        wake = set()
        for endpoint in self.endpoints:
            promise = endpoint.quiet(self._last_outputs)
            if promise is None:
                return 0
            token, wake_outputs, bound = promise
            inputs.update(token)
            wake.update(wake_outputs)
            if bound is not None:
                limit = min(limit, bound)
        k = self._advance(inputs, limit, sorted(
            self._out_index[name] for name in wake
            if name in self._out_index))
        if k:
            for endpoint in self.endpoints:
                endpoint.skip(k)
            self.quiet_segments += 1
            self.quiet_cycles += k
        return k

    def run(self, max_cycles, stop_fn=None, progress_fn=None,
            progress_interval=None):
        """Run until ``stop_fn(outputs)`` is truthy or ``max_cycles``.

        A cycle in which some endpoint must be ticked runs through
        :meth:`step_target`; a stretch in which every endpoint is quiet
        runs as one :meth:`_step_quiet` segment, which also ends at each
        ``progress_interval`` boundary.  ``stop_fn`` is evaluated after
        every :meth:`step_target` cycle and at the end of every segment,
        so it may depend only on endpoint state or on outputs some
        endpoint wakes on (``htif.halted``, say): what it would see in
        the middle of a segment it must also see at the segment's end.

        Returns the final outputs dict.  Wall-clock time is accumulated
        into ``self.stats``.
        """
        t0 = time.perf_counter()
        stats = self.stats
        end = stats.target_cycles + max_cycles
        if progress_fn is None:
            progress_interval = None
        outputs = self._last_outputs
        while stats.target_cycles < end:
            limit = end - stats.target_cycles
            if progress_interval:
                limit = min(limit, progress_interval
                            - stats.target_cycles % progress_interval)
            if self._step_quiet(limit):
                outputs = self._last_outputs
            else:
                outputs = self.step_target()
                self.python_cycles += 1
            if stop_fn is not None and stop_fn(outputs):
                break
            if (progress_interval
                    and stats.target_cycles % progress_interval == 0):
                progress_fn(self)
        self.stats.wall_seconds += time.perf_counter() - t0
        return outputs

    # -- results ---------------------------------------------------------------

    @property
    def snapshots(self):
        """The reservoir contents, restricted to complete snapshots.

        Completed snapshots are sealed (integrity-checksummed) on the
        way out so any later corruption — in a worker pickle, the run
        journal, or a fault-injection campaign — is detected at replay.
        """
        if self.sampler is None:
            return []
        out = [s for s in self.sampler.sample if s.complete]
        for snapshot in out:
            if snapshot.checksum is None:
                snapshot.seal()
        return out

    @property
    def full_io_trace(self):
        """``(layout, inputs, outputs)``: the snapshots'
        :class:`TraceLayout` and the ``(cycles, inputs)`` / ``(cycles,
        outputs)`` matrices recorded with ``record_full_io``."""
        n = self._full_cycles
        return (self._trace_layout, self._full_inputs[:n],
                self._full_outputs[:n])

    def sampling_overhead_seconds(self):
        return self.stats.snapshot_wall_seconds

    def modeled_sim_seconds(self):
        """Host wall time predicted by the Section IV-E model."""
        return self.stats.host_cycles / self.host_freq_hz
