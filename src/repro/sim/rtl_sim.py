"""Cycle-accurate RTL simulator over compiled circuits.

This is the "fast simulator" half of the Strober methodology: it plays
the role of the FPGA-hosted design (Section IV-B) and is also reused as
the reference model when validating gate-level replays.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..hdl.ir import mask
from ..native import ToolchainUnavailable, note_fallback
from .compiler import compile_circuit_cached
from .state import SimState, SimStateError, mem_dtype, name_order


class RTLSimulator:
    """Drive a circuit cycle by cycle with poke/peek/step.

    ``step`` semantics: outputs observed via ``peek`` after a step are the
    values computed from the inputs poked for that cycle, sampled just
    before the clock edge.
    """

    def __init__(self, circuit, backend="python"):
        self.circuit = circuit
        self.backend = backend
        if backend == "c":
            from .cbackend import compile_circuit_c, CRegProxy, CMemProxy
            self._cycle, self._layout = compile_circuit_c(circuit)
            self._lib = lib = self._cycle.lib
            self._regs = CRegProxy(lib, len(circuit.regs))
            self._mems = [CMemProxy(lib, i, mem.depth, mem.width)
                          for i, mem in enumerate(circuit.mems)]
            # the live vectors are the C calls' own buffers
            self._in = (ctypes.c_uint64 * len(circuit.inputs))()
            self._out = (ctypes.c_uint64 * len(circuit.outputs))()
        else:
            self._cycle, self._layout = compile_circuit_cached(circuit)
            self._lib = None
            self._regs = [0] * len(circuit.regs)
            self._mems = [[0] * mem.depth for mem in circuit.mems]
            self._in = [0] * len(circuit.inputs)
            self._out = [0] * len(circuit.outputs)
        self._in_widths = [node.width for node in circuit.inputs]
        self._reg_list = list(circuit.regs)
        self._mem_list = list(circuit.mems)
        self._reg_inits = np.array([reg.init for reg in self._reg_list],
                                   dtype=np.uint64)
        #: the register order of every :class:`SimState` this captures
        self.reg_order = name_order(reg.path for reg in self._reg_list)
        # the last row buffer step() wrote and its address: a caller
        # passes the same buffer every step, and ``ctypes.data`` costs
        # about as much as a cycle
        self._rows = self._rows_addr = None
        self.cycle = 0
        self.reset()

    # -- state -------------------------------------------------------------

    def _set_regs(self, values):
        if self.backend == "c":
            self._regs.bulk_set(values)
        else:
            self._regs[:] = values.tolist()

    def _write_mem(self, i, words, offset=0):
        if self.backend == "c":
            self._mems[i].write(words, offset)
        else:
            self._mems[i][offset:offset + len(words)] = words.tolist()

    def reset(self, clear_mems=False):
        """Apply register reset values; memories are preserved by default."""
        self._set_regs(self._reg_inits)
        if clear_mems:
            for i, mem in enumerate(self._mem_list):
                self._write_mem(i, np.zeros(mem.depth,
                                            dtype=mem_dtype(mem.width)))
        self.cycle = 0

    def snapshot(self):
        """Capture the complete architectural state.  The C backend
        copies the register file and every memory into one new buffer
        in one call; the state's arrays are views of it."""
        if self.backend == "c":
            buf = np.empty(self._layout["state_bytes"], dtype=np.uint8)
            self._lib.state_read(buf.ctypes.data)
            regs = buf[:8 * len(self._reg_list)].view(np.uint64)
            mems = {path: buf[lo:hi].view(dtype)
                    for path, lo, hi, dtype in self._layout["state_views"]}
        else:
            regs = np.array(self._regs, dtype=np.uint64)
            mems = {mem.path: np.array(words, dtype=mem_dtype(mem.width))
                    for mem, words in zip(self._mem_list, self._mems)}
        return SimState(regs, self.reg_order.fingerprint, mems, self.cycle)

    def load_snapshot(self, state):
        """Restore a state captured by :meth:`snapshot`."""
        if state.reg_order == self.reg_order.fingerprint:
            values = state.reg_values
        else:
            # captured on another elaboration: match registers by path
            index = {path: i for i, path in enumerate(state.reg_paths)}
            missing = [reg.path for reg in self._reg_list
                       if reg.path not in index]
            if missing:
                raise SimStateError(
                    f"snapshot missing register {missing[0]}")
            values = state.reg_values[[index[reg.path]
                                       for reg in self._reg_list]]
        for mem in self._mem_list:
            words = state.mems.get(mem.path)
            if words is None:
                raise SimStateError(f"snapshot missing memory {mem.path}")
            if len(words) != mem.depth:
                raise SimStateError(f"memory {mem.path} size mismatch")
        self._set_regs(values)
        for i, mem in enumerate(self._mem_list):
            self._write_mem(i, state.mems[mem.path])
        self.cycle = state.cycle

    def input_values(self):
        """The live input vector (circuit input order) as last poked."""
        return self._in

    def output_values(self):
        """The live output vector (circuit output order) of the last
        eval/step."""
        return self._out

    # -- I/O -----------------------------------------------------------------

    def poke(self, name, value):
        idx = self._layout["in_index"][name]
        self._in[idx] = value & mask(self._in_widths[idx])

    def peek(self, name):
        return int(self._out[self._layout["out_index"][name]])

    def peek_all(self):
        return {name: int(self._out[i])
                for name, i in self._layout["out_index"].items()}

    def poke_all(self, values):
        for name, value in values.items():
            self.poke(name, value)

    def eval(self):
        """Settle combinational logic without a clock edge."""
        self._cycle(self._in, self._out, self._regs, self._mems, False)

    def step(self, n=1, wake=(), rows=None):
        """Advance up to ``n`` clock cycles with the currently poked inputs.

        Before each cycle, stop if the live output vector is nonzero at
        any output index in ``wake``.  With ``rows``, a C-contiguous
        ``uint64`` array of at least ``n`` rows by one column per output,
        write each stepped cycle's outputs to the next row.  Returns the
        number of cycles stepped.
        """
        if rows is not None and (
                rows.dtype != np.uint64 or not rows.flags.c_contiguous
                or rows.ndim != 2 or rows.shape[0] < n
                or rows.shape[1] != len(self._out)):
            raise ValueError(
                f"rows must be a C-contiguous uint64 array of at least "
                f"({n}, {len(self._out)}), not {rows.dtype} {rows.shape}")
        if wake and not all(0 <= w < len(self._out) for w in wake):
            raise ValueError(f"wake index out of range: {list(wake)}")
        if self._lib is not None:
            if rows is not None and rows is not self._rows:
                self._rows, self._rows_addr = rows, rows.ctypes.data
            stepped = self._lib.run_quiet(
                self._in, self._out, n,
                (ctypes.c_int64 * len(wake))(*wake) if wake else None,
                len(wake), None if rows is None else self._rows_addr)
        else:
            cycle_fn = self._cycle
            inp, out, regs, mems = (self._in, self._out, self._regs,
                                    self._mems)
            stepped = 0
            while stepped < n:
                if wake and any(out[w] for w in wake):
                    break
                cycle_fn(inp, out, regs, mems, True)
                if rows is not None:
                    rows[stepped] = out
                stepped += 1
        self.cycle += stepped
        return stepped

    # -- introspection --------------------------------------------------------

    def peek_reg(self, path):
        idx = self._layout["reg_index"][path]
        return int(self._regs[idx])

    def poke_reg(self, path, value):
        idx = self._layout["reg_index"][path]
        self._regs[idx] = value & mask(self._reg_list[idx].width)

    def read_mem(self, path, addr):
        idx = self._layout["mem_index"][path]
        return int(self._mems[idx][addr])

    def write_mem(self, path, addr, value):
        idx = self._layout["mem_index"][path]
        self._mems[idx][addr] = value & mask(self._mem_list[idx].width)

    def load_mem(self, path, values, offset=0):
        """Bulk-initialize a memory (e.g. a program image)."""
        idx = self._layout["mem_index"][path]
        m = mask(self._mem_list[idx].width)
        self._write_mem(idx, np.array([value & m for value in values],
                                      dtype=mem_dtype(
                                          self._mem_list[idx].width)),
                        offset)

    def generated_source(self):
        return self._layout["source"]


def make_simulator(circuit, backend="auto"):
    """Build an RTLSimulator on ``backend`` (``c``, ``python`` or
    ``auto``).

    ``c`` and ``auto`` try the C backend and fall back to ``python``
    only when it cannot be built here
    (:class:`~repro.native.ToolchainUnavailable`): counted as
    ``sim.c_fallbacks``, and warned about once for an explicit ``c``.
    Any other error propagates.
    """
    if backend in ("c", "auto"):
        try:
            return RTLSimulator(circuit, backend="c")
        except ToolchainUnavailable as exc:
            note_fallback("sim", backend, exc, "RTL simulator",
                          "Python evaluator")
        backend = "python"
    return RTLSimulator(circuit, backend=backend)


__all__ = ["RTLSimulator", "SimState", "SimStateError", "make_simulator"]
