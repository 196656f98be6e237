"""Native batched gate-level replay: one netlist-agnostic C kernel.

The interpreted :class:`~repro.gatelevel.gl_sim.BatchedGateLevelSimulator`
spends its cycle budget on per-group numpy dispatch and on the Python
glue around every cycle.  Backend ``c`` moves the whole replay cycle
into native code without generating any per-design code:

* ``gl_kernel.c`` (package data) is one fixed C translation unit that
  interprets a levelized netlist from flat op arrays — per level, the
  cell-kind groups of out/in0/in1/in2 net indices and the SRAM read
  ports; then write-port descriptors and the DFF d/q arrays.
  :meth:`CKernel.install` builds those arrays from the simulator's
  :class:`~repro.gatelevel.gl_sim.LevelizedSchedule` (itself cached on
  disk as ``glsched``), so a new netlist costs a few numpy
  concatenations, never a compiler run.
* The kernel evaluates directly on the simulator's numpy buffers (net
  values, toggle-counter arena, ``(lanes, depth)`` SRAM stores,
  read-address memos, access counters), and ``gl_run_cycles`` executes
  a whole replay batch — pokes, forces re-asserted after every level,
  checks, toggle planes, SRAM ports, DFF commit — as one foreign call
  that releases the GIL.  Toggles are counted first in four low
  counter planes (a per-simulator scratch buffer, skipping blocks of 8
  nets that did not change) and folded into the arena every 15 cycles
  and before the call returns, so the arena holds the same counts the
  interpreter's ripple add leaves.  Semantics match the interpreter bit
  for bit.
* ``gl_switching`` then reduces the toggle planes to every lane's
  per-group switching power in one pass (:meth:`CKernel.switching`),
  the switching term of :func:`~repro.gatelevel.power.analyze_power`
  with the same operation order, so per-net toggle counts never leave
  native code; ``gl_lane_add`` adds the clock and leakage terms to
  every lane in the same order (:meth:`CKernel.lane_add`).

The shared object is compiled once per host at fixed flags
(``-O2 -ffp-contract=off``) by
:func:`repro.native.load` and cached as a single ``glso`` entry keyed
by the C source text, the compiler's ``--version`` line and the flags,
so editing the kernel or changing toolchains rebuilds instead of
loading a stale object.

The fallback ladder is ``c -> interp``: with no C compiler an explicit
``c`` request degrades to the interpreter with a warning; ``auto``
degrades silently.  Every netlist the simulator accepts fits the kernel:
:func:`~repro.gatelevel.gl_sim.build_schedule` rejects SRAM words wider
than 64 bits and addresses wider than 62.
"""

from __future__ import annotations

import ctypes
import os
import time
from functools import lru_cache
from importlib import resources

import numpy as np

from .gl_sim import StimulusMismatch, _note_step_phases
from .. import native
from ..obs import get_tracer, get_registry

_ENV_BACKEND = "REPRO_GL_BACKEND"

BACKENDS = ("interp", "c", "auto")

# -ffp-contract=off: every floating-point operation of gl_switching is
# rounded on its own, as numpy rounds them (no fused multiply-add).
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: Cell kind -> opcode; must match the enum in ``gl_kernel.c``.
_CELL_KINDS = {cell: i for i, cell in enumerate(
    ("INV", "BUF", "AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2",
     "MUX2"))}

#: Toggle-counter block size and low-plane count; must match ``BLOCK``
#: and ``LOW_PLANES`` in ``gl_kernel.c``.
_TOGGLE_BLOCK = 8
_LOW_PLANES = 4


class GLCodegenError(Exception):
    pass


def resolve_backend(backend=None):
    """Normalize a backend request: explicit arg > env var > auto.

    ``auto`` is resolved by :func:`build_kernel`: the C kernel where a
    compiler exists, the interpreter where none does.
    """
    value = backend or os.environ.get(_ENV_BACKEND) or "auto"
    if value not in BACKENDS:
        raise GLCodegenError(
            f"unknown gate-level backend {value!r} "
            f"(choose from {', '.join(BACKENDS)})")
    return value


@lru_cache(maxsize=None)
def kernel_source():
    """Text of the packaged ``gl_kernel.c``."""
    return (resources.files(__package__)
            .joinpath("gl_kernel.c").read_text(encoding="utf-8"))


def kernel_cache_key():
    """The host-wide ``glso`` cache key: kernel source + cc version.

    Every netlist shares it.  Raises
    :class:`~repro.native.ToolchainUnavailable` when no working C
    compiler is found.
    """
    return native.cache_key(kernel_source(), _CFLAGS)


# -- the kernel ABI -----------------------------------------------------------

class _GlProg(ctypes.Structure):
    """Mirror of ``gl_prog``: one netlist's flat op arrays."""

    _fields_ = [
        ("n_nets", ctypes.c_int64),
        ("n_levels", ctypes.c_int64),
        ("levels", ctypes.c_void_p),
        ("groups", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
        ("in0", ctypes.c_void_p),
        ("in1", ctypes.c_void_p),
        ("in2", ctypes.c_void_p),
        ("rports", ctypes.c_void_p),
        ("rport_nets", ctypes.c_void_p),
        ("n_wports", ctypes.c_int64),
        ("wports", ctypes.c_void_p),
        ("wport_nets", ctypes.c_void_p),
        ("n_dff", ctypes.c_int64),
        ("dff_d", ctypes.c_void_p),
        ("dff_q", ctypes.c_void_p),
    ]


class _GlForces(ctypes.Structure):
    """Mirror of ``gl_forces`` (lane-masked net forces)."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("nets", ctypes.c_void_p),
        ("masks", ctypes.c_void_p),
        ("vals", ctypes.c_void_p),
    ]


class _GlState(ctypes.Structure):
    """Mirror of ``gl_state`` (live sim buffers)."""

    _fields_ = [
        ("V", ctypes.c_void_p),
        ("PREV", ctypes.c_void_p),
        ("PLANES", ctypes.c_void_p),
        ("planes_cap", ctypes.c_int64),
        ("planes_used", ctypes.c_void_p),
        ("LOW", ctypes.c_void_p),
        ("dirty", ctypes.c_void_p),
        ("stores", ctypes.c_void_p),
        ("lasts", ctypes.c_void_p),
        ("reads", ctypes.c_void_p),
        ("writes", ctypes.c_void_p),
        ("dff_tmp", ctypes.c_void_p),
        ("lanes", ctypes.c_int64),
        ("active_mask", ctypes.c_uint64),
    ]


class _GlRun(ctypes.Structure):
    """Mirror of ``gl_run`` (packed stimulus)."""

    _fields_ = [
        ("n_cycles", ctypes.c_int64),
        ("poke_counts", ctypes.c_void_p),
        ("poke_masks", ctypes.c_void_p),
        ("poke_off", ctypes.c_void_p),
        ("poke_cnt", ctypes.c_void_p),
        ("poke_nets", ctypes.c_void_p),
        ("poke_words", ctypes.c_void_p),
        ("check_counts", ctypes.c_void_p),
        ("check_masks", ctypes.c_void_p),
        ("check_off", ctypes.c_void_p),
        ("check_cnt", ctypes.c_void_p),
        ("check_nets", ctypes.c_void_p),
        ("check_words", ctypes.c_void_p),
        ("force_counts", ctypes.c_void_p),
        ("force_off", ctypes.c_void_p),
        ("force_nets", ctypes.c_void_p),
        ("force_masks", ctypes.c_void_p),
        ("force_vals", ctypes.c_void_p),
        ("ambient", ctypes.c_void_p),
        ("strict", ctypes.c_int64),
        ("mismatches", ctypes.c_void_p),
        ("stop", ctypes.c_void_p),
        ("phase_ns", ctypes.c_void_p),
    ]


def _data_ptr(arr):
    """Raw data pointer of a numpy array, or 0 for ``None``."""
    return arr.ctypes.data if arr is not None else 0


def _forces(sim):
    """``gl_forces`` view of the simulator's ambient forces."""
    if sim._force_nets is None:
        return _GlForces()
    return _GlForces(len(sim._force_nets), sim._force_nets.ctypes.data,
                     sim._force_masks.ctypes.data,
                     sim._force_vals.ctypes.data)


def _rows(rows, cols):
    return np.array(rows, dtype=np.int64).reshape(-1, cols)


def _build_program(netlist, schedule):
    """The ``gl_prog`` op arrays for one netlist; returns the struct
    and the numpy arrays it points into (keep those alive with it)."""
    levels, groups, rports, rport_nets = [], [], [], []
    operands = ([], [], [], [])
    none = np.zeros(0, dtype=np.int64)
    n_gates = 0
    for level_groups, rams in schedule.levels:
        g_lo, r_lo = len(groups), len(rports)
        for cell, outs, in0, in1, in2 in level_groups:
            groups.append((_CELL_KINDS[cell], n_gates, n_gates + len(outs)))
            n_gates += len(outs)
            for column, arr in zip(operands, (outs, in0, in1, in2)):
                column.append(arr if arr is not None
                              else np.zeros(len(outs), dtype=np.int64))
        for macro_idx, port_idx in rams:
            addr, _w, data = schedule.ram_ports[macro_idx][port_idx]
            off = len(rport_nets)
            rports.append((macro_idx, netlist.srams[macro_idx].depth,
                           off, len(addr), off + len(addr), len(data)))
            rport_nets.extend(addr.tolist() + data.tolist())
        levels.append((g_lo, len(groups), r_lo, len(rports)))
    wports, wport_nets = [], []
    for macro_idx, macro in enumerate(netlist.srams):
        for en, addr, data in macro.write_ports:
            off = len(wport_nets)
            wports.append((macro_idx, macro.depth, en, off, len(addr),
                           off + len(addr), len(data)))
            wport_nets.extend(list(addr) + list(data))
    n_dff = len(netlist.dffs)
    arrays = {
        "levels": _rows(levels, 4),
        "groups": _rows(groups, 3),
        "rports": _rows(rports, 6),
        "rport_nets": np.array(rport_nets, dtype=np.int64),
        "wports": _rows(wports, 7),
        "wport_nets": np.array(wport_nets, dtype=np.int64),
        "dff_d": np.ascontiguousarray(schedule.dff_d[:n_dff]),
        "dff_q": np.ascontiguousarray(schedule.dff_q[:n_dff]),
    }
    for name, column in zip(("out", "in0", "in1", "in2"), operands):
        arrays[name] = np.concatenate(column + [none]).astype(np.int32)
    prog = _GlProg(n_nets=netlist.n_nets, n_levels=len(levels),
                   n_wports=len(wports), n_dff=n_dff,
                   **{name: arr.ctypes.data
                      for name, arr in arrays.items()})
    return prog, arrays


class CKernel:
    """The gcc+ctypes whole-cycle evaluator (backend ``c``).

    One loaded ``gl_kernel.so`` serves every simulator of every netlist
    in the process.  :meth:`install` binds a simulator's per-netlist op
    arrays and long-lived pointer tables once; buffers the simulator is
    allowed to *rebind* (``_prev`` on ``clear_activity``, the toggle
    arena on growth) are re-read per call in :meth:`run_cycles`, which
    executes an entire replay batch as one foreign call that releases
    the GIL (ctypes drops it around every ``CDLL`` call).
    """

    backend = "c"

    def __init__(self, lib, compile_seconds=0.0, from_cache=False):
        self._lib = lib                    # keep the CDLL alive
        self._eval = lib.gl_eval
        self._run = lib.gl_run_cycles
        self._switching = lib.gl_switching
        self._lane_add = lib.gl_lane_add
        self.compile_seconds = compile_seconds
        self.from_cache = from_cache

    def install(self, sim):
        sim._gl_prog, sim._gl_prog_arrays = _build_program(
            sim.netlist, sim.schedule)
        n_srams = len(sim.netlist.srams)
        stores = (ctypes.c_void_p * max(n_srams, 1))()
        for i, store in enumerate(sim._sram_data):
            stores[i] = store.ctypes.data
        port_memos = []
        for _groups, rams in sim.schedule.levels:
            port_memos.extend(sim._last_addrs[m][p] for m, p in rams)
        lasts = (ctypes.c_void_p * max(len(port_memos), 1))()
        for i, memo in enumerate(port_memos):
            lasts[i] = memo.ctypes.data
        sim._gl_c_args = (stores, lasts)
        # keep the memo arrays reachable while the pointer table lives
        sim._gl_c_memos = port_memos
        # per-simulator DFF gather scratch: commit must read every D
        # before scattering to Q (aliasing), and it cannot live in the
        # .so because one library serves many sims on many threads
        sim._gl_dff_tmp = np.zeros(
            max(len(sim.netlist.dffs), 1), dtype=np.uint64)
        # per-simulator low toggle-counter planes and per-block dirty
        # flags (blocks of 8 nets); the kernel leaves both zeroed
        blocks = -(-sim.netlist.n_nets // _TOGGLE_BLOCK)
        sim._gl_low = np.zeros(blocks * _LOW_PLANES * _TOGGLE_BLOCK,
                               dtype=np.uint64)
        sim._gl_dirty = np.zeros(blocks, dtype=np.uint8)
        # a fold writes wide planes 0.._LOW_PLANES-1 unconditionally
        sim._grow_toggle_arena(_LOW_PLANES)

    def eval(self, sim):
        stores, lasts = sim._gl_c_args
        forces = _forces(sim)
        self._eval(ctypes.addressof(sim._gl_prog), sim._values.ctypes.data,
                   ctypes.addressof(forces), ctypes.addressof(stores),
                   ctypes.addressof(lasts), sim.sram_reads.ctypes.data,
                   sim.lanes)

    def run_cycles(self, sim, n, stim, strict, mismatches):
        """Run ``n`` cycles natively; returns committed-cycle count.

        Builds the ``gl_state`` view fresh per call (``_prev`` and the
        toggle arena may have been rebound since the last one), hands
        the packed stimulus' flat arrays to ``gl_run_cycles``, then
        syncs the plane count and cycle counter back and raises
        :class:`~repro.gatelevel.gl_sim.StimulusMismatch` on a strict
        stop.
        """
        stores, lasts = sim._gl_c_args
        arena = sim._toggle_arena
        buf = sim._plane_count_buf
        buf[0] = sim._plane_count
        state = _GlState(
            V=sim._values.ctypes.data,
            PREV=sim._prev.ctypes.data,
            PLANES=arena.ctypes.data,
            planes_cap=arena.shape[0],
            planes_used=buf.ctypes.data,
            LOW=sim._gl_low.ctypes.data,
            dirty=sim._gl_dirty.ctypes.data,
            stores=ctypes.addressof(stores),
            lasts=ctypes.addressof(lasts),
            reads=sim.sram_reads.ctypes.data,
            writes=sim.sram_writes.ctypes.data,
            dff_tmp=sim._gl_dff_tmp.ctypes.data,
            lanes=sim.lanes,
            active_mask=int(sim.active_mask))
        flat = stim.flat if stim is not None else None
        stop = np.full(3, -1, dtype=np.int64)
        phase_ns = np.zeros(6, dtype=np.float64)
        run = _GlRun(
            n_cycles=n,
            strict=1 if strict else 0,
            mismatches=mismatches.ctypes.data,
            stop=stop.ctypes.data,
            phase_ns=phase_ns.ctypes.data)
        if flat is not None:
            for name in ("poke_counts", "poke_masks", "poke_off",
                         "poke_cnt", "poke_nets", "poke_words",
                         "check_counts", "check_masks", "check_off",
                         "check_cnt", "check_nets", "check_words"):
                setattr(run, name, _data_ptr(flat[name]))
        if flat is not None and flat["force_counts"] is not None:
            for name in ("force_counts", "force_off", "force_nets",
                         "force_masks", "force_vals"):
                setattr(run, name, _data_ptr(flat[name]))
        ambient = _forces(sim)
        run.ambient = ctypes.addressof(ambient)
        # the flat dict, ambient struct and force arrays stay referenced
        # by locals / the sim for the call, keeping pointers valid
        done = int(self._run(ctypes.addressof(sim._gl_prog),
                             ctypes.byref(state), ctypes.byref(run)))
        sim._plane_count = int(buf[0])
        sim.cycles += done
        _note_step_phases(phase_ns / 1e9, done)
        if done < n:
            t, op, lane = (int(x) for x in stop)
            raise StimulusMismatch(t, stim.check_meta[op][1], lane)
        return done

    def switching(self, sim, net_cap, switch_slot, n_slots, io_slot,
                  vdd2, seconds):
        """Every lane's switching power from ``sim``'s toggle planes.

        ``net_cap`` (float64) and ``switch_slot`` (int64) are per net.
        Returns ``(acc, switching_w, toggles, io_touched)``: a
        group-major ``(n_slots, lanes)`` matrix of switching watts, and
        per lane the switching total, the total toggle count and
        whether a net of group ``io_slot`` switched.
        """
        lanes = sim.lanes
        acc = np.zeros((n_slots, lanes))
        switching_w = np.zeros(lanes)
        toggles = np.zeros(lanes, dtype=np.int64)
        io_touched = np.zeros(lanes, dtype=np.int64)
        self._switching(
            sim._toggle_arena.ctypes.data, sim._plane_count,
            sim.netlist.n_nets, lanes, net_cap.ctypes.data,
            switch_slot.ctypes.data, io_slot, vdd2, seconds,
            acc.ctypes.data, switching_w.ctypes.data, toggles.ctypes.data,
            io_touched.ctypes.data)
        return acc, switching_w, toggles, io_touched.astype(bool)

    def lane_add(self, acc, slots, vals):
        """``np.add.at(acc[:, lane], slots, vals)`` for every lane of
        the group-major float64 matrix ``acc``, in place; int64
        ``slots`` and float64 ``vals`` are contiguous."""
        self._lane_add(acc.ctypes.data, acc.shape[1], slots.ctypes.data,
                       vals.ctypes.data, len(vals))


# -- compilation + artifact cache -------------------------------------------

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

# (symbol, argtypes, restype) of the kernel's entry points
_EXPORTS = (
    ("gl_eval", [_PTR] * 6 + [_I64], None),
    ("gl_run_cycles", [_PTR, ctypes.POINTER(_GlState),
                       ctypes.POINTER(_GlRun)], _I64),
    ("gl_switching", [_PTR, _I64, _I64, _I64, _PTR, _PTR, _I64, _F64,
                      _F64, _PTR, _PTR, _PTR, _PTR], None),
    ("gl_lane_add", [_PTR, _I64, _PTR, _PTR, _I64], None),
)


def compile_c_kernel(use_cache=True):
    """Build (or load from the ``glso`` cache entry) the C kernel.

    Raises :class:`~repro.native.ToolchainUnavailable` only when no
    working C compiler can be found.
    """
    t0 = time.perf_counter()
    lib, from_cache = native.load("glso", kernel_source(), _CFLAGS,
                                  _EXPORTS, use_cache=use_cache)
    seconds = time.perf_counter() - t0
    registry = get_registry()
    registry.counter("glcodegen.compile_seconds").inc(float(seconds))
    registry.counter("glcodegen.builds").inc()
    if from_cache:
        registry.counter("glcodegen.cache_loads").inc()
    get_tracer().instant("glcodegen.kernel", cat="flow", backend="c",
                         seconds=seconds, from_cache=from_cache)
    return CKernel(lib, compile_seconds=seconds, from_cache=from_cache)


def build_kernel(backend, use_cache=True):
    """The evaluation kernel for ``backend``; None means interpret.

    Implements the fallback ladder ``c -> interp``: when no C compiler
    is available, an explicit ``c`` request degrades to the interpreter
    (one warning + a counter) and ``auto`` degrades silently.  The
    kernel is netlist-agnostic, so one serves every simulator.
    """
    backend = resolve_backend(backend)
    if backend == "interp":
        return None
    with get_tracer().span("glcodegen.build", cat="flow",
                           backend=backend) as span:
        try:
            kernel = compile_c_kernel(use_cache=use_cache)
        except native.ToolchainUnavailable as exc:
            native.note_fallback("glcodegen", backend, exc, "replay",
                                 "interpreted evaluator")
            span.set(backend_used="interp")
            return None
        span.set(backend_used="c", from_cache=kernel.from_cache)
        return kernel
