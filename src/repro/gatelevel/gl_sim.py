"""Gate-level simulation with switching-activity collection (VCS analog).

Levelized zero-delay simulation over the synthesized netlist.  Gates are
grouped by (level, cell) and evaluated with vectorized numpy ops; per-net
toggle counts (the SAIF input to power analysis) and SRAM access counts
are collected as the simulation runs.

Supports net *forcing* (the Verilog ``force`` used to warm up retimed
datapaths during replay, Section IV-C3) and direct DFF state loading via
the VPI-style bulk loader interface (Section IV-C2).

All simulation runs on :class:`BatchedGateLevelSimulator`, the
bit-parallel simulator: one ``uint64`` word per net with up to
:data:`MAX_LANES` independent simulations packed into the bit *lanes*.
Logic cells are lane-oblivious bitwise ops, so one netlist evaluation
advances every lane at once — the classic bit-parallel logic-simulation
trick, applied here to snapshot replay.  State loads, forces, and SRAM
ports are lane-masked; per-net x per-lane toggle counts are kept as
bit-sliced vertical counters (one ``uint64`` plane per count bit,
ripple-carry updated from the per-cycle XOR diff) so every lane still
yields its own exact SAIF.  :class:`GateLevelSimulator` is its one-lane
view with a lane-free API, for co-simulation and single-stimulus use.
The levelized schedule (:class:`LevelizedSchedule`) is picklable so the
artifact cache can persist it next to the ASIC flow.

SRAM words are at most 64 bits (the HDL's ``MemDecl`` allows no wider
word) and addresses at most 62: every lane's memory is one row of a
``(lanes, depth)`` ``uint64`` store, and :func:`build_schedule` rejects
a hand-built netlist with a wider macro instead of truncating it.

A whole replay trace reaches :meth:`BatchedGateLevelSimulator
.run_cycles` as one :class:`PackedStimulus`: flat numpy arrays of
lane-masked pokes, output checks and per-cycle force segments, the
layout the native kernel reads and the interpreter walks.  Replay
builds them in bulk (:func:`lane_ops` for a batch's I/O, one op per
cycle and port driving every lane; force segments for the retimed
warm-up); the per-cycle ``poke``/``eval``/``peek``/
``step`` methods remain for co-simulation and as the stepped reference
that the whole-trace path is tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .netlist import CONST1
from ..obs import get_tracer, get_registry


class GateSimError(Exception):
    pass


class StimulusMismatch(GateSimError):
    """A strict :meth:`BatchedGateLevelSimulator.run_cycles` check failed.

    Raised at the first failing (cycle, check, lane) in ascending lane
    order, with the simulator's combinational state settled for the
    failing cycle but activity not yet counted and state not yet
    committed — exactly where the interpreted per-cycle loop would have
    stopped, so callers can peek live values for diagnostics.
    """

    def __init__(self, cycle, name, lane):
        super().__init__(
            f"stimulus check {name!r} failed at cycle {cycle}, "
            f"lane {lane}")
        self.cycle = cycle
        self.name = name
        self.lane = lane


#: Snapshots per uint64 word in the batched simulator.
MAX_LANES = 64

#: Bump when LevelizedSchedule's layout changes (cache invalidation).
SCHEDULE_VERSION = 1

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)


@dataclass
class LevelizedSchedule:
    """Topologically levelized evaluation schedule for one netlist.

    Everything :meth:`build_schedule` derives from a
    :class:`~repro.gatelevel.netlist.GateNetlist` that is pure structure:
    level groups with per-cell index arrays, DFF index arrays, read-port
    address/data arrays, and the name->index tables.  It is picklable as
    a unit so the on-disk artifact cache can store it next to the
    ``AsicFlow`` — replay worker processes then skip re-levelizing the
    netlist at start-up (``build_seconds`` records what a hit saves).
    Simulators treat every array as read-only, so one schedule is safely
    shared by any number of simulators in one process.
    """

    version: int
    depth: int
    levels: list          # [(groups, rams)]; groups: (cell,outs,in0,in1,in2)
    dff_d: np.ndarray     # data-input net per DFF
    dff_q: np.ndarray     # output net per DFF
    dff_init: np.ndarray  # reset value bit per DFF
    dff_index: dict       # DFF name -> index
    ram_ports: list       # per macro: [(addr_arr, addr_weights, data_arr)]
    sram_index: dict      # macro name -> index
    build_seconds: float = 0.0


def build_schedule(netlist):
    """Levelize ``netlist`` into a reusable :class:`LevelizedSchedule`."""
    with get_tracer().span("glsim.levelize", cat="flow",
                           nets=netlist.n_nets,
                           gates=len(netlist.gates)) as span:
        schedule = _build_schedule(netlist)
        span.set(depth=schedule.depth)
    return schedule


def _build_schedule(netlist):
    t0 = time.perf_counter()
    for macro in netlist.srams:
        ports = ([(a, d) for _en, a, d in macro.write_ports]
                 + list(macro.read_ports))
        if macro.width > 64 or any(len(a) > 62 or len(d) > 64
                                   for a, d in ports):
            raise GateSimError(
                f"SRAM macro {macro.name!r} is {macro.width} bits wide; "
                f"gate-level simulation holds one uint64 word per entry "
                f"and at most 62 address bits")
    level_of = np.zeros(netlist.n_nets, dtype=np.int32)

    producers = []
    for gate in netlist.gates:
        producers.append((gate.output, "gate", gate))
    for macro_idx, macro in enumerate(netlist.srams):
        for port_idx, (addr, data) in enumerate(macro.read_ports):
            key = min(data) if data else 0
            producers.append((key, "ram", (macro_idx, port_idx)))
    producers.sort(key=lambda item: item[0])

    schedule = {}  # level -> {"gates": {cell: [...]}, "rams": [...]}

    def at_level(level):
        return schedule.setdefault(level, {"gates": {}, "rams": []})

    for _, kind, payload in producers:
        if kind == "gate":
            gate = payload
            level = 1 + max((level_of[n] for n in gate.inputs),
                            default=0)
            level_of[gate.output] = level
            at_level(level)["gates"].setdefault(gate.cell, []).append(
                gate)
        else:
            macro_idx, port_idx = payload
            macro = netlist.srams[macro_idx]
            addr, data = macro.read_ports[port_idx]
            level = 1 + max((level_of[n] for n in addr), default=0)
            for n in data:
                level_of[n] = level
            at_level(level)["rams"].append((macro_idx, port_idx))

    depth = max(schedule) if schedule else 0
    levels = []
    for level in sorted(schedule):
        entry = schedule[level]
        groups = []
        for cell, gates in entry["gates"].items():
            outs = np.array([g.output for g in gates], dtype=np.int64)
            in0 = np.array([g.inputs[0] for g in gates], dtype=np.int64)
            in1 = (np.array([g.inputs[1] for g in gates],
                            dtype=np.int64)
                   if cell not in ("INV", "BUF") else None)
            in2 = (np.array([g.inputs[2] for g in gates],
                            dtype=np.int64)
                   if cell == "MUX2" else None)
            groups.append((cell, outs, in0, in1, in2))
        levels.append((groups, entry["rams"]))

    n_dff = max(len(netlist.dffs), 1)
    dff_d = np.zeros(n_dff, dtype=np.int64)
    dff_q = np.zeros(n_dff, dtype=np.int64)
    dff_init = np.zeros(n_dff, dtype=np.uint8)
    for i, dff in enumerate(netlist.dffs):
        dff_d[i] = dff.d
        dff_q[i] = dff.q
        dff_init[i] = dff.init
    # both simulators and the netlist itself share these name memos
    dff_index = netlist.dff_index()

    # precompute read-port bit weights for address assembly
    ram_ports = []
    for macro in netlist.srams:
        ports = []
        for addr, data in macro.read_ports:
            addr_arr = np.array(addr, dtype=np.int64)
            addr_w = np.array([1 << i for i in range(len(addr))],
                              dtype=np.int64)
            data_arr = np.array(data, dtype=np.int64)
            ports.append((addr_arr, addr_w, data_arr))
        ram_ports.append(ports)

    sram_index = netlist.sram_index()

    return LevelizedSchedule(
        version=SCHEDULE_VERSION, depth=depth, levels=levels,
        dff_d=dff_d, dff_q=dff_q, dff_init=dff_init, dff_index=dff_index,
        ram_ports=ram_ports, sram_index=sram_index,
        build_seconds=time.perf_counter() - t0)


def _check_schedule(schedule, netlist):
    if schedule is None:
        return build_schedule(netlist)
    if schedule.version != SCHEDULE_VERSION:
        raise GateSimError(
            f"levelized schedule version {schedule.version} does not match "
            f"this simulator (wants {SCHEDULE_VERSION})")
    return schedule


def pack_lane_words(values, nbits):
    """Pack per-lane integers into per-bit ``uint64`` lane words.

    ``values[lane]`` is an unsigned integer of at most 64 bits (a
    sequence or a ``uint64`` array) whose low ``nbits`` bits matter; the
    result is an array of ``nbits`` words where bit ``lane`` of word
    ``i`` equals bit ``i`` of ``values[lane]`` — the transpose between
    the scalar representation (one value per lane) and the bit-parallel
    one (one word per net).
    """
    if nbits > 64:
        raise GateSimError(f"{nbits}-bit lane values do not fit a word")
    vals = np.asarray(values, dtype=np.uint64)
    bit_ids = np.arange(nbits, dtype=np.uint64)
    lane_ids = np.arange(len(vals), dtype=np.uint64)
    bits = (vals[:, None] >> bit_ids[None, :]) & _ONE
    return np.bitwise_or.reduce(bits << lane_ids[:, None], axis=0)


def pack_lane_bits(bits):
    """Pack a ``(*shape, lanes)`` array of 0/1 into ``*shape`` lane words.

    Bit ``lane`` of each resulting ``uint64`` is ``bits[..., lane]`` -
    the whole-array form of :func:`pack_lane_words`, for callers that
    have already split values into bits.
    """
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1,
                         bitorder="little")
    words = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view("<u8")[..., 0].astype(np.uint64)


# Bytes of unpacked stimulus bits lane_ops holds at once.
_UNPACK_BYTES = 1 << 18


def lane_ops(values, port_nets):
    """Flat poke/check op arrays from per-lane port values.

    ``values`` is a ``(lanes, cycles, ports)`` unsigned array and
    ``port_nets[p]`` lists port ``p``'s nets, LSB first.  One op per
    (cycle, port) drives (or checks) every lane, in cycle-major,
    port-minor order.  Returns the ``counts/masks/off/cnt/nets/words``
    arrays of :attr:`PackedStimulus.flat` (unprefixed) plus each op's
    cycle and port index.
    """
    lanes, n_cycles, n_ports = values.shape
    widths = np.array([len(nets) for nets in port_nets], dtype=np.int64)
    top = int(widths.max()) if n_ports else 0
    # bits 0..top-1 of every value with lanes last, then packed across
    # lanes: words[cycle, port, bit].  A block of cycles at a time, so
    # the unpacked bits (8 bytes per value bit) stay small.
    by_lane = np.ascontiguousarray(values.transpose(1, 2, 0), dtype="<u8")
    raw = by_lane.view(np.uint8).reshape(n_cycles, n_ports, lanes, 8)
    nbytes = (top + 7) // 8
    step = max(1, _UNPACK_BYTES // max(1, n_ports * lanes * 8 * nbytes))
    words = np.zeros((n_cycles, n_ports, top), dtype=np.uint64)
    for c0 in range(0, n_cycles, step):
        bits = np.unpackbits(raw[c0:c0 + step, ..., :nbytes], axis=-1,
                             bitorder="little")[..., :top]
        words[c0:c0 + step] = pack_lane_bits(
            np.ascontiguousarray(bits.transpose(0, 1, 3, 2)))
    cycle, port = np.divmod(np.arange(n_cycles * n_ports), max(1, n_ports))
    cnt = widths[port]
    all_nets = np.array([net for nets in port_nets for net in nets],
                        dtype=np.int64)
    return {
        "counts": np.full(n_cycles, n_ports, dtype=np.int64),
        "masks": np.full(len(port), (1 << lanes) - 1, dtype=np.uint64),
        "off": np.cumsum(cnt) - cnt,
        "cnt": cnt,
        "nets": np.tile(all_nets, n_cycles),
        # bits 0..width-1 of each (cycle, port), port-major
        "words": words[:, np.arange(top) < widths[:, None]].reshape(-1),
    }, cycle, port


def _op_slices(flat, kind, op):
    """Net indices and words of flat poke/check op ``op``."""
    at = slice(flat[f"{kind}_off"][op],
               flat[f"{kind}_off"][op] + flat[f"{kind}_cnt"][op])
    return flat[f"{kind}_nets"][at], flat[f"{kind}_words"][at]


def _plan_nets(sim, plan):
    """The DFF output nets of a gather plan's ``dff_names``, cached per
    simulator (a plan outlives any one replay)."""
    nets = sim._plan_nets.get(plan)
    if nets is None:
        nets = np.empty(len(plan.dff_names), dtype=np.int64)
        for i, name in enumerate(plan.dff_names):
            idx = sim._dff_index.get(name)
            if idx is None:
                raise GateSimError(f"no DFF named {name!r}")
            nets[i] = sim.netlist.dffs[idx].q
        sim._plan_nets[plan] = nets
    return nets


#: Hot-loop phase names, in execution order, for ``glstep.*`` counters.
STEP_PHASES = ("stimulus", "eval", "check", "toggle", "sram", "commit")


def _note_step_phases(seconds, cycles):
    """Flush one run_cycles call's per-phase timings to the registry."""
    registry = get_registry()
    for name, spent in zip(STEP_PHASES, seconds):
        if spent > 0.0:
            registry.counter(f"glstep.{name}_seconds").inc(float(spent))
    registry.counter("glstep.cycles").inc(int(cycles))
    registry.counter("glstep.calls").inc()


def _no_ops(kind, n_cycles):
    """Flat ``kind`` (poke or check) arrays holding no op."""
    none = np.zeros(0, dtype=np.int64)
    return {f"{kind}_counts": np.zeros(n_cycles, dtype=np.int64),
            f"{kind}_masks": np.zeros(0, dtype=np.uint64),
            f"{kind}_off": none, f"{kind}_cnt": none,
            f"{kind}_nets": none,
            f"{kind}_words": np.zeros(0, dtype=np.uint64)}


class PackedStimulus:
    """A whole replay trace as the flat arrays that
    :meth:`~BatchedGateLevelSimulator.run_cycles` reads.

    :attr:`flat` holds everything ``n_cycles`` consecutive cycles do, in
    the layout of the C kernel's ``gl_run`` ABI; both backends read it:

    * **pokes** — lane-masked input scatters applied before eval:
      ``poke_counts`` ops per cycle, then per op its lane mask
      (``poke_masks``) and its slice (``poke_off``, ``poke_cnt``) of
      ``poke_nets``/``poke_words``;
    * **checks** — expected-output comparisons right after eval, in
      the same layout (``check_*``); mismatching lanes are counted (or
      raise :class:`StimulusMismatch` in strict mode), and
      ``check_meta[op]`` gives op ``op``'s ``(cycle, name)``;
    * **forces** — per-cycle force segments replacing the simulator's
      ambient forces: cycle ``t`` forces ``force_counts[t]`` nets from
      ``force_off[t]`` of ``force_nets``/``force_masks``/``force_vals``
      (pre-masked values; a zero count forces nothing that cycle).
      ``force_counts`` is ``None`` when the stimulus never forces, which
      leaves the ambient forces in effect.

    :func:`lane_ops` builds poke and check arrays from per-lane port
    values; :meth:`from_flat` builds a stimulus from any subset.
    """

    def __init__(self, n_cycles, flat, check_meta):
        self.n_cycles = n_cycles
        self.flat = flat
        self.check_meta = check_meta

    @classmethod
    def from_flat(cls, n_cycles, flat, check_meta=()):
        """A stimulus from :attr:`flat` arrays, where a missing kind
        holds no op (and missing forces leave the ambient ones)."""
        return cls(n_cycles, {**_no_ops("poke", n_cycles),
                              **_no_ops("check", n_cycles),
                              "force_counts": None, **flat}, check_meta)


class BatchedGateLevelSimulator:
    """Bit-parallel gate-level simulation: one snapshot per bit lane.

    Net values are ``uint64`` words whose bit *lanes* are up to 64
    independent simulations of the same netlist.  A logic cell is a
    lane-oblivious bitwise op (``AND2`` is one ``&`` across all lanes),
    so a single levelized evaluation advances every lane at once —
    per-gate evaluation overhead is amortized across the whole batch.

    Per lane:

    * DFF loads, input pokes, and net forces are lane-masked read-modify-
      write operations (``lane=None`` broadcasts to every lane);
    * SRAM macros hold per-lane contents; read/write ports loop per lane
      (addresses diverge between lanes) with per-lane access counters and
      per-(port, lane) read-address memos;
    * per-net toggle counts are kept per lane as bit-sliced *vertical
      counters*: plane ``i`` holds bit ``i`` of every lane's count, and
      each cycle's ``prev ^ cur`` diff word is ripple-carry added into
      the planes (the native kernel adds it into low planes that it
      folds in every 15 cycles and before it returns, to the same
      counts).  :meth:`activity` extracts any lane's exact SAIF;
      with the native kernel,
      :func:`~repro.gatelevel.power.analyze_power_lanes` reduces the
      planes to every lane's power without extracting them.

    ``backend`` selects the evaluation strategy: ``"interp"`` (this
    class's numpy loop) or ``"c"`` / ``"auto"`` (the native kernel from
    :mod:`~repro.gatelevel.glcodegen`, bit-identical by construction).
    A pre-built ``kernel`` can be passed instead so one kernel serves
    many simulators (the kernel is netlist- and lane-oblivious);
    :attr:`backend` reports the effective backend after fallback.
    """

    def __init__(self, netlist, lanes=MAX_LANES, schedule=None,
                 backend="interp", kernel=None):
        if not 1 <= lanes <= MAX_LANES:
            raise GateSimError(
                f"lanes must be in 1..{MAX_LANES}, got {lanes}")
        self.netlist = netlist
        self.lanes = lanes
        self.active_mask = (_ALL_ONES if lanes == MAX_LANES
                            else np.uint64((1 << lanes) - 1))
        self._lane_ids = np.arange(lanes, dtype=np.uint64)
        self.schedule = _check_schedule(schedule, netlist)
        self.depth = self.schedule.depth
        self._levels = self.schedule.levels
        self._dff_d = self.schedule.dff_d
        self._dff_q = self.schedule.dff_q
        self._dff_index = self.schedule.dff_index
        self._ram_ports = self.schedule.ram_ports
        self._sram_index = self.schedule.sram_index
        n_dff = len(netlist.dffs)
        self._dff_init_words = np.where(
            self.schedule.dff_init[:max(n_dff, 1)].astype(bool),
            _ALL_ONES, np.uint64(0))
        self._values = np.zeros(netlist.n_nets, dtype=np.uint64)
        self._values[CONST1] = _ALL_ONES
        self._prev = self._values.copy()
        self._forces = {}          # net -> [lane_mask, packed_bits]
        self._force_nets = None
        self._force_masks = None
        self._force_vals = None
        self.cycles = 0
        # Vertical toggle counters live in one preallocated C-visible
        # arena: row p is counter-bit plane p across every net (LSB
        # first).  ``_plane_count`` tracks how many rows are in use;
        # ``_plane_count_buf`` is its int64 mirror the native kernel
        # updates in place.
        self._toggle_arena = np.zeros((4, netlist.n_nets),
                                      dtype=np.uint64)
        self._plane_count = 0
        self._plane_count_buf = np.zeros(1, dtype=np.int64)
        n_srams = len(netlist.srams)
        self.sram_reads = np.zeros((n_srams, lanes), dtype=np.int64)
        self.sram_writes = np.zeros((n_srams, lanes), dtype=np.int64)
        # one (lanes, depth) uint64 store per macro, so read ports
        # gather all lanes in one fancy index
        self._sram_data = [np.zeros((lanes, macro.depth), dtype=np.uint64)
                           for macro in netlist.srams]
        self._lane_rows = np.arange(lanes)
        self._plan_nets = {}
        # per-(macro, port) last-read-address memo, -1 = never read;
        # preallocated int64 arrays so the C kernel can update
        # the memo (and sram_reads) in place through raw pointers
        self._last_addrs = [
            [np.full(lanes, -1, dtype=np.int64) for _ in macro.read_ports]
            for macro in netlist.srams]
        # per write port: (en, addr_arr, addr_w, data_arr, data_w)
        self._write_ports = []
        for macro in netlist.srams:
            ports = []
            for en, addr_nets, data_nets in macro.write_ports:
                addr_arr = np.array(addr_nets, dtype=np.int64)
                data_arr = np.array(data_nets, dtype=np.int64)
                addr_w = np.array([1 << i for i in range(len(addr_nets))],
                                  dtype=np.int64)
                data_w = np.array([1 << i for i in range(len(data_nets))],
                                  dtype=np.uint64)
                ports.append((en, addr_arr, addr_w, data_arr, data_w))
            self._write_ports.append(ports)
        if kernel is None and backend != "interp":
            from .glcodegen import build_kernel
            kernel = build_kernel(backend)
        self._kernel = kernel
        self.backend = kernel.backend if kernel is not None else "interp"
        if kernel is not None:
            kernel.install(self)
        self.reset()
        get_registry().counter("glsim.batched_sims").inc()
        get_tracer().instant("glsim.batched_build", cat="flow",
                             lanes=lanes, nets=netlist.n_nets,
                             backend=self.backend)

    @property
    def kernel(self):
        """The native evaluation kernel, or None when interpreting."""
        return self._kernel

    def _check_lane(self, lane):
        if not 0 <= lane < self.lanes:
            raise GateSimError(
                f"lane {lane} out of range (simulator has {self.lanes})")

    # -- state ---------------------------------------------------------------

    def reset(self):
        """Registers to init values in every lane; memories preserved."""
        n_dff = len(self.netlist.dffs)
        if n_dff:
            self._values[self._dff_q[:n_dff]] = self._dff_init_words[:n_dff]

    def full_reset(self):
        """Return every net, force, memory, and read-port memo of every
        lane to the just-constructed state (activity counters aside).

        Replays call this so each snapshot starts from one canonical
        state regardless of what ran on this simulator before — the
        property that makes serial and worker-pool replays bit-identical
        (a fresh worker's simulator has no history to inherit).  Note
        retimed-datapath warm-up runs *before* snapshot SRAM loading, so
        memory contents at warm-up time are part of that canonical state.
        """
        self._values[:] = 0
        self._values[CONST1] = _ALL_ONES
        self._forces.clear()
        self._rebuild_force_arrays()
        for per_port in self._last_addrs:
            for last in per_port:
                last[:] = -1
        for store in self._sram_data:
            store[:] = 0
        self.reset()
        np.copyto(self._prev, self._values)

    def clear_activity(self):
        if self._plane_count:
            self._toggle_arena[:self._plane_count] = 0
        self._plane_count = 0
        self.cycles = 0
        self.sram_reads[:] = 0
        self.sram_writes[:] = 0
        self._prev = self._values.copy()

    def _grow_toggle_arena(self, min_planes):
        cap = self._toggle_arena.shape[0]
        if min_planes <= cap:
            return
        new_cap = max(min_planes, cap * 2)
        arena = np.zeros((new_cap, self.netlist.n_nets), dtype=np.uint64)
        if self._plane_count:
            arena[:self._plane_count] = \
                self._toggle_arena[:self._plane_count]
        self._toggle_arena = arena

    def _ensure_toggle_capacity(self, extra_cycles):
        """Grow the arena so ``extra_cycles`` more cycles cannot carry
        out of the top plane (per-net counts never exceed the cycle
        count, so ``bit_length`` of the worst-case total bounds the
        planes needed)."""
        self._grow_toggle_arena(
            int(self.cycles + extra_cycles).bit_length())

    def _set_net_bit(self, net, bit, lane):
        if lane is None:
            self._values[net] = _ALL_ONES if bit else np.uint64(0)
        else:
            self._check_lane(lane)
            mask = _ONE << np.uint64(lane)
            if bit:
                self._values[net] |= mask
            else:
                self._values[net] &= ~mask

    def load_dff(self, name, value, lane=None):
        """Lane-masked direct state load (``lane=None`` = every lane)."""
        idx = self._dff_index.get(name)
        if idx is None:
            raise GateSimError(f"no DFF named {name!r}")
        self._set_net_bit(self.netlist.dffs[idx].q, value & 1, lane)

    def load_dffs_lanes(self, commands_per_lane):
        """Load one :class:`~repro.gatelevel.formal.DffLoad` per lane
        (lanes ``0..n-1``) in a single packed scatter.

        Every lane's commands must come from one gather plan: their bit
        vectors are packed into lane words and written with one masked
        scatter.  Returns the per-lane command counts.
        """
        n = len(commands_per_lane)
        if n > self.lanes:
            raise GateSimError(
                f"{n} command sets for {self.lanes} lanes")
        if n == 0:
            return []
        plan = commands_per_lane[0].plan
        if any(c.plan is not plan for c in commands_per_lane):
            raise GateSimError(
                "lane load commands come from different gather plans "
                "(snapshots of one batch must share a register order)")
        nets = _plan_nets(self, plan)
        words = pack_lane_bits(np.stack(
            [c.bits for c in commands_per_lane], axis=-1))
        lane_mask = np.uint64((1 << n) - 1 if n < 64
                              else 0xFFFFFFFFFFFFFFFF)
        v = self._values
        v[nets] = (v[nets] & ~lane_mask) | (words & lane_mask)
        return [len(plan.dff_names)] * n

    def load_sram(self, name, contents, lane=None):
        idx = self._sram_index.get(name)
        if idx is None:
            raise GateSimError(f"no SRAM named {name!r}")
        if len(contents) != self.netlist.srams[idx].depth:
            raise GateSimError(f"SRAM {name} depth mismatch")
        store = self._sram_data[idx]
        if lane is None:
            store[:] = contents
        else:
            self._check_lane(lane)
            store[lane] = contents

    def read_sram(self, name, addr, lane=0):
        idx = self._sram_index.get(name)
        if idx is None:
            raise GateSimError(f"no SRAM named {name!r}")
        self._check_lane(lane)
        return int(self._sram_data[idx][lane, addr])

    # -- forcing ----------------------------------------------------------------

    def force_label(self, label, value, lane=None):
        """Force a preserved net group to ``value`` in one or all lanes."""
        if lane is None:
            lane_mask = int(self.active_mask)
            values = [value] * self.lanes
        else:
            self._check_lane(lane)
            lane_mask = 1 << lane
            values = [0] * self.lanes
            values[lane] = value
        nets = self.netlist.preserved_nets.get(label)
        if nets is None:
            raise GateSimError(f"no preserved nets labelled {label!r}")
        words = pack_lane_words(values, len(nets))
        for i, net in enumerate(nets):
            prior = self._forces.get(net, [0, 0])
            keep = prior[0] & ~lane_mask
            self._forces[net] = [
                prior[0] | lane_mask,
                (prior[1] & keep) | (int(words[i]) & lane_mask)]
        self._rebuild_force_arrays()

    def release_all(self):
        self._forces.clear()
        self._rebuild_force_arrays()

    def _rebuild_force_arrays(self):
        if self._forces:
            self._force_nets = np.array(list(self._forces), dtype=np.int64)
            self._force_masks = np.array(
                [self._forces[n][0] for n in self._forces], dtype=np.uint64)
            self._force_vals = np.array(
                [self._forces[n][1] for n in self._forces], dtype=np.uint64)
        else:
            self._force_nets = None
            self._force_masks = None
            self._force_vals = None

    def _apply_forces(self, v):
        v[self._force_nets] = ((v[self._force_nets] & ~self._force_masks)
                               | self._force_vals)

    # -- evaluation ----------------------------------------------------------------

    def poke(self, port, value, lane=None):
        nets = self.netlist.inputs.get(port)
        if nets is None:
            raise GateSimError(f"no input port {port!r}")
        if lane is None:
            for i, net in enumerate(nets):
                self._values[net] = (_ALL_ONES if (value >> i) & 1
                                     else np.uint64(0))
        else:
            for i, net in enumerate(nets):
                self._set_net_bit(net, (value >> i) & 1, lane)

    def poke_lanes(self, port, values):
        """Poke a per-lane list of values into ``port`` at once."""
        nets = self.netlist.inputs.get(port)
        if nets is None:
            raise GateSimError(f"no input port {port!r}")
        if len(values) != self.lanes:
            raise GateSimError(
                f"{len(values)} poke values for {self.lanes} lanes")
        self._values[np.array(nets, dtype=np.int64)] = \
            pack_lane_words(values, len(nets))

    def peek(self, port, lane=0):
        nets = self.netlist.outputs.get(port)
        if nets is None:
            raise GateSimError(f"no output port {port!r}")
        self._check_lane(lane)
        value = 0
        for i, net in enumerate(nets):
            value |= ((int(self._values[net]) >> lane) & 1) << i
        return value

    def peek_all(self, lane=0):
        return {name: self.peek(name, lane=lane)
                for name in self.netlist.outputs}

    def eval(self):
        """Settle combinational logic in every lane at once."""
        if self._kernel is not None:
            self._kernel.eval(self)
            return
        v = self._values
        if self._force_nets is not None:
            self._apply_forces(v)
        for groups, rams in self._levels:
            for cell, outs, in0, in1, in2 in groups:
                if cell == "INV":
                    v[outs] = v[in0] ^ _ALL_ONES
                elif cell == "BUF":
                    v[outs] = v[in0]
                elif cell == "AND2":
                    v[outs] = v[in0] & v[in1]
                elif cell == "OR2":
                    v[outs] = v[in0] | v[in1]
                elif cell == "XOR2":
                    v[outs] = v[in0] ^ v[in1]
                elif cell == "XNOR2":
                    v[outs] = (v[in0] ^ v[in1]) ^ _ALL_ONES
                elif cell == "NAND2":
                    v[outs] = (v[in0] & v[in1]) ^ _ALL_ONES
                elif cell == "NOR2":
                    v[outs] = (v[in0] | v[in1]) ^ _ALL_ONES
                elif cell == "MUX2":
                    sel = v[in0]
                    v[outs] = (sel & v[in1]) | (~sel & v[in2])
                else:
                    raise GateSimError(f"unknown cell {cell}")
            for macro_idx, port_idx in rams:
                self._eval_read_port(macro_idx, port_idx)
            if self._force_nets is not None:
                self._apply_forces(v)

    def _eval_read_port(self, macro_idx, port_idx):
        """Async read port: addresses diverge, so resolve per lane and
        maintain the per-port read-address memo / access counters."""
        addr_arr, addr_w, data_arr = self._ram_ports[macro_idx][port_idx]
        v = self._values
        macro = self.netlist.srams[macro_idx]
        bits = ((v[addr_arr][:, None] >> self._lane_ids[None, :])
                & _ONE).astype(np.int64)
        addrs = addr_w @ bits          # per-lane integer addresses
        ok = addrs < macro.depth
        words = self._sram_data[macro_idx][self._lane_rows,
                                           np.where(ok, addrs, 0)]
        packed = pack_lane_words(np.where(ok, words, np.uint64(0)),
                                 len(data_arr))
        last = self._last_addrs[macro_idx][port_idx]
        changed = addrs != last
        if changed.any():
            self.sram_reads[macro_idx] += changed
            last[:] = addrs
        v[data_arr] = packed

    def step(self, n=1):
        """Advance n clock cycles in every lane (eval, count, commit)."""
        self.run_cycles(n)

    def run_cycles(self, n=None, stim=None, strict=False):
        """Advance ``n`` cycles, optionally driven by a
        :class:`PackedStimulus` (pokes before eval, checks after eval,
        per-cycle force segments).

        This is the whole-replay hot loop: with the C kernel the
        entire call — eval, toggle counting, SRAM write ports, DFF
        commit, stimulus, checks — is **one** foreign call that releases
        the GIL; the interpreted path runs the same per-cycle sequence
        in Python so all backends stay bit-identical by construction.

        Returns the per-lane mismatch counts (int64, one per lane).  In
        strict mode the first failing check raises
        :class:`StimulusMismatch` instead, leaving the failing cycle
        settled but uncommitted.
        """
        if stim is not None:
            if n is None:
                n = stim.n_cycles
            elif n > stim.n_cycles:
                raise GateSimError(
                    f"run_cycles({n}) exceeds stimulus length "
                    f"{stim.n_cycles}")
        elif n is None:
            raise GateSimError("run_cycles needs a cycle count or "
                               "a stimulus")
        n = int(n)
        mismatches = np.zeros(self.lanes, dtype=np.int64)
        if n <= 0:
            return mismatches
        self._ensure_toggle_capacity(n)
        if self._kernel is not None:
            self._kernel.run_cycles(self, n, stim, strict, mismatches)
        else:
            self._run_cycles_py(n, stim, strict, mismatches)
        return mismatches

    def _run_cycles_py(self, n, stim, strict, mismatches):
        """The interpreted per-cycle loop behind :meth:`run_cycles` —
        semantics identical to the native kernel, reading the same flat
        stimulus arrays."""
        phases = [0.0] * 6
        flat = stim.flat if stim is not None else None
        if flat is not None:
            poke_first = np.concatenate(([0], np.cumsum(flat["poke_counts"])))
            check_first = np.concatenate(
                ([0], np.cumsum(flat["check_counts"])))
        seg_forces = flat is not None and flat["force_counts"] is not None
        saved = (self._force_nets, self._force_masks, self._force_vals)
        perf = time.perf_counter
        cycles_done = 0
        try:
            for t in range(n):
                t0 = perf()
                if flat is not None:
                    values = self._values
                    for op in range(poke_first[t], poke_first[t + 1]):
                        nets, words = _op_slices(flat, "poke", op)
                        mask = flat["poke_masks"][op]
                        values[nets] = ((values[nets] & ~mask)
                                        | (words & mask))
                if seg_forces:
                    count = flat["force_counts"][t]
                    if count == 0:
                        self._force_nets = None
                        self._force_masks = None
                        self._force_vals = None
                    else:
                        at = slice(flat["force_off"][t],
                                   flat["force_off"][t] + count)
                        self._force_nets = flat["force_nets"][at]
                        self._force_masks = flat["force_masks"][at]
                        self._force_vals = flat["force_vals"][at]
                t1 = perf()
                phases[0] += t1 - t0
                self.eval()
                values = self._values
                t2 = perf()
                phases[1] += t2 - t1
                if flat is not None:
                    for op in range(check_first[t], check_first[t + 1]):
                        nets, exp = _op_slices(flat, "check", op)
                        diff = int(np.bitwise_or.reduce(
                            values[nets] ^ exp) & flat["check_masks"][op])
                        while diff:
                            lane = (diff & -diff).bit_length() - 1
                            diff &= diff - 1
                            mismatches[lane] += 1
                            if strict:
                                raise StimulusMismatch(
                                    t, stim.check_meta[op][1], lane)
                t3 = perf()
                phases[2] += t3 - t2
                self._count_toggles(
                    (values ^ self._prev) & self.active_mask)
                np.copyto(self._prev, values)
                t4 = perf()
                phases[3] += t4 - t3
                self._commit_sram_writes()
                t5 = perf()
                phases[4] += t5 - t4
                self._commit_dffs()
                self.cycles += 1
                cycles_done += 1
                phases[5] += perf() - t5
        finally:
            if seg_forces:
                (self._force_nets, self._force_masks,
                 self._force_vals) = saved
            _note_step_phases(phases, cycles_done)

    def _count_toggles(self, diff):
        # Ripple-carry add of the 1-bit diff word into the vertical
        # counter arena; a surviving carry widens the counters.
        carry = diff
        arena = self._toggle_arena
        p = 0
        while carry.any():
            if p == arena.shape[0]:
                self._grow_toggle_arena(p + 1)
                arena = self._toggle_arena
            plane = arena[p]
            new_carry = plane & carry
            np.bitwise_xor(plane, carry, out=plane)
            carry = new_carry
            p += 1
        if p > self._plane_count:
            self._plane_count = p

    def _commit_sram_writes(self):
        # SRAM writes sample their nets before DFF outputs change: a
        # write port's address/data may be a register output net.  Per-lane
        # addresses/values are assembled with packed dot products; only
        # the store scatter loops, and only over enabled lanes.
        v = self._values
        active = int(self.active_mask)
        lane_ids = self._lane_ids
        for macro_idx, macro in enumerate(self.netlist.srams):
            store = self._sram_data[macro_idx]
            for en, addr_arr, addr_w, data_arr, data_w in \
                    self._write_ports[macro_idx]:
                en_word = int(v[en]) & active
                if not en_word:
                    continue
                abits = ((v[addr_arr][:, None] >> lane_ids)
                         & _ONE).astype(np.int64)
                addrs = (addr_w @ abits).tolist()
                dbits = (v[data_arr][:, None] >> lane_ids) & _ONE
                words = (dbits * data_w[:, None]).sum(axis=0).tolist()
                remaining = en_word
                while remaining:
                    lane = (remaining & -remaining).bit_length() - 1
                    remaining &= remaining - 1
                    addr = addrs[lane]
                    if addr >= macro.depth:
                        continue
                    store[lane, addr] = words[lane]
                    self.sram_writes[macro_idx, lane] += 1

    def _commit_dffs(self):
        v = self._values
        n_dff = len(self.netlist.dffs)
        if n_dff:
            v[self._dff_q[:n_dff]] = v[self._dff_d[:n_dff]]

    # -- activity export -------------------------------------------------------------

    def lane_toggles(self, lane):
        """Exact per-net toggle counts for one lane."""
        self._check_lane(lane)
        out = np.zeros(self.netlist.n_nets, dtype=np.int64)
        shift = np.uint64(lane)
        for i, plane in enumerate(self._toggle_arena[:self._plane_count]):
            out += ((plane >> shift) & _ONE).astype(np.int64) << i
        return out

    def activity(self, lane):
        """SAIF-style activity summary for one lane: cycle count, per-net
        toggle counts, per-macro SRAM read and write counts."""
        self._check_lane(lane)
        return {
            "cycles": self.cycles,
            "toggles": self.lane_toggles(lane),
            "sram_reads": [int(x) for x in self.sram_reads[:, lane]],
            "sram_writes": [int(x) for x in self.sram_writes[:, lane]],
        }


class GateLevelSimulator(BatchedGateLevelSimulator):
    """A one-lane :class:`BatchedGateLevelSimulator` with a lane-free API.

    For callers that drive one stimulus at a time — RTL co-simulation
    (:func:`~repro.gatelevel.formal.verify_equivalence`) and tests.
    ``poke``, ``peek``, ``step``, ``force_label``, ``release_all`` and
    ``full_reset`` are the batched ones (their lane arguments default to
    the one lane); the methods below drop the lane argument.  ``eval``
    and ``load_sram`` are bound in this class body so that timers which
    patch class attributes can tell one-lane calls from batched ones.
    """

    def __init__(self, netlist, schedule=None, backend="interp",
                 kernel=None):
        super().__init__(netlist, lanes=1, schedule=schedule,
                         backend=backend, kernel=kernel)

    eval = BatchedGateLevelSimulator.eval
    load_sram = BatchedGateLevelSimulator.load_sram

    def load_dffs(self, commands):
        """Bulk load one :class:`~repro.gatelevel.formal.DffLoad`;
        returns the number of commands executed."""
        return self.load_dffs_lanes([commands])[0]

    def activity(self):
        return super().activity(0)
