"""Power analysis from switching activity (the PrimeTime PX analog).

Consumes a SAIF-style activity summary (per-net toggle counts + SRAM
access counts) plus the placed netlist, and produces total and
per-module-group power:

* switching power: per net, ``toggles/cycle × ½·C_net·V² × f`` where
  ``C_net`` = driver output cap + fanout input pin caps + wire cap;
* clock tree power: every DFF clock pin toggles twice per cycle;
* SRAM power: per-access read/write energy from the macro model;
* leakage: per-cell and per-macro static power.

The activity-independent part of the model (per-net capacitance, each
net's attribution group, per-cell leakage) is built once per (netlist,
placement, tech, grouping) and cached on the netlist, so analyzing an
activity window costs a few vectorized array ops instead of a python
loop over every net.  The vectorized path accumulates with
``np.add.at`` (unbuffered, in element order), so results are
bit-identical to the original sequential loops.

:func:`analyze_power` is the reference: one activity window, one
report.  :func:`analyze_power_lanes` reports every lane of a batched
simulator at once: the native kernel reduces the toggle planes to
per-lane, per-group switching watts with the same operation order, and
the activity-independent terms are added here for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .library import CELLS, SramSpec, TECH_45NM


@dataclass
class PowerReport:
    """Average power over one activity window, in watts."""

    total_w: float
    switching_w: float
    clock_w: float
    sram_dynamic_w: float
    leakage_w: float
    cycles: int
    freq_hz: float
    by_group: dict = field(default_factory=dict)   # group -> watts

    @property
    def total_mw(self):
        return self.total_w * 1e3


def default_grouping(origin):
    """Map an RTL hierarchy path to a report group (first segment)."""
    if not origin:
        return "(top)"
    return origin.split(".")[0]


class _PowerModel:
    """Activity-independent arrays for one (netlist, placement, tech,
    grouping) combination.

    Group accumulation uses integer *slots*; ``io_slot`` (driverless
    nets, primary inputs) is last and only surfaces in ``by_group``
    when a driverless net actually switched — matching the lazy
    first-touch behaviour of the original dict accumulation.
    """

    def __init__(self, netlist, placement, tech, grouping):
        # pin the keyed objects so their id()s stay valid while cached
        self.placement = placement
        self.tech = tech
        self.grouping = grouping

        n_nets = netlist.n_nets
        net_cap = np.zeros(n_nets)
        if placement is not None and placement.net_wire_cap_ff is not None:
            net_cap += placement.net_wire_cap_ff

        group_slot = {}

        def slot(group):
            if group not in group_slot:
                group_slot[group] = len(group_slot)
            return group_slot[group]

        driver_slot = np.full(n_nets, -1, dtype=np.int64)
        gate_slots = np.zeros(max(len(netlist.gates), 1), dtype=np.int64)
        for i, gate in enumerate(netlist.gates):
            spec = CELLS[gate.cell]
            net_cap[gate.output] += spec.output_cap_ff
            for net in gate.inputs:
                net_cap[net] += spec.input_cap_ff
            gate_slots[i] = driver_slot[gate.output] = slot(
                grouping(gate.origin))
        dff_spec = CELLS["DFF"]
        dff_slots = np.zeros(max(len(netlist.dffs), 1), dtype=np.int64)
        for i, dff in enumerate(netlist.dffs):
            net_cap[dff.q] += dff_spec.output_cap_ff
            net_cap[dff.d] += dff_spec.input_cap_ff
            dff_slots[i] = driver_slot[dff.q] = slot(grouping(dff.origin))
        self.sram_slots = [slot(grouping(macro.origin))
                           for macro in netlist.srams]
        self.sram_specs = [SramSpec(macro.depth, macro.width)
                           for macro in netlist.srams]

        self.io_slot = len(group_slot)          # always the last slot
        self.group_names = list(group_slot)
        self.net_cap = net_cap
        self.switch_slot = np.where(driver_slot >= 0, driver_slot,
                                    self.io_slot)
        self.dff_slots = dff_slots[:len(netlist.dffs)]
        self.n_dffs = len(netlist.dffs)

        # Leakage is time-invariant: per-element values in the original
        # accumulation order (gates, DFFs, macros).  The scalar total is
        # a fixed sequential sum, so fold it once here.
        leak_slots = []
        leak_w = []
        for i, gate in enumerate(netlist.gates):
            leak_slots.append(gate_slots[i])
            leak_w.append(CELLS[gate.cell].leakage_nw * 1e-9)
        for i in range(len(netlist.dffs)):
            leak_slots.append(dff_slots[i])
            leak_w.append(dff_spec.leakage_nw * 1e-9)
        for i, macro in enumerate(netlist.srams):
            leak_slots.append(self.sram_slots[i])
            leak_w.append(self.sram_specs[i].leakage_nw * 1e-9)
        self.leak_slots = np.array(leak_slots, dtype=np.int64)
        self.leak_w = np.array(leak_w)
        total = 0.0
        for w in leak_w:
            total += w
        self.leakage_w = total


def _power_model(netlist, placement, tech, grouping):
    cache = getattr(netlist, "_power_model_cache", None)
    if cache is None:
        # plain instance attribute: GateNetlist's explicit __getstate__
        # keeps it out of pickles, so cached flows stay lean
        cache = netlist._power_model_cache = {}
    key = (id(placement), id(tech), grouping)
    model = cache.get(key)
    if (model is None or model.placement is not placement
            or model.tech is not tech):
        model = cache[key] = _PowerModel(netlist, placement, tech,
                                         grouping)
    return model


def _ordered_sum(values):
    """Sequential left-to-right float sum (what a python loop does).

    ``np.cumsum`` is a sequential accumulate, unlike ``np.sum``'s
    pairwise reduction, which rounds differently.  Bit-identity with
    the pre-vectorization power analysis depends on this.
    """
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def _clock_watts(model, tech, cycles, seconds, vdd2):
    """Per-DFF clock-tree watts: two transitions per cycle into every
    DFF clock pin."""
    clk_cap = tech.clock_pin_cap_ff * tech.clock_wire_factor
    clk_energy_per_ff_fj = 2 * 0.5 * clk_cap * vdd2 * cycles
    return np.full(model.n_dffs, clk_energy_per_ff_fj * 1e-15 / seconds)


def _add_sram_watts(acc, model, reads, writes, seconds, total):
    """SRAM access energy (a handful of macros: plain loop): adds each
    macro's watts to its group in ``acc`` and returns ``total`` plus
    them.  Per lane, ``reads``/``writes`` are per-macro counts and
    ``acc``/``total`` scalars; for a batch, rows of lane counts, a
    group-major ``acc`` and a lane vector — the same operations
    elementwise."""
    for idx, spec in enumerate(model.sram_specs):
        fj = (reads[idx] * spec.read_energy_fj
              + writes[idx] * spec.write_energy_fj)
        w = fj * 1e-15 / seconds
        acc[model.sram_slots[idx]] += w
        total += w
    return total


def analyze_power(netlist, activity, placement=None, tech=TECH_45NM,
                  freq_hz=None, grouping=default_grouping):
    """Compute a :class:`PowerReport` for one activity window."""
    freq_hz = freq_hz or tech.default_freq_hz
    cycles = activity["cycles"]
    if cycles <= 0:
        raise ValueError("activity window has zero cycles")
    toggles = activity["toggles"]
    seconds = cycles / freq_hz
    vdd2 = tech.vdd * tech.vdd

    model = _power_model(netlist, placement, tech, grouping)
    acc = np.zeros(model.io_slot + 1)

    # Switching energy, attributed to each net's driver.
    energy_fj = toggles * model.net_cap * 0.5 * vdd2
    nonzero = np.nonzero(energy_fj)[0]
    watts = energy_fj[nonzero] * 1e-15 / seconds
    slots = model.switch_slot[nonzero]
    np.add.at(acc, slots, watts)
    switching_w = _ordered_sum(watts)
    io_touched = bool((slots == model.io_slot).any())

    clk_watts = _clock_watts(model, tech, cycles, seconds, vdd2)
    np.add.at(acc, model.dff_slots, clk_watts)
    clock_w = _ordered_sum(clk_watts)

    sram_dynamic_w = _add_sram_watts(
        acc, model, activity["sram_reads"], activity["sram_writes"],
        seconds, 0.0)

    # Leakage (time-invariant; scalar total prefolded in the model).
    np.add.at(acc, model.leak_slots, model.leak_w)
    leakage_w = model.leakage_w

    by_group = {name: float(acc[i])
                for i, name in enumerate(model.group_names)}
    if io_touched:
        by_group["(io)"] = float(acc[model.io_slot])

    total = switching_w + clock_w + sram_dynamic_w + leakage_w
    return PowerReport(
        total_w=total,
        switching_w=switching_w,
        clock_w=clock_w,
        sram_dynamic_w=sram_dynamic_w,
        leakage_w=leakage_w,
        cycles=cycles,
        freq_hz=freq_hz,
        by_group=by_group,
    )


def analyze_power_lanes(netlist, sim, placement=None, tech=TECH_45NM,
                        freq_hz=None, grouping=default_grouping):
    """Every lane's :class:`PowerReport` for a batched simulator's
    activity window, plus the lanes' total toggle count.

    ``sim`` is a :class:`~repro.gatelevel.gl_sim.BatchedGateLevelSimulator`
    on the native kernel.  Lane ``i``'s report equals
    ``analyze_power(netlist, sim.activity(i), ...)`` field for field,
    ``by_group`` key order included: the kernel reduces the toggle
    planes to per-group switching watts in the reference's order, and
    the clock, SRAM and leakage terms follow per lane in the
    reference's order too.
    """
    kernel = sim.kernel
    if kernel is None:
        raise ValueError(
            "analyze_power_lanes needs a simulator on the native kernel; "
            "use analyze_power(netlist, sim.activity(lane)) per lane")
    freq_hz = freq_hz or tech.default_freq_hz
    cycles = sim.cycles
    if cycles <= 0:
        raise ValueError("activity window has zero cycles")
    seconds = cycles / freq_hz
    vdd2 = tech.vdd * tech.vdd

    model = _power_model(netlist, placement, tech, grouping)
    acc, switching_w, toggles, io_touched = kernel.switching(
        sim, model.net_cap, model.switch_slot, model.io_slot + 1,
        model.io_slot, vdd2, seconds)

    clk_watts = _clock_watts(model, tech, cycles, seconds, vdd2)
    kernel.lane_add(acc, model.dff_slots, clk_watts)
    clock_w = _ordered_sum(clk_watts)

    sram_dynamic_w = _add_sram_watts(
        acc, model, sim.sram_reads, sim.sram_writes, seconds,
        np.zeros(sim.lanes))

    kernel.lane_add(acc, model.leak_slots, model.leak_w)
    leakage_w = model.leakage_w

    total = switching_w + clock_w + sram_dynamic_w + leakage_w
    names = model.group_names
    reports = []
    for lane, row in enumerate(acc.T.tolist()):
        by_group = dict(zip(names, row))
        if io_touched[lane]:
            by_group["(io)"] = row[model.io_slot]
        reports.append(PowerReport(
            total_w=float(total[lane]),
            switching_w=float(switching_w[lane]),
            clock_w=clock_w,
            sram_dynamic_w=float(sram_dynamic_w[lane]),
            leakage_w=leakage_w,
            cycles=cycles,
            freq_hz=freq_hz,
            by_group=by_group))
    return reports, int(toggles.sum())
