"""Formal matching: RTL registers <-> gate-level DFFs (Formality analog).

Commercial synthesis mangles register names, so Strober runs a formal
verification tool to find *matching points* between the RTL and the
gate-level netlist and to verify equivalence (Section IV-C1).  Like
Formality consuming Design Compiler's SVF file, this tool consumes the
:class:`~repro.gatelevel.synthesis.SynthesisHints` optimization record,
reconstructs the name-mapping table, cross-checks it against the
netlist, and verifies the two designs are equivalent by co-simulation
with randomized stimulus.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..sim import RTLSimulator
from ..sim.state import name_order, resolve_order
from ..passes.base import Pass, PassResult
from .gl_sim import GateLevelSimulator


class MatchError(Exception):
    pass


@dataclass
class MatchPoint:
    """One RTL register bit and where its value lives in the netlist."""

    reg_path: str
    bit: int
    kind: str            # 'dff' | 'const' | 'merged' | 'retimed'
    dff_name: str = None
    const_value: int = 0


class GatherPlan:
    """One register order's path to the netlist's DFFs, as index arrays.

    Built once per (name map, register order): DFF ``i`` of
    :attr:`dff_names` takes bit ``src_bit[i]`` of register slot
    ``src_reg[i]``.  Merged DFFs fed by several register bits and
    constant-tied bits keep their checks, vectorized.
    """

    def __init__(self, points, order):
        index = order.index
        self.dff_names = []
        slot = {}
        src, dup, const = [], [], []
        for point in points:
            reg = index.get(point.reg_path)
            if reg is None:
                raise MatchError(
                    f"snapshot has no register {point.reg_path}")
            if point.kind in ("dff", "merged"):
                at = slot.get(point.dff_name)
                if at is None:
                    slot[point.dff_name] = len(self.dff_names)
                    self.dff_names.append(point.dff_name)
                    src.append((reg, point.bit))
                else:
                    dup.append((reg, point.bit, at))
            elif point.kind == "const":
                const.append((reg, point.bit, point.const_value, point))
        self.slot = slot
        index_t, bit_t = np.int64, np.uint64
        self.src_reg, self.src_bit = _columns(src, index_t, bit_t)
        self.dup_reg, self.dup_bit, self.dup_slot = _columns(
            dup, index_t, bit_t, index_t)
        self.const_reg, self.const_bit, self.const_value = _columns(
            [c[:3] for c in const], index_t, bit_t, bit_t)
        self._const_points = [c[3] for c in const]

    def gather(self, values):
        """DFF bits (uint8) for a ``uint64`` register vector; raises
        :class:`MatchError` when the state contradicts the netlist."""
        bits = ((values[self.src_reg] >> self.src_bit) & 1).astype(np.uint8)
        if len(self.dup_reg):
            dup = (values[self.dup_reg] >> self.dup_bit) & 1
            bad = np.flatnonzero(dup != bits[self.dup_slot])
            if len(bad):
                name = self.dff_names[int(self.dup_slot[bad[0]])]
                raise MatchError(
                    f"merged DFF {name} receives conflicting "
                    f"values (snapshot inconsistent with merge)")
        if len(self.const_reg):
            tied = (values[self.const_reg] >> self.const_bit) & 1
            bad = np.flatnonzero(tied != self.const_value)
            if len(bad):
                point = self._const_points[int(bad[0])]
                raise MatchError(
                    f"snapshot value of constant register "
                    f"{point.reg_path}[{point.bit}] differs from the "
                    f"synthesized constant")
        return bits


def _columns(rows, *dtypes):
    """One array per tuple position, of the given dtypes."""
    cols = list(zip(*rows)) if rows else [()] * len(dtypes)
    return [np.array(col, dtype=dtype) for col, dtype in zip(cols, dtypes)]


class DffLoad(Mapping):
    """The DFF load commands of one snapshot: ``{dff_name: bit}``.

    A read-only mapping over ``plan.dff_names``; simulators skip the
    names and scatter :attr:`bits` through the plan's net indices.
    """

    __slots__ = ("plan", "bits")

    def __init__(self, plan, bits):
        self.plan = plan
        self.bits = bits

    def __getitem__(self, name):
        return int(self.bits[self.plan.slot[name]])

    def __iter__(self):
        return iter(self.plan.dff_names)

    def __len__(self):
        return len(self.plan.dff_names)


@dataclass
class NameMap:
    """The name-mapping table used to load snapshots onto gate level."""

    points: list = field(default_factory=list)
    retimed: list = field(default_factory=list)   # RetimedHint passthrough

    def __post_init__(self):
        self._plans = {}

    # Name maps ship to replay workers and into the artifact cache; a
    # big design has one MatchPoint per register *bit*, so pickle them
    # as plain tuples rather than dataclass instances.
    def __getstate__(self):
        return {
            "v": 1,
            "points": [(p.reg_path, p.bit, p.kind, p.dff_name,
                        p.const_value) for p in self.points],
            "retimed": self.retimed,
        }

    def __setstate__(self, state):
        self.points = [MatchPoint(reg_path, bit, kind, dff_name, const)
                       for reg_path, bit, kind, dff_name, const
                       in state["points"]]
        self.retimed = state["retimed"]
        self._plans = {}

    def retimed_points(self):
        return [p for p in self.points if p.kind == "retimed"]

    @property
    def reg_order(self):
        """The RTL register order this map was matched in (registered, so
        snapshots captured in it resolve in any process holding the
        map)."""
        paths = dict.fromkeys(p.reg_path for p in self.points)
        return name_order(paths)

    def gather_plan(self, fingerprint):
        """The cached :class:`GatherPlan` for one register order."""
        plan = self._plans.get(fingerprint)
        if plan is None:
            order = self.reg_order
            if order.fingerprint != fingerprint:
                order = resolve_order(fingerprint)
            plan = self._plans.setdefault(fingerprint,
                                          GatherPlan(self.points, order))
        return plan

    def load_commands(self, state):
        """Translate an RTL register state into DFF load commands.

        ``state`` is a :class:`~repro.sim.state.SimState`; its register
        vector goes through the cached gather plan of its register order.
        Returns a :class:`DffLoad`, a ``{dff_name: bit}`` mapping;
        constant points are checked, retimed points are skipped (they are
        recovered by input forcing).
        """
        plan = self.gather_plan(state.reg_order)
        return DffLoad(plan, plan.gather(state.reg_values))


class FormalMatchPass(Pass):
    """:func:`match_netlist` as a pipeline pass (thin wrapper).

    Consumes the ``netlist`` + ``hints`` artifacts and deposits the
    ``name_map`` the replay engine loads snapshots through.
    """

    name = "formal-match"
    requires = ("netlist",)
    produces = ("name-map",)

    def run(self, circuit, ctx):
        name_map = match_netlist(circuit, ctx["netlist"], ctx["hints"])
        return PassResult(
            artifacts={"name_map": name_map},
            stats={"match_points": len(name_map.points),
                   "retimed_blocks": len(name_map.retimed)})


def match_netlist(circuit, netlist, hints):
    """Build the name map from synthesis hints and sanity-check it."""
    dff_names = {dff.name for dff in netlist.dffs}
    points = []
    for reg in circuit.regs:
        for bit in range(reg.width):
            hint = hints.dff_map.get((reg.path, bit))
            if hint is None:
                raise MatchError(
                    f"no synthesis record for {reg.path}[{bit}]")
            if hint.kind in ("dff", "merged"):
                if hint.name not in dff_names:
                    raise MatchError(
                        f"hint names missing DFF {hint.name!r}")
                points.append(MatchPoint(reg.path, bit, hint.kind,
                                         dff_name=hint.name))
            elif hint.kind == "const":
                points.append(MatchPoint(reg.path, bit, "const",
                                         const_value=hint.value))
            elif hint.kind == "retimed":
                points.append(MatchPoint(reg.path, bit, "retimed"))
            else:
                raise MatchError(f"unknown hint kind {hint.kind!r}")
    return NameMap(points=points, retimed=list(hints.retimed))


@dataclass
class EquivalenceResult:
    equivalent: bool
    cycles_checked: int
    counterexample: dict = None


def verify_equivalence(circuit, netlist, n_cycles=64, seed=0,
                       rtl_backend="python"):
    """Co-simulate RTL vs gate level from reset with random stimulus.

    This is the 'verifies the equality of the two designs' half of the
    formal step; bounded random equivalence rather than SAT-based, which
    is sufficient to catch synthesis lowering bugs in practice and keeps
    the substrate self-contained.
    """
    rng = random.Random(seed)
    rtl = RTLSimulator(circuit, backend=rtl_backend)
    gl = GateLevelSimulator(netlist)
    input_specs = [(node.name, node.width) for node in circuit.inputs]
    for cycle in range(n_cycles):
        stimulus = {name: rng.getrandbits(width)
                    for name, width in input_specs}
        for name, value in stimulus.items():
            rtl.poke(name, value)
            gl.poke(name, value)
        rtl.eval()
        gl.eval()
        rtl_out = rtl.peek_all()
        gl_out = gl.peek_all()
        if rtl_out != gl_out:
            return EquivalenceResult(False, cycle, {
                "stimulus": stimulus,
                "rtl": rtl_out,
                "gate": gl_out,
            })
        rtl.step()
        gl.step()
    return EquivalenceResult(True, n_cycles)
