"""Gate-level netlist data structures.

A :class:`GateNetlist` is the synthesis output: single-bit nets, simple
gates, DFFs, SRAM macros, and primary I/O.  Net 0 is constant 0 and net
1 is constant 1.  Every gate and DFF carries an ``origin`` attribution
path (the RTL hierarchy it came from) so power can be broken down by
module as in the paper's Figure 9a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CONST0 = 0
CONST1 = 1


@dataclass
class Gate:
    cell: str            # key into library.CELLS (not DFF)
    inputs: tuple        # net ids; MUX2 order (sel, a, b)
    output: int          # net id
    origin: str = ""     # RTL hierarchical path for power attribution


@dataclass
class Dff:
    d: int               # data input net
    q: int               # output net
    init: int            # reset value bit
    name: str            # mangled gate-level instance name
    origin: str = ""


@dataclass
class SramMacro:
    """One memory macro with async read ports and sync write ports."""

    name: str
    depth: int
    width: int
    origin: str = ""
    # read ports: (addr_nets lsb-first, data_nets lsb-first)
    read_ports: list = field(default_factory=list)
    # write ports: (en_net, addr_nets, data_nets)
    write_ports: list = field(default_factory=list)


class GateNetlist:
    """Flat single-bit netlist with attribution and name tables."""

    def __init__(self, name):
        self.name = name
        self.n_nets = 2                      # const0, const1 pre-allocated
        self.gates = []                      # list[Gate]
        self.dffs = []                       # list[Dff]
        self.srams = []                      # list[SramMacro]
        self.inputs = {}                     # port name -> [net ids] lsb0
        self.outputs = {}                    # port name -> [net ids] lsb0
        self.net_names = {}                  # net id -> mangled name
        self.preserved_nets = {}             # label -> [net ids]
        self._dff_index = None               # lazy name -> position memos
        self._sram_index = None

    def new_net(self, name=None):
        net = self.n_nets
        self.n_nets += 1
        if name is not None:
            self.net_names[net] = name
        return net

    def new_nets(self, count):
        start = self.n_nets
        self.n_nets += count
        return list(range(start, start + count))

    def add_gate(self, cell, inputs, origin=""):
        out = self.new_net()
        self.gates.append(Gate(cell, tuple(inputs), out, origin))
        return out

    def cell_histogram(self):
        counts = {}
        for gate in self.gates:
            counts[gate.cell] = counts.get(gate.cell, 0) + 1
        counts["DFF"] = len(self.dffs)
        return counts

    def stats(self):
        return {
            "nets": self.n_nets,
            "gates": len(self.gates),
            "dffs": len(self.dffs),
            "srams": len(self.srams),
            "cells": self.cell_histogram(),
        }

    def dff_index(self):
        """Name -> position for :attr:`dffs`, built once and shared.

        Both simulators and the levelized schedule consume this same
        memo, so name resolution is one dict per netlist instead of a
        linear scan (or a private copy) per consumer.  Rebuilt lazily
        if DFFs were added since the last call.
        """
        memo = self._dff_index
        if memo is None or len(memo) != len(self.dffs):
            memo = self._dff_index = {
                dff.name: i for i, dff in enumerate(self.dffs)}
        return memo

    def sram_index(self):
        """Name -> position for :attr:`srams` (same contract as
        :meth:`dff_index`)."""
        memo = self._sram_index
        if memo is None or len(memo) != len(self.srams):
            memo = self._sram_index = {
                macro.name: i for i, macro in enumerate(self.srams)}
        return memo

    # -- pickling ----------------------------------------------------------
    # Netlists cross process boundaries (replay worker pools) and live in
    # the on-disk artifact cache, so serialize them as columns of plain
    # tuples instead of per-cell dataclass instances: ~2x smaller and much
    # faster to load than default pickling of tens of thousands of objects.

    def __getstate__(self):
        return {
            "v": 1,
            "name": self.name,
            "n_nets": self.n_nets,
            "gates": [(g.cell, g.inputs, g.output, g.origin)
                      for g in self.gates],
            "dffs": [(d.d, d.q, d.init, d.name, d.origin)
                     for d in self.dffs],
            "srams": [(m.name, m.depth, m.width, m.origin,
                       m.read_ports, m.write_ports) for m in self.srams],
            "inputs": self.inputs,
            "outputs": self.outputs,
            "net_names": self.net_names,
            "preserved_nets": self.preserved_nets,
        }

    def __setstate__(self, state):
        self.name = state["name"]
        self.n_nets = state["n_nets"]
        self.gates = [Gate(cell, inputs, output, origin)
                      for cell, inputs, output, origin in state["gates"]]
        self.dffs = [Dff(d, q, init, name, origin)
                     for d, q, init, name, origin in state["dffs"]]
        self.srams = [SramMacro(name, depth, width, origin,
                                read_ports, write_ports)
                      for name, depth, width, origin,
                      read_ports, write_ports in state["srams"]]
        self.inputs = state["inputs"]
        self.outputs = state["outputs"]
        self.net_names = state["net_names"]
        self.preserved_nets = state["preserved_nets"]
        self._dff_index = None
        self._sram_index = None
