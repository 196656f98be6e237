"""Generic 45 nm-like standard-cell library.

The numbers are representative of a commercial 45 nm process at nominal
voltage (input caps of a few fF, sub-µm² cells, nW-scale leakage); they
are deliberately *generic* — the reproduction targets power shapes and
ratios, not a specific foundry kit (see DESIGN.md).

SRAM macros use an analytical CACTI-like model: energy per access and
leakage scale with the array's geometry, standing in for the vendor
memory-compiler datasheets a real PrimeTime flow reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CellSpec:
    """One standard cell: name, pins, and physical/electrical numbers."""

    name: str
    n_inputs: int
    input_cap_ff: float     # per input pin, femtofarads
    output_cap_ff: float    # self-load (drain/parasitic) at the output
    leakage_nw: float       # static power, nanowatts
    area_um2: float
    delay_ps: float         # unit delay used for levelization reporting


# Gate types the technology mapper may emit.  MUX2 input order: (sel, a, b)
# with output = sel ? a : b.  DFF input order: (d,).
CELLS = {
    "INV": CellSpec("INV", 1, 1.4, 0.9, 12.0, 0.8, 18.0),
    "BUF": CellSpec("BUF", 1, 1.4, 1.0, 15.0, 1.1, 30.0),
    "AND2": CellSpec("AND2", 2, 1.6, 1.1, 22.0, 1.4, 35.0),
    "OR2": CellSpec("OR2", 2, 1.6, 1.1, 24.0, 1.4, 36.0),
    "NAND2": CellSpec("NAND2", 2, 1.5, 1.0, 16.0, 1.1, 22.0),
    "NOR2": CellSpec("NOR2", 2, 1.5, 1.0, 17.0, 1.1, 25.0),
    "XOR2": CellSpec("XOR2", 2, 2.4, 1.5, 38.0, 2.2, 48.0),
    "XNOR2": CellSpec("XNOR2", 2, 2.4, 1.5, 38.0, 2.2, 48.0),
    "MUX2": CellSpec("MUX2", 3, 2.0, 1.4, 34.0, 2.4, 44.0),
    "DFF": CellSpec("DFF", 1, 2.6, 1.8, 95.0, 6.5, 90.0),
}


@dataclass(frozen=True)
class TechParams:
    """Process/operating-point parameters shared by power analysis."""

    vdd: float = 1.0                 # volts
    wire_cap_ff_per_um: float = 0.20
    clock_pin_cap_ff: float = 1.1    # DFF clock pin load
    clock_wire_factor: float = 1.6   # clock tree wiring overhead multiplier
    default_freq_hz: float = 1.0e9   # paper evaluates the cores at 1 GHz


TECH_45NM = TechParams()


@dataclass(frozen=True)
class SramSpec:
    """Analytical SRAM macro model (CACTI-flavoured scaling laws)."""

    depth: int
    width: int

    @property
    def bits(self):
        return self.depth * self.width

    @property
    def read_energy_fj(self):
        """Per-read energy: wordline/bitline scaling ~ width · sqrt(depth)."""
        return 18.0 + 0.9 * self.width * math.sqrt(self.depth) / 4.0

    @property
    def write_energy_fj(self):
        return 22.0 + 1.1 * self.width * math.sqrt(self.depth) / 4.0

    @property
    def leakage_nw(self):
        return 0.9 * self.bits / 8.0

    @property
    def area_um2(self):
        return 0.55 * self.bits + 140.0


def cell(name):
    return CELLS[name]
