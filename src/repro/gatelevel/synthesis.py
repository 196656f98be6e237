"""Logic synthesis: IR circuit -> gate-level netlist (the DC analog).

Bit-blasts every IR operation into single-bit gates from the generic
library, with inline optimization (constant folding, structural hashing)
that — exactly as in a commercial flow — *mangles register names* and
removes or merges flip-flops.  The optimization record is emitted as
:class:`SynthesisHints` (the analog of Design Compiler's SVF guidance
file), which the formal matching tool consumes to rebuild the RTL-to-gate
name mapping (Section IV-C1).

Registers inside designer-annotated retimed datapaths are reported as
unmatchable (Section IV-C3): replays must recover their state by forcing
the block's inputs, never by direct load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl.ir import Node
from ..passes.base import Pass, PassResult
from .netlist import GateNetlist, SramMacro, CONST0, CONST1


class SynthesisError(Exception):
    pass


@dataclass
class DffHint:
    """How one RTL register bit ended up in the gate-level netlist."""

    kind: str                 # 'dff' | 'const' | 'merged' | 'retimed'
    name: str = None          # gate-level DFF instance name (dff/merged)
    value: int = 0            # tied value (const)


@dataclass
class RetimedHint:
    prefix: str
    latency: int
    # (port name, width, preserved-net label) per block input
    inputs: list = field(default_factory=list)


@dataclass
class SynthesisHints:
    """The SVF-analog guidance synthesis hands to formal verification."""

    dff_map: dict = field(default_factory=dict)  # (reg_path,bit) -> DffHint
    retimed: list = field(default_factory=list)  # list[RetimedHint]
    removed_const_dffs: int = 0
    merged_dffs: int = 0


def mangle(path, bit):
    """Gate-level register naming, in the style CAD tools emit."""
    return path.replace(".", "_") + f"_reg_{bit}_"


class _Mapper:
    """Stateful lowering of one circuit."""

    def __init__(self, circuit, netlist):
        self.circuit = circuit
        self.netlist = netlist
        self.bits = {}      # Node -> [net ids] lsb-first
        self._hash = {}     # (cell, inputs) -> net (structural hashing)

    def bits_of(self, node):
        """Net bits of a node; constants materialize lazily."""
        bits = self.bits.get(node)
        if bits is None:
            if node.op != "const":
                raise SynthesisError(f"node {node!r} not yet lowered")
            value = node.params
            bits = [CONST1 if (value >> i) & 1 else CONST0
                    for i in range(node.width)]
            self.bits[node] = bits
        return bits

    # -- gate emission with inline optimization ---------------------------

    def gate(self, cell, ins, origin=""):
        ins = tuple(ins)
        folded = self._fold(cell, ins)
        if folded is not None:
            return folded
        key = (cell, ins)
        existing = self._hash.get(key)
        if existing is not None:
            return existing
        out = self.netlist.add_gate(cell, ins, origin)
        self._hash[key] = out
        return out

    @staticmethod
    def _fold(cell, ins):
        """Constant folding and trivial-identity elimination."""
        if cell == "INV":
            a, = ins
            if a == CONST0:
                return CONST1
            if a == CONST1:
                return CONST0
            return None
        if cell == "BUF":
            return ins[0]
        if cell == "AND2":
            a, b = ins
            if CONST0 in ins:
                return CONST0
            if a == CONST1:
                return b
            if b == CONST1:
                return a
            if a == b:
                return a
            return None
        if cell == "OR2":
            a, b = ins
            if CONST1 in ins:
                return CONST1
            if a == CONST0:
                return b
            if b == CONST0:
                return a
            if a == b:
                return a
            return None
        if cell == "XOR2":
            a, b = ins
            if a == b:
                return CONST0
            if a == CONST0:
                return b
            if b == CONST0:
                return a
            return None
        if cell == "XNOR2":
            a, b = ins
            if a == b:
                return CONST1
            return None
        if cell == "MUX2":
            s, a, b = ins
            if s == CONST1:
                return a
            if s == CONST0:
                return b
            if a == b:
                return a
            return None
        return None

    def inv(self, a, origin=""):
        return self.gate("INV", (a,), origin)

    def and2(self, a, b, origin=""):
        return self.gate("AND2", (a, b), origin)

    def or2(self, a, b, origin=""):
        return self.gate("OR2", (a, b), origin)

    def xor2(self, a, b, origin=""):
        return self.gate("XOR2", (a, b), origin)

    def mux2(self, s, a, b, origin=""):
        return self.gate("MUX2", (s, a, b), origin)

    # -- multi-bit building blocks -----------------------------------------

    def _tree(self, cell, nets, origin):
        """Balanced reduction tree (keeps logic depth logarithmic)."""
        nets = list(nets)
        if not nets:
            raise SynthesisError("empty reduction")
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.gate(cell, (nets[i], nets[i + 1]), origin))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def full_adder(self, a, b, cin, origin):
        p = self.xor2(a, b, origin)
        s = self.xor2(p, cin, origin)
        g1 = self.and2(a, b, origin)
        g2 = self.and2(p, cin, origin)
        cout = self.or2(g1, g2, origin)
        return s, cout

    def ripple_add(self, a_bits, b_bits, width, origin, cin=CONST0):
        """a + b + cin, producing ``width`` sum bits and the carry out."""
        out = []
        carry = cin
        for i in range(width):
            a = a_bits[i] if i < len(a_bits) else CONST0
            b = b_bits[i] if i < len(b_bits) else CONST0
            s, carry = self.full_adder(a, b, carry, origin)
            out.append(s)
        return out, carry

    def unsigned_lt(self, a_bits, b_bits, origin):
        """a < b via the borrow of a - b."""
        width = max(len(a_bits), len(b_bits))
        inv_b = [self.inv(b_bits[i] if i < len(b_bits) else CONST0, origin)
                 for i in range(width)]
        a_pad = [a_bits[i] if i < len(a_bits) else CONST0
                 for i in range(width)]
        _, carry = self.ripple_add(a_pad, inv_b, width, origin, cin=CONST1)
        return self.inv(carry, origin)

    def mux_bits(self, sel, a_bits, b_bits, width, origin):
        out = []
        for i in range(width):
            a = a_bits[i] if i < len(a_bits) else CONST0
            b = b_bits[i] if i < len(b_bits) else CONST0
            out.append(self.mux2(sel, a, b, origin))
        return out

    # -- node lowering ---------------------------------------------------------

    def lower(self, node):
        origin = self.circuit.origin(node)
        op = node.op
        w = node.width

        def arg_bits(i, width=None):
            bits = self.bits_of(node.args[i])
            if width is None:
                return bits
            return [bits[j] if j < len(bits) else CONST0
                    for j in range(width)]

        if op == "const":
            value = node.params
            return [CONST1 if (value >> i) & 1 else CONST0
                    for i in range(w)]
        if op == "not":
            return [self.inv(b, origin) for b in arg_bits(0, w)]
        if op in ("and", "or", "xor"):
            cell = {"and": "AND2", "or": "OR2", "xor": "XOR2"}[op]
            a, b = arg_bits(0, w), arg_bits(1, w)
            return [self.gate(cell, (a[i], b[i]), origin) for i in range(w)]
        if op == "add":
            if max(node.args[0].width, node.args[1].width) + 1 > w:
                # width-capped add: wrap modulo 2^w, no carry-out bit
                out, _ = self.ripple_add(arg_bits(0), arg_bits(1), w,
                                         origin)
                return out
            out, carry = self.ripple_add(arg_bits(0), arg_bits(1), w - 1,
                                         origin)
            return out + [carry]
        if op == "sub":
            inv_b = [self.inv(b, origin) for b in arg_bits(1, w)]
            out, _ = self.ripple_add(arg_bits(0, w), inv_b, w, origin,
                                     cin=CONST1)
            return out
        if op == "mul":
            return self._lower_mul(node, origin)
        if op in ("divu", "modu"):
            return self._lower_div(node, origin)
        if op in ("shl", "shr", "sra"):
            return self._lower_shift(node, origin)
        if op == "eq" or op == "neq":
            width = max(node.args[0].width, node.args[1].width)
            a, b = arg_bits(0, width), arg_bits(1, width)
            diffs = [self.xor2(a[i], b[i], origin) for i in range(width)]
            any_diff = self._tree("OR2", diffs, origin)
            return [any_diff if op == "neq" else self.inv(any_diff, origin)]
        if op in ("ltu", "leu", "lts", "les"):
            return self._lower_compare(node, origin)
        if op == "cat":
            lo = self.bits_of(node.args[1])
            hi = self.bits_of(node.args[0])
            return (lo + hi)[:w]
        if op == "bits":
            hi, lo = node.params
            return self.bits_of(node.args[0])[lo:hi + 1]
        if op == "mux":
            sel = self.bits_of(node.args[0])[0]
            return self.mux_bits(sel, arg_bits(1, w), arg_bits(2, w), w,
                                 origin)
        if op == "orr":
            return [self._tree("OR2", arg_bits(0), origin)]
        if op == "andr":
            return [self._tree("AND2", arg_bits(0), origin)]
        if op == "xorr":
            return [self._tree("XOR2", arg_bits(0), origin)]
        if op == "memread":
            return self._lower_memread(node, origin)
        raise SynthesisError(f"cannot synthesize op {op!r}")

    def _lower_mul(self, node, origin):
        w = node.width
        a_bits = self.bits_of(node.args[0])
        b_bits = self.bits_of(node.args[1])
        acc = [CONST0] * w
        for i, b in enumerate(b_bits):
            if i >= w:
                break
            row_width = min(len(a_bits), w - i)
            partial = [self.and2(a_bits[j], b, origin)
                       for j in range(row_width)]
            upper, _ = self.ripple_add(acc[i:], partial, w - i, origin)
            acc = acc[:i] + upper
        return acc

    def _lower_div(self, node, origin):
        """Restoring division array; RISC-V x/0 semantics fall out."""
        a_bits = self.bits_of(node.args[0])
        b_bits = self.bits_of(node.args[1])
        wa, wb = len(a_bits), len(b_bits)
        rw = wb + 1
        remainder = [CONST0] * rw
        quotient = [CONST0] * wa
        b_pad = [b_bits[i] if i < wb else CONST0 for i in range(rw)]
        inv_b = [self.inv(b, origin) for b in b_pad]
        for i in range(wa - 1, -1, -1):
            shifted = [a_bits[i]] + remainder[:rw - 1]
            trial, carry = self.ripple_add(shifted, inv_b, rw, origin,
                                           cin=CONST1)
            quotient[i] = carry  # carry==1 means shifted >= b
            remainder = self.mux_bits(carry, trial, shifted, rw, origin)
        if node.op == "divu":
            out = quotient
        else:
            out = remainder
        return [out[i] if i < len(out) else CONST0
                for i in range(node.width)]

    def _lower_shift(self, node, origin):
        w = node.width
        src = self.bits_of(node.args[0])
        value = [src[i] if i < len(src) else CONST0 for i in range(w)]
        shamt_node = node.args[1]
        fill = CONST0
        if node.op == "sra":
            fill = src[-1]
        if shamt_node.op == "const":
            amount = shamt_node.params
            return self._static_shift(node.op, value, amount, w, fill)
        shamt = self.bits_of(shamt_node)
        for k, sel in enumerate(shamt):
            distance = 1 << k
            if distance >= w:
                # shifting by >= w clears (or sign-fills) everything
                value = self.mux_bits(sel, [fill] * w, value, w, origin)
                continue
            shifted = self._static_shift(node.op, value, distance, w, fill)
            value = self.mux_bits(sel, shifted, value, w, origin)
        return value

    @staticmethod
    def _static_shift(op, value, amount, w, fill):
        if amount == 0:
            return list(value)
        if amount >= w:
            return [fill if op == "sra" else CONST0] * w
        if op == "shl":
            return [CONST0] * amount + value[:w - amount]
        filler = fill if op == "sra" else CONST0
        return value[amount:] + [filler] * amount

    def _lower_compare(self, node, origin):
        a_bits = list(self.bits_of(node.args[0]))
        b_bits = list(self.bits_of(node.args[1]))
        width = max(len(a_bits), len(b_bits))
        a = [a_bits[i] if i < len(a_bits) else CONST0 for i in range(width)]
        b = [b_bits[i] if i < len(b_bits) else CONST0 for i in range(width)]
        if node.op in ("lts", "les"):
            # flip sign bits to reduce signed compare to unsigned
            a[-1] = self.inv(a[-1], origin)
            b[-1] = self.inv(b[-1], origin)
        if node.op in ("ltu", "lts"):
            return [self.unsigned_lt(a, b, origin)]
        # leu/les: a <= b  ==  not (b < a)
        return [self.inv(self.unsigned_lt(b, a, origin), origin)]

    def _lower_memread(self, node, origin):
        macro = self._macro_for(node.mem)
        addr_bits = self.bits_of(node.args[0])
        addr = [addr_bits[i] if i < len(addr_bits) else CONST0
                for i in range(node.mem.addr_width)]
        data = self.netlist.new_nets(node.mem.width)
        macro.read_ports.append((addr, data))
        return data

    def _macro_for(self, mem):
        for macro in self.netlist.srams:
            if macro.name == mem.path:
                return macro
        macro = SramMacro(mem.path, mem.depth, mem.width,
                          origin=mem.path)
        self.netlist.srams.append(macro)
        return macro


def synthesize(circuit, name=None):
    """Run synthesis; returns ``(GateNetlist, SynthesisHints)``."""
    netlist = GateNetlist(name or f"{circuit.name}_gl")
    mapper = _Mapper(circuit, netlist)
    hints = SynthesisHints()

    retimed_prefixes = [block.prefix for block in circuit.retimed_blocks]

    def in_retimed(path):
        return any(path.startswith(p) for p in retimed_prefixes)

    # Primary inputs and registers define the initial net frontier.
    for node in circuit.inputs:
        nets = netlist.new_nets(node.width)
        netlist.inputs[node.name] = nets
        mapper.bits[node] = nets
    for reg in circuit.regs:
        mapper.bits[reg] = netlist.new_nets(reg.width)

    for node in circuit.comb_order:
        bits = mapper.lower(node)
        if len(bits) != node.width:
            raise SynthesisError(
                f"lowering width mismatch for {node!r}: "
                f"{len(bits)} != {node.width}")
        mapper.bits[node] = bits

    # Flip-flops: optimization may tie constants or merge duplicates, and
    # every surviving FF gets a mangled gate-level name.
    dff_cache = {}  # (d_net, init, q_net_of_reg?) -> name; merge duplicates
    for reg in circuit.regs:
        q_nets = mapper.bits[reg]
        d_nets = mapper.bits_of(circuit.reg_next[reg])
        origin = reg.path   # full path: enables fine power attribution
        retimed = in_retimed(reg.path)
        for bit in range(reg.width):
            init_bit = (reg.init >> bit) & 1
            d = d_nets[bit]
            q = q_nets[bit]
            key = (reg.path, bit)
            if retimed:
                # CAD-rebalanced: instantiate, but report unmatchable.
                dff_name = f"U_rt_{len(netlist.dffs)}"
                netlist.dffs.append(_make_dff(d, q, init_bit, dff_name,
                                              origin))
                hints.dff_map[key] = DffHint("retimed")
                continue
            if d == q:
                # feedback-only register: its value is frozen at init
                _tie(netlist, q, CONST1 if init_bit else CONST0)
                hints.dff_map[key] = DffHint("const", value=init_bit)
                hints.removed_const_dffs += 1
                continue
            if d in (CONST0, CONST1) and (d == CONST1) == bool(init_bit):
                # constant register: FF removed, net tied
                _tie(netlist, q, d)
                hints.dff_map[key] = DffHint("const",
                                             value=int(d == CONST1))
                hints.removed_const_dffs += 1
                continue
            merge_key = (d, init_bit)
            if merge_key in dff_cache:
                merged_name, merged_q = dff_cache[merge_key]
                _tie(netlist, q, merged_q)
                hints.dff_map[key] = DffHint("merged", name=merged_name)
                hints.merged_dffs += 1
                continue
            dff_name = mangle(reg.path, bit)
            netlist.dffs.append(_make_dff(d, q, init_bit, dff_name, origin))
            dff_cache[merge_key] = (dff_name, q)
            hints.dff_map[key] = DffHint("dff", name=dff_name)

    # Memory write ports.
    for mem in circuit.mems:
        macro = mapper._macro_for(mem)
        for addr, data, en in mem.writes:
            addr_bits = mapper.bits_of(addr)[:mem.addr_width]
            addr_bits += [CONST0] * (mem.addr_width - len(addr_bits))
            data_bits = mapper.bits_of(data)[:mem.width]
            en_bit = mapper.bits_of(en)[0]
            macro.write_ports.append((en_bit, addr_bits, data_bits))

    # Primary outputs.
    for out_name, driver in circuit.outputs:
        netlist.outputs[out_name] = list(mapper.bits_of(driver))

    # Preserve retimed-block input nets so replays can force them.
    for block in circuit.retimed_blocks:
        hint = RetimedHint(block.prefix, block.latency)
        for rin in block.inputs:
            label = f"{block.prefix}{rin.name}"
            nets = mapper.bits_of(rin.driver)
            netlist.preserved_nets[label] = list(nets)
            hint.inputs.append((rin.name, rin.width, label,
                                list(rin.hist_reg_paths)))
        hints.retimed.append(hint)

    _resolve_ties(netlist)
    return netlist, hints


class SynthesisPass(Pass):
    """:func:`synthesize` as a pipeline pass (thin wrapper).

    Reads the elaborated circuit, leaves it untouched, and deposits the
    ``netlist`` + ``hints`` artifacts in the pass context.  An optional
    ``refine_fn(netlist)`` post-processes attribution (the SoC flow
    passes :func:`repro.core.attribution.refine_attribution`); it is a
    declared parameter, so flows with different refiners never share
    cached artifacts.
    """

    name = "synthesis"
    requires = ("elaborated",)
    produces = ("netlist",)

    def __init__(self, refine_fn=None):
        super().__init__(refine_fn=refine_fn)
        self.refine_fn = refine_fn

    def run(self, circuit, ctx):
        netlist, hints = synthesize(circuit)
        if self.refine_fn is not None:
            self.refine_fn(netlist)
        return PassResult(
            artifacts={"netlist": netlist, "hints": hints},
            stats={"gates": len(netlist.gates),
                   "dffs": len(netlist.dffs),
                   "srams": len(netlist.srams),
                   "removed_const_dffs": hints.removed_const_dffs,
                   "merged_dffs": hints.merged_dffs})


def _make_dff(d, q, init, name, origin):
    from .netlist import Dff
    dff = Dff(d, q, init, name, origin)
    return dff


def _tie(netlist, net, to_net):
    """Record that ``net`` must be driven by ``to_net`` (alias)."""
    if not hasattr(netlist, "_ties"):
        netlist._ties = {}
    netlist._ties[net] = to_net


def _resolve_ties(netlist):
    """Rewrite all references to tied nets (register Q aliases)."""
    ties = getattr(netlist, "_ties", None)
    if not ties:
        return

    def resolve(net):
        seen = set()
        while net in ties:
            if net in seen:
                raise SynthesisError("tie cycle")
            seen.add(net)
            net = ties[net]
        return net

    for gate in netlist.gates:
        gate.inputs = tuple(resolve(n) for n in gate.inputs)
    for dff in netlist.dffs:
        dff.d = resolve(dff.d)
    for macro in netlist.srams:
        macro.read_ports = [([resolve(n) for n in addr],
                             data)
                            for addr, data in macro.read_ports]
        macro.write_ports = [(resolve(en), [resolve(n) for n in addr],
                              [resolve(n) for n in data])
                             for en, addr, data in macro.write_ports]
    for name, nets in netlist.outputs.items():
        netlist.outputs[name] = [resolve(n) for n in nets]
    for label, nets in netlist.preserved_nets.items():
        netlist.preserved_nets[label] = [resolve(n) for n in nets]
    netlist._ties = {}
