"""Elaboration: module tree -> flat, topologically ordered Circuit.

Mirrors the Chisel/FIRRTL lowering step.  The output :class:`Circuit` is
the substrate every transform pass (FAME1, scan chains, synthesis) and
both simulators consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import Node, mux
from .dsl import Module


class ElaborationError(Exception):
    """Raised for unresolvable designs (loops, undriven inputs, clashes)."""


@dataclass
class RetimedInput:
    """One input port of a retimed block, plus its history registers."""

    name: str
    width: int
    driver: Node              # canonical net feeding the block input
    hist_reg_paths: list      # paths of h_1..h_n (h_k = input at t-k)


@dataclass
class RetimedBlock:
    """A designer-annotated retimed datapath (Section IV-C3)."""

    prefix: str               # hierarchical prefix, e.g. "core.fpu."
    latency: int
    inputs: list              # list[RetimedInput]


class Circuit:
    """A flattened synchronous design.

    Attributes:
        name: design name.
        inputs: list of top-level input Nodes (op ``input``).
        outputs: list of ``(name, driver Node)`` for top-level outputs.
        regs: list of register Nodes; ``reg_next[reg]`` is the next-state
            driver and ``reg.init`` the reset value.
        mems: list of MemDecl with canonicalized write/read ports.
        comb_order: all operator nodes in dependency order.
    """

    def __init__(self, name, inputs, outputs, regs, reg_next, mems):
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.regs = regs
        self.reg_next = reg_next
        self.mems = mems
        self.comb_order = []
        self.module_prefixes = {}
        self.retimed_blocks = []
        self.retopo()

    def origin(self, node):
        """Hierarchical attribution path for a node (may be '')."""
        if node.path:
            prefix, _, _ = node.path.rpartition(".")
            return prefix
        module = getattr(node, "_module", None)
        if module is not None:
            prefix = self.module_prefixes.get(id(module))
            if prefix is not None:
                return prefix.rstrip(".")
        return ""

    # -- derived views -----------------------------------------------------

    def reg_by_path(self, path):
        for reg in self.regs:
            if reg.path == path:
                return reg
        raise KeyError(f"no register at path {path!r}")

    def state_bits(self):
        """Total architectural state in bits (registers + memories)."""
        reg_bits = sum(r.width for r in self.regs)
        mem_bits = sum(m.depth * m.width for m in self.mems)
        return reg_bits, mem_bits

    def stats(self):
        ops = {}
        for node in self.comb_order:
            ops[node.op] = ops.get(node.op, 0) + 1
        return {
            "name": self.name,
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "registers": len(self.regs),
            "memories": len(self.mems),
            "comb_nodes": len(self.comb_order),
            "ops": ops,
        }

    # -- graph maintenance ---------------------------------------------------

    def sinks(self):
        """Every node the circuit observes (outputs, reg nexts, mem ports)."""
        result = [driver for _, driver in self.outputs]
        result.extend(self.reg_next[r] for r in self.regs)
        for mem in self.mems:
            for addr, data, en in mem.writes:
                result.extend((addr, data, en))
            result.extend(mem.read_ports)
        return result

    def retopo(self):
        """Recompute ``comb_order`` after a transform rewrites the graph."""
        order = []
        state = {}  # node -> 1 in-progress, 2 done
        for sink in self.sinks():
            if state.get(sink) == 2:
                continue
            stack = [(sink, 0)]
            while stack:
                node, phase = stack.pop()
                if phase == 0:
                    st = state.get(node)
                    if st == 2:
                        continue
                    if st == 1:
                        raise ElaborationError(
                            f"combinational loop through {node!r}")
                    state[node] = 1
                    stack.append((node, 1))
                    if node.op not in ("const", "input", "reg"):
                        for arg in node.args:
                            if state.get(arg) != 2:
                                stack.append((arg, 0))
                else:
                    if state[node] != 2:
                        state[node] = 2
                        if node.op not in ("const", "input", "reg"):
                            order.append(node)
        self.comb_order = order


def _fold_assigns(target, entries):
    """Fold an ordered (condition, value) list into one driver expression.

    Registers default to holding their value; wires fall back to their
    declared default (``args[0]``). Later assignments win (last-connect).
    """
    if target.op == "reg":
        driver = target
    elif target.op == "wire":
        driver = target.args[0]
    else:
        driver = None  # child input port: needs an unconditional base
    for cond, value in entries:
        if cond is None:
            driver = value
        elif driver is None:
            raise ElaborationError(
                f"input port {target.name!r} is only driven conditionally; "
                "add an unconditional default connection first")
        else:
            driver = mux(cond, value, driver)
    if driver is None:
        raise ElaborationError(f"{target!r} has no driver")
    if driver.width != target.width:
        driver = driver.resize(target.width)
    return driver


def elaborate(top, name=None):
    """Flatten a module tree into a :class:`Circuit`."""
    if not isinstance(top, Module):
        raise TypeError("elaborate() expects a Module")
    top._ensure_built()

    modules = []          # (path_prefix, module)
    seen = set()

    def walk(module, prefix):
        if id(module) in seen:
            raise ElaborationError(
                f"module object {module.name!r} instantiated twice; "
                "construct a fresh object per instance")
        seen.add(id(module))
        modules.append((prefix, module))
        child_names = set()
        for inst_name, child in module._instances:
            if inst_name in child_names:
                raise ElaborationError(
                    f"duplicate instance name {inst_name!r} in {module.name}")
            child_names.add(inst_name)
            walk(child, f"{prefix}{inst_name}.")

    walk(top, "")

    # Name every stateful/port node with its hierarchical path.
    used_paths = set()

    def set_path(node, prefix):
        base = f"{prefix}{node.name}"
        path = base
        suffix = 1
        while path in used_paths:
            path = f"{base}_{suffix}"
            suffix += 1
        used_paths.add(path)
        node.path = path

    for prefix, module in modules:
        for reg in module._regs:
            set_path(reg, prefix)
        for mem in module._mems:
            set_path(mem, prefix)

    # Resolve all assignments into single drivers; build the alias map for
    # wires and non-top input ports.
    driver_of = {}
    assigned_targets = set()
    for _prefix, module in modules:
        for target in module._assign_order:
            if target in assigned_targets:
                raise ElaborationError(
                    f"{target!r} is assigned from more than one module")
            assigned_targets.add(target)
            driver_of[target] = _fold_assigns(target, module._assigns[target])

    alias = {}
    for prefix, module in modules:
        is_top = module is top
        for wire_node in list(module._wires) + list(module._outputs.values()):
            alias[wire_node] = driver_of.get(wire_node, wire_node.args[0])
        if not is_top:
            for inp in module._inputs.values():
                if inp not in driver_of:
                    raise ElaborationError(
                        f"input {prefix}{inp.name} is never driven")
                alias[inp] = driver_of[inp]

    # Canonicalize: chase aliases and rewrite args in place, iteratively.
    resolved = {}
    in_progress = set()

    def canon(root):
        stack = [(root, 0)]
        while stack:
            node, phase = stack.pop()
            if node in resolved:
                continue
            if phase == 0:
                if node in in_progress:
                    raise ElaborationError(
                        f"combinational cycle through {node!r}")
                in_progress.add(node)
                stack.append((node, 1))
                if node in alias:
                    target = alias[node]
                    if target not in resolved:
                        stack.append((target, 0))
                elif node.op not in ("const", "input", "reg"):
                    for arg in node.args:
                        if arg not in resolved:
                            stack.append((arg, 0))
            else:
                in_progress.discard(node)
                if node in alias:
                    resolved[node] = resolved[alias[node]]
                else:
                    node.args = tuple(resolved[a] for a in node.args)
                    resolved[node] = node
        return resolved[root]

    outputs = []
    for out_name, out_node in top._outputs.items():
        outputs.append((out_name, canon(out_node)))

    regs = []
    reg_next = {}
    for _prefix, module in modules:
        for reg in module._regs:
            regs.append(reg)
            driver = driver_of.get(reg, reg)
            reg_next[reg] = canon(driver)

    mems = []
    for _prefix, module in modules:
        for mem in module._mems:
            mem.writes = [(canon(a), canon(d), canon(e))
                          for a, d, e in mem.writes]
            live_ports = []
            for port in mem.read_ports:
                port.args = (canon(port.args[0]),)
                resolved[port] = port
                live_ports.append(port)
            mem.read_ports = live_ports
            mems.append(mem)

    inputs = list(top._inputs.values())
    for node in inputs:
        node.path = node.name

    # Retimed datapaths (Section IV-C3): add input-history shift registers
    # so replays can recover CAD-rebalanced internal state by forcing the
    # block's inputs for `latency` cycles.
    retimed_blocks = []
    for prefix, module in modules:
        latency = module._retime_latency
        if latency is None:
            continue
        block_inputs = []
        for port_name, port in module._inputs.items():
            driver = canon(alias[port]) if port in alias else port
            hist_paths = []
            prev = driver
            for k in range(1, latency + 1):
                hist = Node("reg", port.width,
                            name=f"__rt_hist_{port_name}_{k}")
                hist.path = f"{prefix}__rt_hist_{port_name}_{k}"
                hist._module = module
                used_paths.add(hist.path)
                regs.append(hist)
                reg_next[hist] = prev
                prev = hist
            hist_paths = [f"{prefix}__rt_hist_{port_name}_{k}"
                          for k in range(1, latency + 1)]
            block_inputs.append(RetimedInput(port_name, port.width,
                                             driver, hist_paths))
        retimed_blocks.append(RetimedBlock(prefix, latency, block_inputs))

    circuit = Circuit(name or top.name, inputs, outputs, regs, reg_next,
                      mems)
    circuit.module_prefixes = {id(module): prefix
                               for prefix, module in modules}
    circuit.retimed_blocks = retimed_blocks
    return circuit
