"""Optional C backend for the RTL simulator.

Lowers a Circuit to C, which :mod:`repro.native` compiles, caches (kind
``csim``, keyed by the generated source) and loads through ctypes.
Gives one-to-two orders of magnitude speedup over the generated-Python
backend, standing in for the FPGA acceleration the paper uses.  The
evaluation is split into ``eval_k`` functions of :data:`_CHUNK` nodes;
inside one, node values are ``const`` locals that gcc keeps in
registers, and only a value read by a later chunk, by ``commit_state``
or by ``write_outputs`` is stored to the static ``V[]`` array.  Raises
:class:`~repro.native.ToolchainUnavailable` when no compiler is present;
callers use :func:`repro.sim.make_simulator`, which falls back.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .. import native
from ..hdl.ir import mask
from .state import mem_dtype

# Nodes per generated eval_k function.  On boom-1w_mini (7,595 nodes)
# the -O1 build takes ~2 s anywhere from 200 to 1,500 (700 read lowest)
# and 2.5 s at 3,000; the per-cycle time is flat across that range.
_CHUNK = 700
_CFLAGS = ("-O1", "-fPIC", "-shared")

# The fixed part of every generated simulator: the cycle entry point and
# the multi-cycle ``run_quiet`` loop and the state-access exports.  The
# design-specific part before it defines N_IN/N_OUT/N_REGS/N_MEMS,
# V/R/GIN, the MEM tables, eval_all, commit_state and write_outputs.
RUNTIME_C = """
void cycle(const uint64_t* IN, uint64_t* OUT, int commit) {
  memcpy(GIN, IN, N_IN * sizeof(uint64_t));
  eval_all();
  write_outputs(OUT);
  if (commit) commit_state();
}

/* Step up to n cycles with one input vector.  Before each cycle, stop
   if any of the n_wake OUT indices in wake is nonzero; when rows is not
   null, copy each stepped cycle's outputs to the next N_OUT-word row.
   Returns the number of cycles stepped. */
uint64_t run_quiet(const uint64_t* IN, uint64_t* OUT, uint64_t n,
                   const int64_t* wake, int64_t n_wake, uint64_t* rows) {
  uint64_t j;
  int64_t w;
  memcpy(GIN, IN, N_IN * sizeof(uint64_t));
  for (j = 0; j < n; j++) {
    for (w = 0; w < n_wake; w++)
      if (OUT[wake[w]]) return j;
    eval_all();
    write_outputs(OUT);
    commit_state();
    if (rows) memcpy(rows + j * N_OUT, OUT, N_OUT * sizeof(uint64_t));
  }
  return n;
}

void set_regs(const uint64_t* in) { memcpy(R, in, sizeof(R)); }
uint64_t reg_get(int64_t i) { return R[i]; }
void reg_set(int64_t i, uint64_t value) { R[i] = value; }

uint64_t mem_get(int mem, uint64_t addr) { return MEMS[mem][addr]; }
void mem_set(int mem, uint64_t addr, uint64_t value) {
  MEMS[mem][addr] = value;
}

/* Bulk copies between a memory and a buffer of its word size
   (MEM_BYTES: 1, 2, 4 or 8 bytes per word). */
void mem_read(int mem, uint64_t off, uint64_t n, void* out) {
  const uint64_t* m = MEMS[mem] + off;
  uint64_t k;
  switch (MEM_BYTES[mem]) {
    case 1: for (k = 0; k < n; k++) ((uint8_t*)out)[k] = (uint8_t)m[k]; break;
    case 2: for (k = 0; k < n; k++) ((uint16_t*)out)[k] = (uint16_t)m[k]; break;
    case 4: for (k = 0; k < n; k++) ((uint32_t*)out)[k] = (uint32_t)m[k]; break;
    default: memcpy(out, m, n * sizeof(uint64_t));
  }
}

/* The whole state in one call, into one caller buffer: the register
   file at byte 0, then memory i at byte MEM_OFF[i] in its MEM_BYTES
   word size. */
void state_read(uint8_t* out) {
  int64_t i;
  memcpy(out, R, N_REGS * sizeof(uint64_t));
  for (i = 0; i < N_MEMS; i++)
    mem_read((int)i, 0, MEM_DEPTH[i], out + MEM_OFF[i]);
}

void mem_write(int mem, uint64_t off, uint64_t n, const void* in) {
  uint64_t* m = MEMS[mem] + off;
  uint64_t k;
  switch (MEM_BYTES[mem]) {
    case 1: for (k = 0; k < n; k++) m[k] = ((const uint8_t*)in)[k]; break;
    case 2: for (k = 0; k < n; k++) m[k] = ((const uint16_t*)in)[k]; break;
    case 4: for (k = 0; k < n; k++) m[k] = ((const uint32_t*)in)[k]; break;
    default: memcpy(m, in, n * sizeof(uint64_t));
  }
}
"""


def _mask_expr(expr, width):
    if width >= 64:
        return expr
    return f"({expr} & {mask(width)}ULL)"


def _lower_c(node, ref, mem_index):
    op = node.op
    w = node.width
    if op == "const":
        return f"{node.params}ULL"
    args = [ref(a) for a in node.args]
    if op == "memread":
        mem = node.mem
        expr = f"MEM{mem_index[mem]}[{args[0]}]"
        if (1 << node.args[0].width) > mem.depth:
            expr = f"(({args[0]} < {mem.depth}ULL) ? {expr} : 0ULL)"
        return expr
    if op == "add":
        return _mask_expr(f"({args[0]} + {args[1]})", w)
    if op == "sub":
        return _mask_expr(f"({args[0]} - {args[1]})", w)
    if op == "mul":
        return _mask_expr(f"({args[0]} * {args[1]})", w)
    if op == "divu":
        return f"({args[1]} ? ({args[0]} / {args[1]}) : {mask(w)}ULL)"
    if op == "modu":
        return f"({args[1]} ? ({args[0]} % {args[1]}) : {args[0]})"
    if op == "and":
        return f"({args[0]} & {args[1]})"
    if op == "or":
        return f"({args[0]} | {args[1]})"
    if op == "xor":
        return f"({args[0]} ^ {args[1]})"
    if op == "not":
        return f"({args[0]} ^ {mask(w)}ULL)"
    if op == "shl":
        amount = node.args[1]
        if amount.op == "const":
            if amount.params >= 64:
                return "0ULL"
            return _mask_expr(f"({args[0]} << {amount.params})", w)
        return (f"(({args[1]} >= 64) ? 0ULL : "
                + _mask_expr(f"({args[0]} << {args[1]})", w) + ")")
    if op == "shr":
        amount = node.args[1]
        if amount.op == "const":
            if amount.params >= 64:
                return "0ULL"
            return f"({args[0]} >> {amount.params})"
        return f"(({args[1]} >= 64) ? 0ULL : ({args[0]} >> {args[1]}))"
    if op == "sra":
        wa = node.args[0].width
        sign = 1 << (wa - 1)
        signed = f"((int64_t)(({args[0]} ^ {sign}ULL) - {sign}ULL))"
        shamt = f"(({args[1]} > 63) ? 63 : {args[1]})"
        return _mask_expr(f"((uint64_t)({signed} >> {shamt}))", w)
    if op == "eq":
        return f"({args[0]} == {args[1]})"
    if op == "neq":
        return f"({args[0]} != {args[1]})"
    if op == "ltu":
        return f"({args[0]} < {args[1]})"
    if op == "leu":
        return f"({args[0]} <= {args[1]})"
    if op in ("lts", "les"):
        wa = node.args[0].width
        sign = 1 << (wa - 1)
        sa = f"((int64_t)(({args[0]} ^ {sign}ULL) - {sign}ULL))"
        sb = f"((int64_t)(({args[1]} ^ {sign}ULL) - {sign}ULL))"
        cmp = "<" if op == "lts" else "<="
        return f"({sa} {cmp} {sb})"
    if op == "cat":
        lo_w = node.args[1].width
        if lo_w >= 64:
            return args[1]
        return _mask_expr(f"(({args[0]} << {lo_w}) | {args[1]})", w)
    if op == "bits":
        hi, lo = node.params
        src_w = node.args[0].width
        if lo == 0 and hi == src_w - 1:
            return args[0]
        if hi == src_w - 1:
            return f"({args[0]} >> {lo})"
        return f"(({args[0]} >> {lo}) & {mask(w)}ULL)"
    if op == "mux":
        return f"({args[0]} ? {args[1]} : {args[2]})"
    if op == "orr":
        return f"({args[0]} != 0ULL)"
    if op == "andr":
        return f"({args[0]} == {mask(node.args[0].width)}ULL)"
    if op == "xorr":
        return f"((uint64_t)__builtin_parityll({args[0]}))"
    raise native.ToolchainUnavailable(f"cannot lower op {op!r} to C")


def generate_c_source(circuit):
    """Emit the full C translation unit for a circuit."""
    in_index = {node.name: i for i, node in enumerate(circuit.inputs)}
    out_index = {name: i for i, (name, _) in enumerate(circuit.outputs)}
    reg_index = {reg: i for i, reg in enumerate(circuit.regs)}
    mem_index = {mem: i for i, mem in enumerate(circuit.mems)}

    # A node value is a const local of its own chunk; only values read
    # by a later chunk, commit_state or write_outputs are also stored to
    # a V[] slot.  Stores to the static V[] slow gcc's alias and
    # dead-store passes down and keep values out of registers.
    order = circuit.comb_order
    chunk = {node: i // _CHUNK for i, node in enumerate(order)}
    shared = [*circuit.reg_next.values(),
              *(driver for _, driver in circuit.outputs)]
    for mem in circuit.mems:
        for port in mem.writes:
            shared.extend(port)
    for node in order:
        shared.extend(arg for arg in node.args
                      if chunk.get(arg, chunk[node]) != chunk[node])
    slot = {}
    for node in shared:
        if node in chunk and node not in slot:
            slot[node] = len(slot)
    local = {node: f"t{i}" for i, node in enumerate(order)}

    def ref(node):
        if node.op == "const":
            return f"{node.params}ULL"
        if node.op == "input":
            return f"GIN[{in_index[node.name]}]"
        if node.op == "reg":
            return f"R[{reg_index[node]}]"
        return f"V[{slot[node]}]"

    parts = [
        "#include <stdint.h>",
        "#include <string.h>",
        f"static uint64_t V[{max(len(slot), 1)}];",
        f"static uint64_t R[{max(len(circuit.regs), 1)}];",
        f"static uint64_t GIN[{max(len(circuit.inputs), 1)}];",
        f"static const uint64_t N_IN = {len(circuit.inputs)};",
        f"static const uint64_t N_OUT = {len(circuit.outputs)};",
    ]
    for mem, idx in mem_index.items():
        parts.append(f"static uint64_t MEM{idx}[{mem.depth}];")
    # memory table + per-memory word size for the bulk exports
    parts.append("static uint64_t* const MEMS[] = {"
                 + (", ".join(f"MEM{i}" for i in mem_index.values())
                    or "0") + "};")
    parts.append("static const int MEM_BYTES[] = {"
                 + (", ".join(str(mem_dtype(mem.width).itemsize)
                              for mem in mem_index) or "0") + "};")
    # state_read's buffer: the registers, then every memory at an
    # 8-byte-aligned offset; state_views = (path, start, end, dtype)
    state_views, state_bytes = [], 8 * len(circuit.regs)
    for mem in mem_index:
        dtype = mem_dtype(mem.width)
        size = mem.depth * dtype.itemsize
        state_views.append((mem.path, state_bytes, state_bytes + size, dtype))
        state_bytes += -(-size // 8) * 8
    parts.append(f"static const int64_t N_REGS = {len(circuit.regs)};")
    parts.append(f"static const int64_t N_MEMS = {len(mem_index)};")
    parts.append("static const uint64_t MEM_DEPTH[] = {"
                 + (", ".join(str(mem.depth) for mem in mem_index) or "0")
                 + "};")
    parts.append("static const uint64_t MEM_OFF[] = {"
                 + (", ".join(str(view[1]) for view in state_views) or "0")
                 + "};")

    def chunk_ref(arg):
        return local[arg] if chunk.get(arg) == here else ref(arg)

    chunk_fns = []
    for here, start in enumerate(range(0, len(order), _CHUNK)):
        chunk_fns.append(f"eval_{here}")
        parts.append(f"static void eval_{here}(void) {{")
        for node in order[start:start + _CHUNK]:
            parts.append(f"  const uint64_t {local[node]} = "
                         f"{_lower_c(node, chunk_ref, mem_index)};")
            if node in slot:
                parts.append(f"  V[{slot[node]}] = {local[node]};")
        parts.append("}")

    parts.append("static void eval_all(void) {")
    parts.extend(f"  {fn}();" for fn in chunk_fns)
    parts.append("}")

    parts.append("static void commit_state(void) {")
    # Register updates must all read pre-edge values: comb results are in
    # V[] already, but reg-to-reg moves read R[] directly, so stage them.
    parts.append(f"  static uint64_t RN[{max(len(circuit.regs), 1)}];")
    for reg, idx in reg_index.items():
        parts.append(f"  RN[{idx}] = {ref(circuit.reg_next[reg])};")
    for mem, midx in mem_index.items():
        for addr, data, en in mem.writes:
            guard = ref(en)
            addr_expr = ref(addr)
            if (1 << addr.width) > mem.depth:
                guard = f"({guard} && {addr_expr} < {mem.depth}ULL)"
            parts.append(
                f"  if ({guard}) MEM{midx}[{addr_expr}] = {ref(data)};")
    parts.append("  memcpy(R, RN, sizeof(R));")
    parts.append("}")

    parts.append("static void write_outputs(uint64_t* OUT) {")
    parts.extend(f"  OUT[{out_index[name]}] = {ref(driver)};"
                 for name, driver in circuit.outputs)
    parts.append("}")
    parts.append(RUNTIME_C)
    layout = {
        "in_index": in_index,
        "out_index": out_index,
        "reg_index": {reg.path: i for reg, i in reg_index.items()},
        "mem_index": {mem.path: i for mem, i in mem_index.items()},
        "state_views": state_views,
        "state_bytes": state_bytes,
    }
    return "\n".join(parts), layout


_U64P = ctypes.POINTER(ctypes.c_uint64)

# (symbol, argtypes, restype) of every export RTLSimulator uses; all are
# resolved at load time, so an object lacking one is rebuilt at once.
_EXPORTS = (
    ("cycle", [_U64P, _U64P, ctypes.c_int], None),
    ("run_quiet", [_U64P, _U64P, ctypes.c_uint64, ctypes.c_void_p,
                   ctypes.c_int64, ctypes.c_void_p], ctypes.c_uint64),
    ("set_regs", [_U64P], None),
    ("reg_get", [ctypes.c_int64], ctypes.c_uint64),
    ("reg_set", [ctypes.c_int64, ctypes.c_uint64], None),
    ("mem_get", [ctypes.c_int, ctypes.c_uint64], ctypes.c_uint64),
    ("mem_set", [ctypes.c_int, ctypes.c_uint64, ctypes.c_uint64], None),
    ("state_read", [ctypes.c_void_p], None),
    ("mem_write", [ctypes.c_int, ctypes.c_uint64, ctypes.c_uint64,
                   ctypes.c_void_p], None),
)


def compile_circuit_c(circuit, use_cache=True):
    """Compile a circuit to a shared object and wrap it ctypes-side.

    Returns ``(cycle_fn, layout)`` matching the Python backend interface,
    except that the input and output vectors must be ``ctypes.c_uint64``
    arrays, passed to the C call as they are, and state lives inside
    the shared object (proxied by :class:`CRegProxy` / :class:`CMemProxy`).
    Every call loads its own copy of the object (see
    :func:`repro.native.load`), so each simulator gets private state.
    The ``csim`` cache key is the generated source itself (plus the
    compiler version and flags), so a codegen change never loads an
    object built by an older generator; generating it costs about as
    much as fingerprinting the circuit (~0.03 s on ``boom-1w_mini``).
    """
    source, layout = generate_c_source(circuit)
    lib, from_cache = native.load("csim", source, _CFLAGS, _EXPORTS,
                                  use_cache=use_cache)
    layout["source"] = source

    def cycle_fn(inputs, outputs, regs, mems, commit):
        # regs/mems are proxies (see RTLSimulator wiring); the
        # authoritative state lives inside the shared object.
        lib.cycle(inputs, outputs, 1 if commit else 0)

    cycle_fn.lib = lib
    cycle_fn.from_cache = from_cache
    return cycle_fn, layout


class CMemProxy:
    """One memory array living inside the C library: single words via
    indexing, whole ranges via :meth:`write` (reads of the whole state
    go through ``state_read``, see
    :meth:`~repro.sim.rtl_sim.RTLSimulator.snapshot`)."""

    def __init__(self, lib, mem_id, depth, width):
        self._lib = lib
        self._mem_id = mem_id
        self._depth = depth
        self.dtype = mem_dtype(width)

    def __len__(self):
        return self._depth

    def __getitem__(self, addr):
        return self._lib.mem_get(self._mem_id, self._check(addr))

    def __setitem__(self, addr, value):
        self._lib.mem_set(self._mem_id, self._check(addr), value)

    def _check(self, addr):
        if not 0 <= addr < self._depth:
            raise IndexError(f"memory address {addr} out of range")
        return addr

    def write(self, words, offset=0):
        """Store ``words`` (any array-like) from ``offset`` (one call)."""
        words = np.ascontiguousarray(words, dtype=self.dtype)
        if offset < 0 or offset + len(words) > self._depth:
            raise IndexError(
                f"{len(words)} words at offset {offset} overflow a "
                f"{self._depth}-word memory")
        self._lib.mem_write(self._mem_id, offset, len(words),
                            words.ctypes.data)


class CRegProxy:
    """The register file inside the C library: single registers via
    indexing, the whole file via :meth:`bulk_set` (and ``state_read``)."""

    def __init__(self, lib, n_regs):
        self._lib = lib
        self._count = n_regs
        self._buf = np.zeros(max(n_regs, 1), dtype=np.uint64)

    def __len__(self):
        return self._count

    def __getitem__(self, idx):
        return self._lib.reg_get(self._check(idx))

    def __setitem__(self, idx, value):
        self._lib.reg_set(self._check(idx), value)

    def _check(self, idx):
        if not 0 <= idx < self._count:
            raise IndexError(f"register index {idx} out of range")
        return idx

    def bulk_set(self, values):
        self._buf[:self._count] = values
        self._lib.set_regs(self._buf.ctypes.data_as(_U64P))
